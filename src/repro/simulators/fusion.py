"""Gate-fusion pre-step shared by the simulators.

:func:`compile_program` lowers a circuit into a flat list of simulator
steps, folding maximal runs of gates confined to one qubit (or one qubit
pair) into single fused matrices before anything touches the state.  The
run collection mirrors ``ConsolidateBlocks``: one-qubit runs attach to a
two-qubit run when a gate entangles their qubits, and measurements,
resets, classically-conditioned gates and 3+-qubit gates fence the qubits
they touch.  All fused products are computed in batched stacked-operand
reductions (:mod:`repro.linalg.batch`) -- one call for every one-qubit
run, one for every two-qubit run -- rather than one matmul per gate.

Applying a fused ``4x4`` to the state costs one ``apply_gate_to_state``
instead of one per gate, which is where the win comes from: the per-gate
transpose/reshape bookkeeping dominates matrix arithmetic at these sizes.

Gate matrices are the gates' memoized
:attr:`~repro.circuit.instruction.Gate.matrix`: parameter-free standard
gates hand out the immutable module-level table in
:mod:`repro.gates.matrices`, and any other gate builds its matrix once per
gate object, however many programs it is compiled into.

Fused products use the log-depth pairwise reduction: a fused trajectory
equals the serial one up to floating-point associativity (exact in exact
arithmetic), which the simulator tests bound at ``1e-12``.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.linalg.batch import chain_products, two_qubit_chain_unitaries

__all__ = ["FusedProgram", "compile_program"]


class _Run:
    """A growing run of gates confined to ``qubits`` (one qubit or a pair)."""

    __slots__ = ("qubits", "items", "matrix")

    def __init__(self, qubits: tuple[int, ...]):
        self.qubits = qubits
        self.items: list[tuple[int, tuple[int, ...]]] = []  # (op index, qargs)
        self.matrix: np.ndarray | None = None


class FusedProgram:
    """A circuit lowered to simulator steps.

    ``steps`` entries are ``(kind, a, b)`` tuples:

    * ``("unitary", matrix, qargs)`` -- apply ``matrix`` to ``qargs``,
    * ``("measure", qubit, clbit)`` -- measure ``qubit`` into ``clbit``,
    * ``("reset", qubit, None)`` -- reset ``qubit`` to ``|0>``,
    * ``("other", operation, qargs)`` -- anything the consumer must
      reject (or handle) itself; ``operation`` is the original instruction.
    """

    __slots__ = ("num_qubits", "num_clbits", "global_phase", "steps",
                 "num_gates", "num_unitaries")

    def __init__(self, num_qubits: int, num_clbits: int, global_phase: float):
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.global_phase = global_phase
        self.steps: list[tuple] = []
        #: gate instructions lowered (fused or not)
        self.num_gates = 0
        #: unitary steps emitted -- ``num_gates - num_unitaries`` gates
        #: were folded away by fusion
        self.num_unitaries = 0


def compile_program(circuit: QuantumCircuit) -> FusedProgram:
    """Lower ``circuit`` into a :class:`FusedProgram`; directives are dropped."""
    program = FusedProgram(circuit.num_qubits, circuit.num_clbits, circuit.global_phase)

    # Phase 1: scan into an ordered event list; runs collect gate indices,
    # and each gate's memoized matrix is read once, in gate order.
    events: list[tuple] = []
    matrices: list[np.ndarray] = []  # one memoized gate matrix per gate
    pending_1q: dict[int, _Run] = {}
    pair_of: dict[int, _Run] = {}

    def flush_pending(qubit: int) -> None:
        run = pending_1q.pop(qubit, None)
        if run is not None:
            events.append(("run", run, None))

    def flush_pair(run: _Run) -> None:
        for qubit in run.qubits:
            pair_of.pop(qubit, None)
        events.append(("run", run, None))

    def flush_qubit(qubit: int) -> None:
        run = pair_of.get(qubit)
        if run is not None:
            flush_pair(run)
        flush_pending(qubit)

    for instruction in circuit.data:
        operation = instruction.operation
        if operation.is_directive:
            continue
        name = operation.name
        if name == "measure":
            qubit = instruction.qubits[0]
            flush_qubit(qubit)
            events.append(("measure", qubit, instruction.clbits[0]))
            continue
        if name == "reset":
            qubit = instruction.qubits[0]
            flush_qubit(qubit)
            events.append(("reset", qubit, None))
            continue
        if not operation.is_gate():
            for qubit in instruction.qubits:
                flush_qubit(qubit)
            events.append(("other", operation, instruction.qubits))
            continue
        qargs = instruction.qubits
        program.num_gates += 1
        op_index = len(matrices)
        matrices.append(operation.matrix)
        if len(qargs) > 2 or instruction.clbits:
            for qubit in qargs:
                flush_qubit(qubit)
            events.append(("gate", op_index, qargs))
            continue
        if len(qargs) == 1:
            qubit = qargs[0]
            run = pair_of.get(qubit) or pending_1q.get(qubit)
            if run is None:
                run = _Run(qargs)
                pending_1q[qubit] = run
            run.items.append((op_index, qargs))
            continue
        a, b = qargs
        pair = (a, b) if a < b else (b, a)
        run = pair_of.get(a)
        if run is not None and run is pair_of.get(b) and run.qubits == pair:
            run.items.append((op_index, qargs))
            continue
        for qubit in qargs:
            held = pair_of.get(qubit)
            if held is not None:
                flush_pair(held)
        run = _Run(pair)
        for qubit in pair:
            held_1q = pending_1q.pop(qubit, None)
            if held_1q is not None:
                run.items.extend(held_1q.items)
            pair_of[qubit] = run
        run.items.append((op_index, qargs))

    remaining: list[_Run] = []
    for run in pair_of.values():
        if run not in remaining:
            remaining.append(run)
    for run in remaining:
        flush_pair(run)
    for qubit in sorted(pending_1q):
        flush_pending(qubit)

    # Phase 2: every fused product in one batched reduction per arity.
    runs_1q: list[_Run] = []
    runs_2q: list[_Run] = []
    for event in events:
        if event[0] != "run":
            continue
        run = event[1]
        if len(run.items) == 1:
            run.matrix = matrices[run.items[0][0]]
        elif len(run.qubits) == 1:
            runs_1q.append(run)
        else:
            runs_2q.append(run)
    if runs_1q:
        products = chain_products(
            [[matrices[index] for index, _ in run.items] for run in runs_1q],
            2,
            reduction="pairwise",
        )
        for run, product in zip(runs_1q, products):
            run.matrix = product
    if runs_2q:
        chains = []
        for run in runs_2q:
            low, high = run.qubits
            wire_of = {low: 0, high: 1}
            chains.append(
                [
                    (matrices[index], tuple(wire_of[q] for q in qargs))
                    for index, qargs in run.items
                ]
            )
        products = two_qubit_chain_unitaries(chains, reduction="pairwise")
        for run, product in zip(runs_2q, products):
            run.matrix = product

    for kind, a, b in events:
        if kind == "gate":
            program.num_unitaries += 1
            program.steps.append(("unitary", matrices[a], b))
        elif kind == "run":
            program.num_unitaries += 1
            qargs = a.items[0][1] if len(a.items) == 1 else a.qubits
            program.steps.append(("unitary", a.matrix, qargs))
        else:
            program.steps.append((kind, a, b))
    return program
