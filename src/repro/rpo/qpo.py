"""Quantum Pure-state Optimization (QPO) -- paper Secs. IV, V, VI-B.

Runs after unrolling (with ``swap``/``swapz`` kept as primitives) and 1q
fusion, per the pipeline of Fig. 8.  Two phases:

**Phase 1 -- gate rewrites** over the pure-state tracker:

* 1q gates stabilising the tracked state become global phases (Eq. 7
  generalised to arbitrary pure states);
* ``SWAP`` with both states known -> ``V`` / ``V^-1`` one-qubit gates
  (Eq. 6); with one state known -> ``U^-1 . SWAPZ . U`` (Eq. 5, one CNOT
  saved); the bracketing gates are u3's that downstream 1q fusion absorbs;
* ``CX``/``CZ`` whose tracked tuples coincide with basis states reuse the
  Table I rules (a basis state is a pure state, Sec. V-B);
* Fredkin with a known ``|0>``/``|1>`` control collapses per Sec. V-C, and
  with two known pure targets becomes two controlled-U gates (Eq. 9).

**Phase 2 -- block state preparation** (Sec. V-D, Figs. 3-4): a collected
two-qubit block whose *input* states are both known acts on a known product
state; the block (up to 3 CNOTs after consolidation) is replaced by the
universal one-CNOT preparation of its *output* state.
"""

from __future__ import annotations

import cmath
import math
import threading

import numpy as np

from repro.circuit.instruction import ControlledGate
from repro.circuit.quantumcircuit import NO_PHASE, CircuitInstruction, QuantumCircuit
from repro.linalg.batch import two_qubit_chain_unitaries
from repro.gates import SwapGate, SwapZGate, UnitaryGate, XGate, ZGate
from repro.rpo.adjacency import same_pair_adjacent_indices
from repro.rpo.pure_tracker import PureStateTracker
from repro.rpo.states import BasisState, track_non_gate
from repro.transpiler.cache import AnalysisCache, rewrite_counter
from repro.transpiler.passmanager import PropertySet, RecordEdits, TransformationPass

__all__ = ["QPOPass"]

_ZERO_ATOL = 1e-9


class QPOPass(TransformationPass):
    """The Quantum Pure-state Optimization pass."""

    # relaxed-precondition rewrite: sound from the all-zeros initial state
    equivalence = "state"

    def __init__(self, optimize_blocks: bool = True):
        self.optimize_blocks = optimize_blocks
        # per-run state on a thread-local: concurrent runs of one pass
        # instance must not interleave
        self._run_state = threading.local()

    @property
    def name(self) -> str:
        return "QPO"

    @property
    def _cache(self) -> AnalysisCache:
        return self._run_state.cache

    @property
    def _swapz_profitable(self) -> bool:
        return getattr(self._run_state, "swapz_profitable", True)

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        state = self._run_state
        state.cache = AnalysisCache.ensure(property_set)
        state.rewrites = rewrite_counter(property_set)
        rewritten = self._rewrite_gates(circuit)
        if self.optimize_blocks:
            rewritten = self._rewrite_blocks(rewritten)
        return rewritten

    # ==================================================================
    # phase 1: per-gate rewrites
    # ==================================================================

    def _rewrite_gates(self, circuit: QuantumCircuit) -> QuantumCircuit:
        tracker = PureStateTracker(circuit.num_qubits)
        known = tracker.known
        output = RecordEdits()
        blocked = same_pair_adjacent_indices(circuit)
        for index, instruction in enumerate(circuit.data):
            operation = instruction.operation
            # no rule fires on a gate whose wires are all unknown, and the
            # unknown state is absorbing, so it stays as it is
            if operation.is_gate() and not any(known[q] for q in instruction.qubits):
                continue
            self._run_state.swapz_profitable = index not in blocked
            output.visit(index, instruction)
            self._process(operation, instruction.qubits, instruction.clbits, tracker, output)
        self._run_state.swapz_profitable = True
        edits = output.close()
        self._run_state.rewrites[self.name] += output.rewrites
        return circuit.splice(edits)

    def _process(self, operation, qubits, clbits, tracker, output) -> None:
        if track_non_gate(tracker, operation, qubits):
            output.append(operation, qubits, clbits)
            return
        name = operation.name
        if operation.num_qubits == 1:
            self._process_1q(operation, qubits[0], tracker, output)
            return
        if name == "swap":
            self._process_swap(qubits, tracker, output, operation)
            return
        if name == "swapz":
            self._process_swapz(operation, qubits, tracker, output)
            return
        if name == "cswap":
            self._process_cswap(operation, qubits, tracker, output)
            return
        if name == "cx":
            self._process_cx(operation, qubits, tracker, output)
            return
        if name == "cz":
            self._process_cz(operation, qubits, tracker, output)
            return
        tracker.invalidate(qubits)
        output.append(operation, qubits, clbits)

    def _process_1q(self, operation, qubit, tracker, output) -> None:
        matrix = self._cache.matrix(operation)
        if tracker.is_known(qubit):
            vector = tracker.statevector(qubit)
            overlap = np.vdot(vector, matrix @ vector)
            if abs(abs(overlap) - 1.0) < 1e-9:
                output.add_phase(cmath.phase(overlap))
                return
        tracker.apply_1q_gate(qubit, matrix)
        output.append(operation, (qubit,))

    # -- SWAP rules (Eqs. 4-6) ---------------------------------------------

    def _process_swap(self, qubits, tracker, output, operation=None) -> None:
        """``operation`` is the input SWAP, kept when no rule fires; the
        SWAP a Fredkin leaves behind has none and is emitted fresh."""
        a, b = qubits
        known_a, known_b = tracker.is_known(a), tracker.is_known(b)
        if known_a and known_b:
            # Eq. 6: V maps |psi_a> to |psi_b>, V^-1 the reverse
            prep_a = tracker.preparation_matrix(a)
            prep_b = tracker.preparation_matrix(b)
            v = prep_b @ prep_a.conj().T
            self._process(UnitaryGate(v, label="qpo_v"), (a,), (), tracker, output)
            self._process(
                UnitaryGate(v.conj().T, label="qpo_vdg"), (b,), (), tracker, output
            )
            return
        if (known_a or known_b) and self._swapz_profitable:
            # Eq. 5: transform the known state to |0>, SWAPZ, restore
            pure_q, other = (a, b) if known_a else (b, a)
            prep = tracker.preparation_matrix(pure_q)
            if not _is_zero_state(tracker.state(pure_q)):
                self._process(
                    UnitaryGate(prep.conj().T, label="qpo_prep_dg"),
                    (pure_q,), (), tracker, output,
                )
            output.append(SwapZGate(), (pure_q, other))
            tracker.apply_swap(pure_q, other)
            if not np.allclose(prep, np.eye(2), atol=1e-12):
                self._process(
                    UnitaryGate(prep, label="qpo_prep"), (other,), (), tracker, output
                )
            return
        tracker.apply_swap(a, b)
        output.append(operation if operation is not None else SwapGate(), qubits)

    def _process_swapz(self, operation, qubits, tracker, output) -> None:
        zero_q, other = qubits
        if tracker.is_known(zero_q) and _is_zero_state(tracker.state(zero_q)):
            tracker.apply_swap(zero_q, other)
            output.append(operation, qubits)
            return
        tracker.invalidate(qubits)
        output.append(operation, qubits)

    # -- CX / CZ with basis-classified pure states (Sec. V-B) --------------

    def _process_cx(self, operation, qubits, tracker, output) -> None:
        control, target = qubits
        if getattr(operation, "ctrl_state", 1) == 1:
            ctrl_class = tracker.basis_classification(control)
            tgt_class = tracker.basis_classification(target)
            if ctrl_class is BasisState.ZERO:
                return
            if ctrl_class is BasisState.ONE:
                self._process(XGate(), (target,), (), tracker, output)
                return
            if tgt_class is BasisState.PLUS:
                return
            if tgt_class is BasisState.MINUS:
                self._process(ZGate(), (control,), (), tracker, output)
                return
        tracker.invalidate(qubits)
        output.append(operation, qubits)

    def _process_cz(self, operation, qubits, tracker, output) -> None:
        if getattr(operation, "ctrl_state", 1) == 1:
            for this, that in (qubits, qubits[::-1]):
                classification = tracker.basis_classification(this)
                if classification is BasisState.ZERO:
                    return
                if classification is BasisState.ONE:
                    self._process(ZGate(), (that,), (), tracker, output)
                    return
        tracker.invalidate(qubits)
        output.append(operation, qubits)

    # -- Fredkin (Eq. 9) -----------------------------------------------------

    def _process_cswap(self, operation, qubits, tracker, output) -> None:
        control, a, b = qubits
        ctrl_class = tracker.basis_classification(control)
        if ctrl_class is BasisState.ZERO:
            return
        if ctrl_class is BasisState.ONE:
            self._process_swap((a, b), tracker, output)
            return
        if tracker.is_known(a) and tracker.is_known(b):
            # Eq. 9: two controlled-U gates; U maps |psi_a> to |psi_b>
            prep_a = tracker.preparation_matrix(a)
            prep_b = tracker.preparation_matrix(b)
            u = prep_b @ prep_a.conj().T
            cu = ControlledGate("cu", 1, UnitaryGate(u, label="qpo_u"))
            cu_dag = ControlledGate("cu_dg", 1, UnitaryGate(u.conj().T, label="qpo_udg"))
            tracker.invalidate(qubits)
            output.append(cu, (control, a))
            output.append(cu_dag, (control, b))
            return
        tracker.invalidate(qubits)
        output.append(operation, qubits)

    # ==================================================================
    # phase 2: two-qubit block state preparation (Sec. V-D)
    # ==================================================================

    def _rewrite_blocks(self, circuit: QuantumCircuit) -> QuantumCircuit:
        tracker = PureStateTracker(circuit.num_qubits)
        data = circuit.data
        edits: list[tuple] = []  # one per flushed block or held-gate run
        open_blocks: dict[int, "_PureBlock"] = {}
        pending: dict[int, list[int]] = {}  # qubit -> held 1q input indices

        def flush_pending(qubit: int, at: int) -> None:
            held = pending.pop(qubit, None)
            if held is not None:
                for index in held:
                    self._track(data[index], tracker)
                edits.append((held, at, held, NO_PHASE))

        def flush_block(block: "_PureBlock", at: int) -> None:
            for qubit in block.pair:
                open_blocks.pop(qubit, None)
            edits.append(self._block_edit(block, at, tracker))

        def flush_qubit(qubit: int, at: int) -> None:
            block = open_blocks.get(qubit)
            if block is not None:
                flush_block(block, at)
            flush_pending(qubit, at)

        for index, instruction in enumerate(data):
            operation = instruction.operation
            qubits = instruction.qubits
            simple = (
                operation.is_gate()
                and not operation.is_directive
                and not instruction.clbits
            )
            if simple and len(qubits) == 1:
                qubit = qubits[0]
                if qubit in open_blocks:
                    open_blocks[qubit].add(index, instruction)
                else:
                    pending.setdefault(qubit, []).append(index)
                continue
            two_qubit_names = ("cx", "cz", "swap", "swapz", "unitary")
            if simple and len(qubits) == 2 and operation.name in two_qubit_names:
                a, b = qubits
                pair = (min(a, b), max(a, b))
                block = open_blocks.get(a)
                if block is not None and block is open_blocks.get(b) and block.pair == pair:
                    block.add(index, instruction)
                    continue
                for qubit in (a, b):
                    old_block = open_blocks.get(qubit)
                    if old_block is not None:
                        flush_block(old_block, index)
                # the tracker has not replayed the held 1q gates, so its
                # state is the block-input state; the held gates join the
                # block and are accounted for in its matrix
                block = _PureBlock(pair, (tracker.state(pair[0]), tracker.state(pair[1])))
                for qubit in pair:
                    for held in pending.pop(qubit, []):
                        block.add(held, data[held])
                    open_blocks[qubit] = block
                block.add(index, instruction)
                continue
            for qubit in qubits:
                flush_qubit(qubit, index)
            self._track(instruction, tracker)

        end = len(data)
        for block in dict.fromkeys(open_blocks.values()):
            flush_block(block, end)
        for qubit in sorted(pending):
            flush_pending(qubit, end)
        return circuit.splice(edits)

    def _track(self, instruction, tracker) -> None:
        """Keep the tracker sound across an instruction left as it is."""
        operation, qubits, _ = instruction
        if track_non_gate(tracker, operation, qubits):
            return
        if operation.num_qubits == 1:
            if tracker.is_known(qubits[0]):  # the unknown state is absorbing
                tracker.apply_1q_gate(qubits[0], self._cache.matrix(operation))
        elif operation.name == "swap":
            tracker.apply_swap(*qubits)
        elif operation.name == "swapz" and tracker.is_known(qubits[0]) and _is_zero_state(
            tracker.state(qubits[0])
        ):
            tracker.apply_swap(*qubits)
        else:
            tracker.invalidate(qubits)

    def _block_edit(self, block: "_PureBlock", at: int, tracker) -> tuple:
        """The block's splice edit: kept, or its output state's preparation."""
        kept = (block.indices, at, block.indices, NO_PHASE)
        input_states = block.input_states
        replaceable = (
            block.num_2q >= 2
            and input_states[0] is not None
            and input_states[1] is not None
        )
        if not replaceable:
            for instruction in block.instructions:
                self._track(instruction, tracker)
            return kept
        from repro.linalg.two_qubit_synthesis import two_qubit_state_prep_circuit
        from repro.linalg.euler import u3_matrix
        from repro.linalg.state_prep import schmidt_decomposition

        low, high = block.pair
        psi_low = u3_matrix(*input_states[0], 0.0)[:, 0]
        psi_high = u3_matrix(*input_states[1], 0.0)[:, 0]
        input_vector = np.kron(psi_high, psi_low)  # little-endian: high wire = MSB
        output_vector = block.matrix(self._cache) @ input_vector

        prep = two_qubit_state_prep_circuit(output_vector)
        new_2q = prep.num_nonlocal_gates()
        if new_2q >= block.num_2q:
            for instruction in block.instructions:
                self._track(instruction, tracker)
            return kept
        self._run_state.rewrites[self.name] += 1
        # replacement must act on |00>: undo the known input states first
        undo_low = u3_matrix(*input_states[0], 0.0).conj().T
        undo_high = u3_matrix(*input_states[1], 0.0).conj().T
        records = []
        if not np.allclose(undo_low, np.eye(2), atol=1e-12):
            records.append((UnitaryGate(undo_low, label="qpo_undo"), (low,), ()))
        if not np.allclose(undo_high, np.eye(2), atol=1e-12):
            records.append((UnitaryGate(undo_high, label="qpo_undo"), (high,), ()))
        for inner in prep.data:
            records.append((inner.operation, tuple(block.pair[q] for q in inner.qubits), ()))
        # update tracked states from the produced output state
        coefficients, left_basis, right_basis = schmidt_decomposition(output_vector)
        if coefficients[1] < 1e-9:
            from repro.linalg.state_prep import prepare_one_qubit_state

            tracker.set_state(high, prepare_one_qubit_state(left_basis[:, 0]))
            tracker.set_state(low, prepare_one_qubit_state(right_basis[:, 0]))
        else:
            tracker.invalidate(block.pair)
        return block.indices, at, records, prep.global_phase


class _PureBlock:
    """A two-qubit block plus the tracked input states at its opening."""

    def __init__(self, pair, input_states):
        self.pair = pair
        self.input_states = input_states
        self.indices: list[int] = []  # input indices of ``instructions``
        self.instructions: list[CircuitInstruction] = []
        self.num_2q = 0

    def add(self, index: int, instruction: CircuitInstruction) -> None:
        self.indices.append(index)
        self.instructions.append(instruction)
        if len(instruction.qubits) == 2:
            self.num_2q += 1

    def matrix(self, cache: AnalysisCache) -> np.ndarray:
        wire_of = {self.pair[0]: 0, self.pair[1]: 1}
        matrices = cache.matrices(
            [instruction.operation for instruction in self.instructions]
        )
        chain = [
            (matrix, tuple(wire_of[q] for q in instruction.qubits))
            for matrix, instruction in zip(matrices, self.instructions)
        ]
        # stacked embedding + fold reduction: bit-identical to the serial
        # embed_gate(...) @ acc accumulation this replaces
        return two_qubit_chain_unitaries([chain])[0]


def _is_zero_state(state) -> bool:
    if state is None:
        return False
    theta, _phi = state
    return abs(math.remainder(theta, 2 * math.pi)) < _ZERO_ATOL
