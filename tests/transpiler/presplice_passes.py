"""The passes as they built their outputs before ``QuantumCircuit.splice``.

Each oracle subclasses its production pass and overrides only how the
output is built: a fresh circuit that every surviving or new record is
appended to one by one (so every record is checked again), with each
phase term added to ``global_phase`` as it comes.  A rewrite takes the
place of the last record it removes, and every other record keeps its
place.  Everything that decides *what* to emit -- trackers, block
planning, synthesis, the rewrite rules -- is the production code's, so the
parity tests in ``test_splice_parity.py`` hold the splice edits, and
nothing else, to that record order and phase summation, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gates import U1Gate, U2Gate, U3Gate, UnitaryGate
from repro.linalg.batch import chain_products, u3_params_batch
from repro.rpo.adjacency import same_pair_adjacent_indices
from repro.rpo.basis_tracker import BasisStateTracker
from repro.rpo.hoare import HoareOptimizer, _Cluster
from repro.rpo.pure_tracker import PureStateTracker
from repro.rpo.qbo import QBOPass
from repro.rpo.qpo import QPOPass, _PureBlock
from repro.transpiler.cache import AnalysisCache, rewrite_counter
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.passes import (
    CommutativeCancellation,
    ConsolidateBlocks,
    CXCancellation,
    Optimize1qGates,
    RemoveAnnotations,
    RemoveBarriers,
    RemoveDiagonalGatesBeforeMeasure,
    Unroller,
)
from repro.transpiler.passes.cleanup import _DIAGONAL_1Q
from repro.transpiler.passes.consolidate import _Block
from repro.transpiler.passes.unroller import _MAX_DEPTH
from repro.utils.angles import normalize_angle

_EPS = 1e-10
_PURE_BLOCK_GATES = ("cx", "cz", "swap", "swapz", "unitary")


def fused_gate(theta, phi, lam):
    """A fused run's u-gate in the IBM basis, or ``None`` for the identity
    -- the ``u_gate`` choice: ``phi`` and ``lam`` of a ``u2``/``u3``
    wrapped into ``[-pi, pi]``, the range the Euler extraction reads them
    back in."""
    theta_n = normalize_angle(theta)
    if theta_n < _EPS or abs(theta_n - 2 * math.pi) < _EPS:
        total = normalize_angle(phi + lam)
        return U1Gate(total) if total > _EPS else None
    phi, lam = math.remainder(phi, 2 * math.pi), math.remainder(lam, 2 * math.pi)
    if abs(theta_n - math.pi / 2) < _EPS:
        return U2Gate(phi, lam)
    return U3Gate(theta, phi, lam)


def basis_form(operation):
    """A re-synthesis gate as ``ConsolidateBlocks`` places it in the IBM
    basis: a ``u3`` as its fused gate."""
    if operation.name != "u3":
        return operation
    gate = fused_gate(*operation.params)
    return operation if gate is None else gate


def is_itself(operation, gate) -> bool:
    """Whether ``gate`` is ``operation`` again: unlabelled, same class and
    every parameter within 1e-12 of its own."""
    return (
        gate is not None
        and operation.label is None
        and type(operation) is type(gate)
        and all(abs(a - b) <= 1e-12 for a, b in zip(operation.params, gate.params))
    )


def place(circuit, output, rewritten):
    """Append ``circuit``'s records to ``output`` in order, except that each
    ``rewritten`` group of removed indices gives way to its records, put
    where its last index was."""
    removed = set()
    at_last = {}
    for indices, records in rewritten:
        removed.update(indices)
        at_last[max(indices)] = records
    for index, instruction in enumerate(circuit.data):
        if index in at_last:
            for operation, qubits in at_last[index]:
                output.append(operation, qubits)
        elif index not in removed:
            output.append(instruction.operation, instruction.qubits, instruction.clbits)
    return output


class PreSpliceOptimize1qGates(Optimize1qGates):
    def transform(self, circuit, property_set):
        rewrites = rewrite_counter(property_set)
        runs = []  # (qubit, member indices, operations)
        open_runs = {}
        for index, instruction in enumerate(circuit.data):
            operation = instruction.operation
            if operation.is_gate() and operation.num_qubits == 1 and not operation.is_directive:
                qubit = instruction.qubits[0]
                run = open_runs.get(qubit)
                if run is None:
                    run = open_runs[qubit] = (qubit, [], [])
                    runs.append(run)
                run[1].append(index)
                run[2].append(operation)
                continue
            for qubit in instruction.qubits:
                open_runs.pop(qubit, None)

        chains = [[op.matrix for op in ops] for _, _, ops in runs]
        params = u3_params_batch(chain_products(chains, 2)).tolist() if runs else []

        output = circuit.copy_empty_like()
        rewritten = []
        for (qubit, indices, ops), (theta, phi, lam, gamma) in zip(runs, params):
            gate = fused_gate(theta, phi, lam)
            if len(ops) > 1:
                rewrites[self.name] += 1
            elif is_itself(ops[0], gate):
                continue
            output.global_phase += gamma
            rewritten.append((indices, [] if gate is None else [(gate, (qubit,))]))
        return place(circuit, output, rewritten)


class PreSpliceConsolidateBlocks(ConsolidateBlocks):
    def collect(self, circuit):
        """Every block, in the order it closes."""
        blocks = []
        block_of = {}

        def close(qubit):
            block = block_of.get(qubit)
            if block is not None:
                for wire in block.pair:
                    block_of.pop(wire, None)
                blocks.append(block)

        for index, instruction in enumerate(circuit.data):
            operation = instruction.operation
            qubits = instruction.qubits
            is_simple_gate = (
                operation.is_gate() and not operation.is_directive and not instruction.clbits
            )
            if is_simple_gate and len(qubits) == 1:
                block = block_of.get(qubits[0])
                if block is not None:
                    block.add(index, instruction)
                continue
            if is_simple_gate and len(qubits) == 2:
                a, b = qubits
                pair = (min(a, b), max(a, b))
                block = block_of.get(a)
                if block is not None and block is block_of.get(b) and block.pair == pair:
                    block.add(index, instruction)
                    continue
                close(a)
                close(b)
                block = _Block(pair)
                for qubit in pair:
                    block_of[qubit] = block
                block.add(index, instruction)
                continue
            for qubit in qubits:
                close(qubit)

        for block in block_of.values():
            if block not in blocks:
                blocks.append(block)
        return blocks

    def transform(self, circuit, property_set):
        cache = AnalysisCache.ensure(property_set)
        rewrites = rewrite_counter(property_set)
        blocks = [block for block in self.collect(circuit) if block.num_2q >= self._MIN_2Q]
        unitaries = self._block_matrices(blocks)
        self._plan_blocks(blocks, unitaries, cache)
        output = circuit.copy_empty_like()
        rewritten = []
        for block in blocks:
            records = self._block_records(block, output, unitaries[id(block)], rewrites, cache)
            if records is not None:
                rewritten.append((block.indices, records))
        return place(circuit, output, rewritten)

    def _block_records(self, block, output, unitary, rewrites, cache):
        """The block's kept re-synthesis as ``(operation, qubits)`` records,
        its phase added to ``output``; ``None`` when the block stays."""
        replacement = self._replacement(block, unitary, cache)
        if replacement is None or not self._improves(block, replacement):
            return None
        rewrites[self.name] += 1
        cache.stats["synth_kept"] += 1
        output.global_phase += replacement.global_phase
        return [
            (basis_form(inner.operation), tuple(block.pair[q] for q in inner.qubits))
            for inner in replacement.data
        ]


class PreSpliceUnroller(Unroller):
    def transform(self, circuit, property_set):
        if all(instruction.operation.name in self.basis for instruction in circuit.data):
            return circuit
        output = circuit.copy_empty_like()
        for instruction in circuit.data:
            self._unroll_into(
                instruction.operation, instruction.qubits, instruction.clbits, output, 0
            )
        return output

    def _unroll_into(self, operation, qubits, clbits, output, depth):
        # the pre-splice ``Unroller._unroll``: append and add each phase at once
        if depth > _MAX_DEPTH:
            raise TranspilerError(
                f"definition recursion too deep while unrolling {operation.name!r}"
            )
        if operation.name in self.basis:
            output.append(operation, qubits, clbits)
            return
        definition = operation.definition
        if definition is None:
            definition = self._synthesize(operation)
        output.global_phase += definition.global_phase
        for inner in definition.data:
            self._unroll_into(
                inner.operation,
                tuple(qubits[q] for q in inner.qubits),
                tuple(clbits[c] for c in inner.clbits),
                output,
                depth + 1,
            )


def _emit_surviving(circuit, survivors, cancelled):
    if not cancelled:
        return circuit
    output = circuit.copy_empty_like()
    for item in survivors:
        if item is not None:
            output.append(item.operation, item.qubits, item.clbits)
    return output


class PreSpliceCXCancellation(CXCancellation):
    def transform(self, circuit, property_set):
        rewrites = rewrite_counter(property_set)
        survivors = []
        last_on_wire = {}
        cancelled_pairs = 0
        for instruction in circuit.data:
            operation = instruction.operation
            qubits = instruction.qubits
            cancelled = False
            if operation.name == "cx" or operation.name in ("cz", "swap"):
                indices = {last_on_wire.get(q) for q in qubits}
                if len(indices) == 1 and None not in indices:
                    (index,) = indices
                    previous = survivors[index]
                    if previous is not None and self._is_inverse_pair(previous, instruction):
                        survivors[index] = None
                        for qubit in qubits:
                            del last_on_wire[qubit]
                        cancelled = True
                        cancelled_pairs += 1
            if not cancelled:
                survivors.append(instruction)
                for qubit in qubits:
                    last_on_wire[qubit] = len(survivors) - 1
        if cancelled_pairs:
            rewrites[self.name] += cancelled_pairs
        return _emit_surviving(circuit, survivors, cancelled_pairs)


class PreSpliceCommutativeCancellation(CommutativeCancellation):
    def transform(self, circuit, property_set):
        rewrites = rewrite_counter(property_set)
        survivors = list(circuit.data)
        wire_ops = {q: [] for q in range(circuit.num_qubits)}
        for index, instruction in enumerate(survivors):
            for qubit in instruction.qubits:
                wire_ops[qubit].append(index)
        open_cx = {}
        cancelled_pairs = 0
        for index, instruction in enumerate(survivors):
            if instruction is None:
                continue
            if instruction.operation.name != "cx":
                self._invalidate(open_cx, instruction)
                continue
            control, target = instruction.qubits
            key = (control, target)
            if key in open_cx:
                earlier = open_cx.pop(key)
                if self._window_commutes(survivors, wire_ops, earlier, index, control, target):
                    survivors[earlier] = None
                    survivors[index] = None
                    cancelled_pairs += 1
                    continue
            self._invalidate(open_cx, instruction, skip_key=key)
            open_cx[key] = index
        if cancelled_pairs:
            rewrites[self.name] += cancelled_pairs
        return _emit_surviving(circuit, survivors, cancelled_pairs)


class _AppendingOutput:
    """A circuit behind the production passes' edit-recorder spelling:
    every record is appended (and checked), every phase term added.

    Between :meth:`visit` calls it also counts the visited records that
    did not become just themselves -- the rewrites of QBO and QPO."""

    def __init__(self, circuit):
        self.circuit = circuit
        self.rewrites = 0
        self._record = None
        self._became = []

    def visit(self, record):
        if self._record is not None and self._became != [self._record]:
            self.rewrites += 1
        self._record, self._became = record, []

    def append(self, operation, qubits, clbits=()):
        record = self._record
        if (
            record is not None
            and operation is record.operation
            and tuple(qubits) == record.qubits
            and tuple(clbits) == record.clbits
        ):
            self._became.append(record)
        else:
            self._became.append(None)
        self.circuit.append(operation, qubits, clbits)

    def add_phase(self, term):
        self._became.append(None)
        self.circuit.global_phase += term


class PreSpliceQBOPass(QBOPass):
    def transform(self, circuit, property_set):
        state = self._run_state
        tracker = BasisStateTracker(circuit.num_qubits)
        output = _AppendingOutput(circuit.copy_empty_like())
        blocked = same_pair_adjacent_indices(circuit)
        for index, instruction in enumerate(circuit.data):
            state.swapz_profitable = index not in blocked
            output.visit(instruction)
            self._process(
                instruction.operation, instruction.qubits, instruction.clbits, tracker, output
            )
        output.visit(None)
        state.swapz_profitable = True
        rewrite_counter(property_set)[self.name] += output.rewrites
        return output.circuit


class PreSpliceHoareOptimizer(HoareOptimizer):
    def transform(self, circuit, property_set):
        self._run_state.cluster_of = {q: _Cluster((q,), {0}) for q in range(circuit.num_qubits)}
        output = _AppendingOutput(circuit.copy_empty_like())
        for instruction in circuit.data:
            self._process(instruction.operation, instruction.qubits, instruction.clbits, output)
        return output.circuit


class PreSpliceQPOPass(QPOPass):
    def _rewrite_gates(self, circuit):
        tracker = PureStateTracker(circuit.num_qubits)
        output = _AppendingOutput(circuit.copy_empty_like())
        blocked = same_pair_adjacent_indices(circuit)
        for index, instruction in enumerate(circuit.data):
            self._run_state.swapz_profitable = index not in blocked
            output.visit(instruction)
            self._process(
                instruction.operation, instruction.qubits, instruction.clbits, tracker, output
            )
        output.visit(None)
        self._run_state.swapz_profitable = True
        self._run_state.rewrites[self.name] += output.rewrites
        return output.circuit

    def _rewrite_blocks(self, circuit):
        tracker = PureStateTracker(circuit.num_qubits)
        output = circuit.copy_empty_like()
        rewritten = []
        open_blocks = {}
        pending = {}

        def flush_pending(qubit):
            for _, instruction in pending.pop(qubit, []):
                self._track(instruction, tracker)

        def flush_block(block):
            for qubit in block.pair:
                open_blocks.pop(qubit, None)
            records = self._pure_block_records(block, tracker, output)
            if records is not None:
                rewritten.append((block.indices, records))

        def flush_qubit(qubit):
            block = open_blocks.get(qubit)
            if block is not None:
                flush_block(block)
            flush_pending(qubit)

        for index, instruction in enumerate(circuit.data):
            operation = instruction.operation
            qubits = instruction.qubits
            simple = operation.is_gate() and not operation.is_directive and not instruction.clbits
            if simple and len(qubits) == 1:
                if qubits[0] in open_blocks:
                    open_blocks[qubits[0]].add(index, instruction)
                else:
                    pending.setdefault(qubits[0], []).append((index, instruction))
                continue
            if simple and len(qubits) == 2 and operation.name in _PURE_BLOCK_GATES:
                a, b = qubits
                pair = (min(a, b), max(a, b))
                block = open_blocks.get(a)
                if block is not None and block is open_blocks.get(b) and block.pair == pair:
                    block.add(index, instruction)
                    continue
                for qubit in (a, b):
                    old_block = open_blocks.get(qubit)
                    if old_block is not None:
                        flush_block(old_block)
                block = _PureBlock(pair, (tracker.state(pair[0]), tracker.state(pair[1])))
                for qubit in pair:
                    for held in pending.pop(qubit, []):
                        block.add(*held)
                    open_blocks[qubit] = block
                block.add(index, instruction)
                continue
            for qubit in qubits:
                flush_qubit(qubit)
            self._track(instruction, tracker)

        remaining = []
        for block in open_blocks.values():
            if block not in remaining:
                remaining.append(block)
        for block in remaining:
            flush_block(block)
        for qubit in sorted(pending):
            flush_pending(qubit)
        return place(circuit, output, rewritten)

    def _pure_block_records(self, block, tracker, output):
        """The preparation of the block's output state as ``(operation,
        qubits)`` records, its phase added to ``output``; ``None`` when the
        block stays (its gates replayed on ``tracker``)."""
        from repro.linalg.euler import u3_matrix
        from repro.linalg.state_prep import prepare_one_qubit_state, schmidt_decomposition
        from repro.linalg.two_qubit_synthesis import two_qubit_state_prep_circuit

        input_states = block.input_states
        replaceable = (
            block.num_2q >= 2 and input_states[0] is not None and input_states[1] is not None
        )
        unitary = block.matrix() if replaceable else None
        if unitary is None:
            for instruction in block.instructions:
                self._track(instruction, tracker)
            return None
        low, high = block.pair
        psi_low = u3_matrix(*input_states[0], 0.0)[:, 0]
        psi_high = u3_matrix(*input_states[1], 0.0)[:, 0]
        output_vector = unitary @ np.kron(psi_high, psi_low)
        prep = two_qubit_state_prep_circuit(output_vector)
        if prep.num_nonlocal_gates() >= block.num_2q:
            for instruction in block.instructions:
                self._track(instruction, tracker)
            return None
        self._run_state.rewrites[self.name] += 1
        undo_low = u3_matrix(*input_states[0], 0.0).conj().T
        undo_high = u3_matrix(*input_states[1], 0.0).conj().T
        records = []
        if not np.allclose(undo_low, np.eye(2), atol=1e-12):
            records.append((UnitaryGate(undo_low, label="qpo_undo"), (low,)))
        if not np.allclose(undo_high, np.eye(2), atol=1e-12):
            records.append((UnitaryGate(undo_high, label="qpo_undo"), (high,)))
        output.global_phase += prep.global_phase
        for inner in prep.data:
            records.append((inner.operation, tuple((low, high)[q] for q in inner.qubits)))
        coefficients, left_basis, right_basis = schmidt_decomposition(output_vector)
        if coefficients[1] < 1e-9:
            tracker.set_state(high, prepare_one_qubit_state(left_basis[:, 0]))
            tracker.set_state(low, prepare_one_qubit_state(right_basis[:, 0]))
        else:
            tracker.invalidate(block.pair)
        return records


class PreSpliceRemoveDiagonalGatesBeforeMeasure(RemoveDiagonalGatesBeforeMeasure):
    def transform(self, circuit, property_set):
        survivors = list(circuit.data)
        chains = {}
        measures = []
        for index, instruction in enumerate(survivors):
            if instruction.operation.name == "measure":
                chain = chains.setdefault(instruction.qubits[0], [])
                measures.append((chain, len(chain)))
            for qubit in instruction.qubits:
                chains.setdefault(qubit, []).append(index)
        dropped = False
        for chain, position in measures:
            walk = position - 1
            while walk >= 0:
                earlier = survivors[chain[walk]]
                if earlier is None:
                    walk -= 1
                    continue
                if earlier.operation.name in _DIAGONAL_1Q and len(earlier.qubits) == 1:
                    survivors[chain[walk]] = None
                    dropped = True
                    walk -= 1
                    continue
                break
        return _emit_surviving(circuit, survivors, dropped)


def _strip(circuit, name):
    if all(instruction.operation.name != name for instruction in circuit.data):
        return circuit
    output = circuit.copy_empty_like()
    for instruction in circuit.data:
        if instruction.operation.name != name:
            output.append(instruction.operation, instruction.qubits, instruction.clbits)
    return output


class PreSpliceRemoveAnnotations(RemoveAnnotations):
    def transform(self, circuit, property_set):
        return _strip(circuit, "annot")


class PreSpliceRemoveBarriers(RemoveBarriers):
    def transform(self, circuit, property_set):
        return _strip(circuit, "barrier")


#: production pass class -> its pre-splice oracle
ORACLES = {
    Optimize1qGates: PreSpliceOptimize1qGates,
    ConsolidateBlocks: PreSpliceConsolidateBlocks,
    Unroller: PreSpliceUnroller,
    CXCancellation: PreSpliceCXCancellation,
    CommutativeCancellation: PreSpliceCommutativeCancellation,
    QBOPass: PreSpliceQBOPass,
    QPOPass: PreSpliceQPOPass,
    HoareOptimizer: PreSpliceHoareOptimizer,
    RemoveDiagonalGatesBeforeMeasure: PreSpliceRemoveDiagonalGatesBeforeMeasure,
    RemoveAnnotations: PreSpliceRemoveAnnotations,
    RemoveBarriers: PreSpliceRemoveBarriers,
}
