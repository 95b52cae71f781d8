"""Gate cancellation passes.

``CXCancellation`` removes directly adjacent self-inverse two-qubit pairs
(``cx``/``cz``/``swap``); ``CommutativeCancellation`` additionally cancels
CNOT pairs separated by gates that commute through the control (diagonal
gates, CNOTs sharing the control) or through the target (CNOTs sharing the
target).  These mirror the level 1/2 gate-cancellation procedures the paper
describes in Sec. II-B.  Each cancelled pair is one
:meth:`~repro.circuit.QuantumCircuit.splice` edit that removes both
records, so a circuit with nothing to cancel is returned as it is.
"""

from __future__ import annotations

from repro.circuit.quantumcircuit import NO_PHASE, CircuitInstruction, QuantumCircuit
from repro.transpiler.passmanager import PropertySet, TransformationPass

__all__ = ["CXCancellation", "CommutativeCancellation"]

_SELF_INVERSE_SYMMETRIC = {"cz", "swap"}
_DIAGONAL_1Q = {"u1", "z", "s", "sdg", "t", "tdg", "rz"}


class CXCancellation(TransformationPass):
    """Cancel immediately adjacent self-inverse two-qubit gate pairs."""

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        data = circuit.data
        edits = []  # one per cancelled pair
        last_on_wire: dict[int, int] = {}  # qubit -> index of its last survivor
        for index, instruction in enumerate(data):
            qubits = instruction.qubits
            name = instruction.operation.name
            if name == "cx" or name in _SELF_INVERSE_SYMMETRIC:
                indices = {last_on_wire.get(q) for q in qubits}
                if len(indices) == 1 and None not in indices:
                    (previous,) = indices
                    if self._is_inverse_pair(data[previous], instruction):
                        edits.append(((previous, index), index, (), NO_PHASE))
                        for qubit in qubits:
                            del last_on_wire[qubit]
                        continue
            for qubit in qubits:
                last_on_wire[qubit] = index
        return self.splice(circuit, edits, property_set)

    @staticmethod
    def _is_inverse_pair(a: CircuitInstruction, b: CircuitInstruction) -> bool:
        if a.operation.name != b.operation.name:
            return False
        if a.operation.name == "cx":
            return a.qubits == b.qubits
        if a.operation.name in _SELF_INVERSE_SYMMETRIC:
            return set(a.qubits) == set(b.qubits)
        return False


class CommutativeCancellation(TransformationPass):
    """Cancel CNOT pairs separated by commuting gates.

    A ``cx(c, t)`` commutes with diagonal one-qubit gates and other CNOT
    controls on ``c``, and with other CNOT targets (and X-axis rotations) on
    ``t``.  When two identical CNOTs see only such gates between them on
    both wires, the pair collapses.
    """

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        survivors: list[CircuitInstruction | None] = list(circuit.data)
        wire_ops: dict[int, list[int]] = {q: [] for q in range(circuit.num_qubits)}
        for index, instruction in enumerate(survivors):
            for qubit in instruction.qubits:
                wire_ops[qubit].append(index)

        open_cx: dict[tuple[int, int], int] = {}  # (c, t) -> index of candidate
        edits = []  # one per cancelled pair
        for index, instruction in enumerate(survivors):
            if instruction is None:
                continue
            operation = instruction.operation
            if operation.name != "cx":
                # other ops simply invalidate candidates they conflict with
                self._invalidate(open_cx, instruction)
                continue
            control, target = instruction.qubits
            key = (control, target)
            if key in open_cx:
                earlier = open_cx.pop(key)
                if self._window_commutes(
                    survivors, wire_ops, earlier, index, control, target
                ):
                    survivors[earlier] = None
                    survivors[index] = None
                    edits.append(((earlier, index), index, (), NO_PHASE))
                    continue
            # a cx also threatens candidates on overlapping wires
            self._invalidate(open_cx, instruction, skip_key=key)
            open_cx[key] = index
        return self.splice(circuit, edits, property_set)

    @staticmethod
    def _invalidate(open_cx, instruction, skip_key=None):
        touched = set(instruction.qubits)
        operation = instruction.operation
        for key in list(open_cx):
            if key == skip_key:
                continue
            control, target = key
            blocking = False
            if control in touched:
                blocking = not (
                    operation.name in _DIAGONAL_1Q
                    or (operation.name == "cx" and instruction.qubits[0] == control)
                )
            if not blocking and target in touched:
                blocking = not (
                    operation.name == "cx" and instruction.qubits[1] == target
                )
            if blocking:
                del open_cx[key]

    @staticmethod
    def _window_commutes(survivors, wire_ops, start, stop, control, target) -> bool:
        """Check all surviving ops strictly between the pair on both wires."""
        for qubit, commute_ok in ((control, "control"), (target, "target")):
            for index in wire_ops[qubit]:
                if not start < index < stop:
                    continue
                instruction = survivors[index]
                if instruction is None:
                    continue
                name = instruction.operation.name
                if commute_ok == "control":
                    if name in _DIAGONAL_1Q:
                        continue
                    if name == "cx" and instruction.qubits[0] == control:
                        continue
                    return False
                if name == "cx" and instruction.qubits[1] == target:
                    continue
                return False
        return True
