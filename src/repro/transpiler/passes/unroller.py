"""Gate decomposition down to a basis-gate set.

The ``Unroller`` recursively expands gate definitions until every operation
is a basis gate (paper Fig. 8 lines 2 and 6: the RPO pipeline unrolls twice,
the second time keeping ``swap`` and ``swapz`` as primitives so that QPO can
recognise them).  One- and two-qubit gates without definitions are lowered
through the Euler / Weyl synthesis routines.
"""

from __future__ import annotations

from typing import Iterable

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.passmanager import PropertySet, RecordEdits, TransformationPass

__all__ = ["Unroller", "IBM_BASIS"]

#: The IBM backend basis the paper targets (Sec. II-A).
IBM_BASIS = ("u1", "u2", "u3", "id", "cx")

_ALWAYS_ALLOWED = {"measure", "reset", "barrier", "annot"}

_MAX_DEPTH = 64


class Unroller(TransformationPass):
    """Expand all gates into the given basis: each record outside it is
    replaced by its expansion, and a circuit already in the basis is
    returned as it is."""

    def __init__(self, basis: Iterable[str] = IBM_BASIS):
        self.basis = set(basis) | _ALWAYS_ALLOWED

    @property
    def name(self) -> str:
        return f"Unroller({','.join(sorted(self.basis - _ALWAYS_ALLOWED))})"

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        output = RecordEdits()
        for index, instruction in enumerate(circuit.data):
            if instruction.operation.name not in self.basis:
                output.visit(index, instruction)
                self._unroll(*instruction, output, 0)
        return self.splice(circuit, output.close(), property_set)

    def _unroll(self, operation, qubits, clbits, output, depth) -> None:
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
        output.add_phase(definition.global_phase)
        for inner in definition.data:
            mapped_qubits = tuple(qubits[q] for q in inner.qubits)
            mapped_clbits = tuple(clbits[c] for c in inner.clbits)
            self._unroll(inner.operation, mapped_qubits, mapped_clbits, output, depth + 1)

    def _synthesize(self, operation) -> QuantumCircuit:
        """Fallback lowering for definition-less gates via their matrices."""
        if not operation.is_gate():
            raise TranspilerError(
                f"cannot unroll non-gate {operation.name!r} into basis {sorted(self.basis)}"
            )
        if operation.num_qubits == 1:
            from repro.linalg.euler import u3_params_from_unitary

            theta, phi, lam, gamma = u3_params_from_unitary(operation.matrix)
            circuit = QuantumCircuit(1, global_phase=gamma)
            circuit.u3(theta, phi, lam, 0)
            return circuit
        if operation.num_qubits == 2:
            from repro.linalg.two_qubit_synthesis import synthesize_two_qubit_unitary

            return synthesize_two_qubit_unitary(operation.matrix)
        raise TranspilerError(
            f"gate {operation.name!r} has no definition and more than two qubits"
        )
