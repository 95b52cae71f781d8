"""Cleanup passes: pre-measurement diagonal removal, directive stripping.

Each removed record is one :meth:`~repro.circuit.QuantumCircuit.splice`
edit, so a pass with nothing to remove returns its input circuit.
"""

from __future__ import annotations

from repro.circuit.quantumcircuit import NO_PHASE, QuantumCircuit
from repro.transpiler.passmanager import PropertySet, TransformationPass

__all__ = ["RemoveDiagonalGatesBeforeMeasure", "RemoveAnnotations", "RemoveBarriers"]

_DIAGONAL_1Q = {"u1", "z", "s", "sdg", "t", "tdg", "rz"}


class RemoveDiagonalGatesBeforeMeasure(TransformationPass):
    """Drop diagonal one-qubit gates that immediately precede a measurement.

    Diagonal gates commute with computational-basis measurement, so they
    cannot affect outcome statistics.
    """

    # phases may change; measurement-outcome distributions may not
    equivalence = "measurement"

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        data = circuit.data
        # each wire's record indices, and each measure's place on its wire
        chains: dict[int, list[int]] = {}
        measures: list[tuple[list[int], int]] = []
        for index, instruction in enumerate(data):
            if instruction.operation.name == "measure":
                chain = chains.setdefault(instruction.qubits[0], [])
                measures.append((chain, len(chain)))
            for qubit in instruction.qubits:
                chains.setdefault(qubit, []).append(index)

        dropped: set[int] = set()
        # walk backwards from each measure, in circuit order
        for chain, position in measures:
            for walk in range(position - 1, -1, -1):
                index = chain[walk]
                if index in dropped:
                    continue
                earlier = data[index]
                if earlier.operation.name not in _DIAGONAL_1Q or len(earlier.qubits) != 1:
                    break
                dropped.add(index)
        edits = [((index,), index, (), NO_PHASE) for index in sorted(dropped)]
        return self.splice(circuit, edits, property_set)


class RemoveAnnotations(TransformationPass):
    """Strip ``ANNOT`` directives (after the state analyses consumed them)."""

    # stripping a programmer promise is semantically free but erases the
    # very annotations the tracker tier would compare against
    equivalence = "none"

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        return self.splice(circuit, _removals(circuit, "annot"), property_set)


class RemoveBarriers(TransformationPass):
    """Strip barrier directives."""

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        return self.splice(circuit, _removals(circuit, "barrier"), property_set)


def _removals(circuit: QuantumCircuit, name: str) -> list:
    """The splice edits that drop each of the circuit's ``name`` records."""
    return [
        ((index,), index, (), NO_PHASE)
        for index, instruction in enumerate(circuit.data)
        if instruction.operation.name == name
    ]
