"""Cleanup passes: pre-measurement diagonal removal, directive stripping.

A pass with nothing to remove returns its input circuit.
"""

from __future__ import annotations

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.transpiler.passmanager import PropertySet, TransformationPass

__all__ = ["RemoveDiagonalGatesBeforeMeasure", "RemoveAnnotations", "RemoveBarriers"]

_DIAGONAL_1Q = {"u1", "z", "s", "sdg", "t", "tdg", "rz"}


class RemoveDiagonalGatesBeforeMeasure(TransformationPass):
    """Drop diagonal one-qubit gates that immediately precede a measurement.

    Diagonal gates commute with computational-basis measurement, so they
    cannot affect outcome statistics.
    """

    requires = ()
    preserves = ("is_swap_mapped",)
    invalidates = ()
    # phases may change; measurement-outcome distributions may not
    equivalence = "measurement"

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        survivors: list = list(circuit.data)
        # each wire's record indices, and each measure's place on its wire
        chains: dict[int, list[int]] = {}
        measures: list[tuple[list[int], int]] = []
        for index, instruction in enumerate(survivors):
            if instruction.operation.name == "measure":
                chain = chains.setdefault(instruction.qubits[0], [])
                measures.append((chain, len(chain)))
            for qubit in instruction.qubits:
                chains.setdefault(qubit, []).append(index)

        dropped = False
        # walk backwards from each measure, in circuit order
        for chain, position in measures:
            walk = position - 1
            while walk >= 0:
                earlier = survivors[chain[walk]]
                if earlier is None:
                    walk -= 1
                    continue
                if (
                    earlier.operation.name in _DIAGONAL_1Q
                    and len(earlier.qubits) == 1
                ):
                    survivors[chain[walk]] = None
                    dropped = True
                    walk -= 1
                    continue
                break
        if not dropped:
            return circuit
        output = circuit.copy_empty_like()
        for instruction in survivors:
            if instruction is not None:
                output.append(
                    instruction.operation, instruction.qubits, instruction.clbits
                )
        return output


class RemoveAnnotations(TransformationPass):
    """Strip ``ANNOT`` directives (after the state analyses consumed them)."""

    requires = ()
    # directives are invisible to size/depth and touch no couplings
    preserves = ("size", "depth", "is_swap_mapped")
    invalidates = ()
    # stripping a programmer promise is semantically free but erases the
    # very annotations the tracker tier would compare against
    equivalence = "none"

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        if all(instruction.operation.name != "annot" for instruction in circuit.data):
            return circuit
        output = circuit.copy_empty_like()
        for instruction in circuit.data:
            if instruction.operation.name == "annot":
                continue
            output.append(instruction.operation, instruction.qubits, instruction.clbits)
        return output


class RemoveBarriers(TransformationPass):
    """Strip barrier directives."""

    requires = ()
    preserves = ("size", "depth", "is_swap_mapped")
    invalidates = ()

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        if all(instruction.operation.name != "barrier" for instruction in circuit.data):
            return circuit
        output = circuit.copy_empty_like()
        for instruction in circuit.data:
            if instruction.operation.name == "barrier":
                continue
            output.append(instruction.operation, instruction.qubits, instruction.clbits)
        return output
