"""Analysis passes: size/depth metrics, fixed-point detection, map checks."""

from __future__ import annotations

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.passmanager import AnalysisPass, PropertySet

__all__ = ["Size", "Depth", "CountOps", "FixedPoint", "CheckMap"]


class Size(AnalysisPass):
    """Record the operation count under ``property_set['size']``."""

    def analyze(self, circuit: QuantumCircuit, property_set: PropertySet) -> None:
        property_set["size"] = circuit.size()


class Depth(AnalysisPass):
    """Record the circuit depth under ``property_set['depth']``."""

    def analyze(self, circuit: QuantumCircuit, property_set: PropertySet) -> None:
        property_set["depth"] = circuit.depth()


class CountOps(AnalysisPass):
    """Record per-gate counts under ``property_set['count_ops']``."""

    def analyze(self, circuit: QuantumCircuit, property_set: PropertySet) -> None:
        property_set["count_ops"] = circuit.count_ops()


class FixedPoint(AnalysisPass):
    """Detect when a tracked property stops changing.

    Sets ``property_set[f"{key}_fixed_point"]`` -- the loop condition of the
    level-3 optimization loop (paper Fig. 8 line 9).
    """

    def __init__(self, key: str):
        self.key = key

    @property
    def name(self) -> str:
        return f"FixedPoint({self.key})"

    def analyze(self, circuit: QuantumCircuit, property_set: PropertySet) -> None:
        current = property_set.get(self.key)
        previous = property_set.get(f"_{self.key}_previous")
        property_set[f"{self.key}_fixed_point"] = (
            previous is not None and current == previous
        )
        property_set[f"_{self.key}_previous"] = current


class CheckMap(AnalysisPass):
    """Verify every two-qubit gate respects the coupling map."""

    def __init__(self, coupling: CouplingMap):
        self.coupling = coupling

    def analyze(self, circuit: QuantumCircuit, property_set: PropertySet) -> None:
        mapped = True
        for instruction in circuit.data:
            if instruction.operation.is_directive:
                continue
            if len(instruction.qubits) == 2 and not self.coupling.are_coupled(
                *instruction.qubits
            ):
                mapped = False
                break
            if len(instruction.qubits) > 2:
                mapped = False
                break
        property_set["is_swap_mapped"] = mapped
