"""Layout selection and application.

``TrivialLayout`` maps virtual qubit ``i`` to physical qubit ``i``;
``DenseLayout`` greedily picks a well-connected (and, when calibration data
is available, low-error) connected subgraph -- this models the noise-aware
layout selection of optimization levels 2 and 3 (paper Sec. II-B).
``ApplyLayout`` widens the circuit to the full device and permutes wires.
"""

from __future__ import annotations

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import AnalysisPass, PropertySet, TransformationPass

__all__ = ["TrivialLayout", "DenseLayout", "ApplyLayout", "SetLayout"]


class SetLayout(AnalysisPass):
    """Install a user-provided layout."""

    def __init__(self, layout: Layout):
        self.layout = layout

    def analyze(self, circuit: QuantumCircuit, property_set: PropertySet) -> None:
        property_set["layout"] = self.layout.copy()


class TrivialLayout(AnalysisPass):
    """Identity virtual-to-physical mapping."""

    def __init__(self, coupling: CouplingMap):
        self.coupling = coupling

    def analyze(self, circuit: QuantumCircuit, property_set: PropertySet) -> None:
        if circuit.num_qubits > self.coupling.num_qubits:
            raise TranspilerError(
                f"circuit needs {circuit.num_qubits} qubits but device has "
                f"{self.coupling.num_qubits}"
            )
        property_set["layout"] = Layout.trivial(circuit.num_qubits)


class DenseLayout(AnalysisPass):
    """Pick a connected, densely coupled, low-error physical subset.

    Greedy growth: seed with the best edge (lowest CX error when calibration
    data is present, otherwise the highest-degree edge), then repeatedly add
    the neighboring physical qubit with the most connections into the chosen
    set, breaking ties on error rates.
    """

    def __init__(self, coupling: CouplingMap, backend_properties=None):
        self.coupling = coupling
        self.properties = backend_properties

    def _edge_cost(self, edge: tuple[int, int]) -> float:
        if self.properties is None:
            return 0.0
        return self.properties.two_qubit_error.get(
            tuple(sorted(edge)), self.properties.default_two_qubit_error
        )

    def _qubit_cost(self, qubit: int) -> float:
        if self.properties is None:
            return 0.0
        readout = self.properties.readout_error.get(
            qubit, self.properties.default_readout_error
        )
        return (readout[0] + readout[1]) / 2

    def analyze(self, circuit: QuantumCircuit, property_set: PropertySet) -> None:
        needed = circuit.num_qubits
        if needed > self.coupling.num_qubits:
            raise TranspilerError(
                f"circuit needs {needed} qubits but device has "
                f"{self.coupling.num_qubits}"
            )
        if needed == 0:
            property_set["layout"] = Layout()
            return
        edges = self.coupling.edges
        if not edges or needed == 1:
            best = min(range(self.coupling.num_qubits), key=self._qubit_cost)
            property_set["layout"] = Layout({0: best})
            return
        seed = min(
            edges,
            key=lambda e: (
                self._edge_cost(e),
                -(self.coupling.degree(e[0]) + self.coupling.degree(e[1])),
                e,
            ),
        )
        chosen = [seed[0], seed[1]]
        chosen_set = set(chosen)
        while len(chosen) < needed:
            candidates = set()
            for qubit in chosen_set:
                candidates.update(self.coupling.neighbors(qubit))
            candidates -= chosen_set
            if not candidates:
                raise TranspilerError("device connectivity exhausted during layout")
            best = min(
                candidates,
                key=lambda q: (
                    -sum(1 for n in self.coupling.neighbors(q) if n in chosen_set),
                    min(
                        self._edge_cost((q, n))
                        for n in self.coupling.neighbors(q)
                        if n in chosen_set
                    ),
                    self._qubit_cost(q),
                    q,
                ),
            )
            chosen.append(best)
            chosen_set.add(best)
        property_set["layout"] = Layout({v: p for v, p in enumerate(chosen)})


class ApplyLayout(TransformationPass):
    """Widen the circuit to device size and permute wires per the layout."""

    # output equals input embedded into the device per the layout property
    equivalence = "layout"

    def __init__(self, coupling: CouplingMap):
        self.coupling = coupling

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        layout: Layout | None = property_set.get("layout")
        if layout is None:
            raise TranspilerError("ApplyLayout requires a layout in the property set")
        output = QuantumCircuit(
            self.coupling.num_qubits, circuit.num_clbits, name=circuit.name
        )
        output.global_phase = circuit.global_phase
        for instruction in circuit.data:
            mapped = tuple(layout.physical(q) for q in instruction.qubits)
            output.append(instruction.operation, mapped, instruction.clbits)
        property_set["original_num_qubits"] = circuit.num_qubits
        return output
