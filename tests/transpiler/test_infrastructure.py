"""Tests for CouplingMap, Layout, PassManager, layout passes and routing."""

import pytest

import repro.transpiler.passes.routing as routing
from repro.circuit import QuantumCircuit
from repro.transpiler import CouplingMap, Layout, PassManager, TranspilerError
from repro.transpiler.passmanager import (
    AnalysisPass,
    DoWhileController,
    PropertySet,
    TransformationPass,
)
from repro.transpiler.passes import (
    ApplyLayout,
    CheckMap,
    DenseLayout,
    StochasticSwap,
    TrivialLayout,
    Unroller,
)

from tests.helpers import assert_same_distribution, random_circuit


class TestCouplingMap:
    def test_line(self):
        cmap = CouplingMap.line(4)
        assert cmap.num_qubits == 4
        assert cmap.are_coupled(1, 2)
        assert not cmap.are_coupled(0, 3)

    def test_distance(self):
        cmap = CouplingMap.line(5)
        assert cmap.distance(0, 4) == 4
        assert cmap.distance(2, 2) == 0

    def test_ring_distance(self):
        cmap = CouplingMap.ring(6)
        assert cmap.distance(0, 3) == 3
        assert cmap.distance(0, 5) == 1

    def test_grid(self):
        cmap = CouplingMap.grid(2, 3)
        assert cmap.num_qubits == 6
        assert cmap.are_coupled(0, 3)
        assert cmap.distance(0, 5) == 3

    def test_full(self):
        cmap = CouplingMap.full(4)
        assert all(cmap.distance(a, b) <= 1 for a in range(4) for b in range(4))

    def test_neighbors_sorted(self):
        cmap = CouplingMap([(0, 2), (0, 1)])
        assert cmap.neighbors(0) == [1, 2]

    def test_rejects_self_loop(self):
        with pytest.raises(TranspilerError):
            CouplingMap([(1, 1)])

    def test_routing_tables_are_built_once(self):
        cmap = CouplingMap([(0, 1), (1, 2), (3, 4)], 5)
        distance, neighbors, coupled = tables = cmap.routing_tables()
        assert cmap.routing_tables() is tables
        assert distance == cmap.distance_matrix.tolist()
        assert neighbors == ((1,), (0, 2), (1,), (4,), (3,))
        assert coupled == {(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)}
        assert distance[0][4] == float("inf")

    def test_shortest_path(self):
        cmap = CouplingMap.line(5)
        assert cmap.shortest_path(0, 3) == [0, 1, 2, 3]

    def test_distance_across_components_is_typed(self):
        cmap = CouplingMap([(0, 1), (2, 3)])
        assert cmap.distance(2, 3) == 1
        with pytest.raises(TranspilerError, match="physical qubits 1 and 2 are not connected"):
            cmap.distance(1, 2)


class TestLayout:
    def test_trivial(self):
        layout = Layout.trivial(3)
        assert layout.physical(2) == 2

    def test_swap_physical(self):
        layout = Layout({0: 5, 1: 7})
        layout.swap_physical(5, 7)
        assert layout.physical(0) == 7
        assert layout.physical(1) == 5

    def test_collision_rejected(self):
        layout = Layout({0: 1})
        with pytest.raises(TranspilerError):
            layout.add(1, 1)

    def test_roundtrip(self):
        layout = Layout({0: 3, 1: 0, 2: 2})
        for virtual in range(3):
            assert layout.virtual(layout.physical(virtual)) == virtual


class TestPassManager:
    def test_records_timing(self):
        class Noop(TransformationPass):
            def transform(self, circuit, props):
                return circuit

        pm = PassManager([Noop()])
        result = pm.run_with_result(QuantumCircuit(1))
        assert [metric.name for metric in result.metrics] == ["Noop"]
        assert [name for name, _ in result.pass_times] == ["Noop"]

    def test_do_while_runs_until_condition(self):
        class CountDown(AnalysisPass):
            def analyze(self, circuit, props):
                props["n"] = props.get("n", 3) - 1

        controller = DoWhileController(
            [CountDown()], do_while=lambda ps: ps["n"] > 0
        )
        pm = PassManager([controller])
        result = pm.run_with_result(QuantumCircuit(1))
        assert result.properties["n"] == 0

    def test_do_while_respects_max_iterations(self):
        class Forever(AnalysisPass):
            def analyze(self, circuit, props):
                props["count"] = props.get("count", 0) + 1

        controller = DoWhileController(
            [Forever()], do_while=lambda ps: True, max_iterations=4
        )
        pm = PassManager([controller])
        result = pm.run_with_result(QuantumCircuit(1))
        assert result.properties["count"] == 4


class TestLayoutPasses:
    def test_trivial_layout(self):
        props = PropertySet()
        TrivialLayout(CouplingMap.line(4)).run(QuantumCircuit(3), props)
        assert props["layout"].physical(2) == 2

    def test_trivial_rejects_oversize(self):
        with pytest.raises(TranspilerError):
            TrivialLayout(CouplingMap.line(2)).run(QuantumCircuit(3), PropertySet())

    def test_dense_layout_connected(self):
        cmap = CouplingMap.line(8)
        props = PropertySet()
        DenseLayout(cmap).run(QuantumCircuit(4), props)
        chosen = sorted(props["layout"].virtual_to_physical.values())
        # a connected run of the line
        assert chosen == list(range(chosen[0], chosen[0] + 4))

    def test_dense_layout_prefers_low_error(self):
        from repro.backends import FakeMelbourne

        backend = FakeMelbourne()
        props = PropertySet()
        DenseLayout(backend.coupling_map, backend.properties).run(
            QuantumCircuit(2), props
        )
        chosen = tuple(sorted(props["layout"].virtual_to_physical.values()))
        best_edge = min(
            backend.properties.two_qubit_error,
            key=backend.properties.two_qubit_error.get,
        )
        assert chosen == tuple(sorted(best_edge))

    def test_apply_layout_widens(self):
        cmap = CouplingMap.line(5)
        circuit = QuantumCircuit(2, 2)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        props = PropertySet()
        props["layout"] = Layout({0: 3, 1: 4})
        out = ApplyLayout(cmap).run(circuit, props)
        assert out.num_qubits == 5
        assert out.data[0].qubits == (3, 4)
        assert out.data[1].qubits == (3,)


class TestRouting:
    def _route(self, circuit, cmap, seed=0, trials=4):
        props = PropertySet()
        props["layout"] = Layout.trivial(circuit.num_qubits)
        widened = ApplyLayout(cmap).run(circuit, props)
        return StochasticSwap(cmap, trials=trials, seed=seed).run(widened, props), props

    def test_all_gates_coupled_after_routing(self):
        cmap = CouplingMap.line(5)
        circuit = random_circuit(5, 30, seed=0, gate_set="simple")
        unrolled = Unroller().run(circuit, PropertySet())
        routed, props = self._route(unrolled, cmap)
        check = PropertySet()
        CheckMap(cmap).run(routed, check)
        assert check["is_swap_mapped"]

    def test_preserves_distribution(self):
        cmap = CouplingMap.line(4)
        circuit = random_circuit(4, 25, seed=1, gate_set="simple", measure=True)
        unrolled = Unroller().run(circuit, PropertySet())
        routed, _ = self._route(unrolled, cmap)
        assert_same_distribution(circuit, routed)

    def test_rejects_wide_gates(self):
        cmap = CouplingMap.line(3)
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(TranspilerError):
            self._route(circuit, cmap)

    @pytest.mark.parametrize("wide_first", [False, True])
    def test_rejects_wide_gates_wherever_they_sit(self, wide_first):
        # an uncoupled cx used to end the pre-scan before it reached the ccx
        cmap = CouplingMap.line(4)
        circuit = QuantumCircuit(4)
        if wide_first:
            circuit.ccx(0, 1, 3)
        circuit.cx(0, 3)
        if not wide_first:
            circuit.ccx(0, 1, 3)
        with pytest.raises(TranspilerError, match="cannot route 3-qubit gate 'ccx'"):
            StochasticSwap(cmap, trials=2).run(circuit, PropertySet())

    def test_wide_directive_is_routed(self):
        cmap = CouplingMap.line(4)
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3)
        circuit.barrier(0, 1, 3)
        props = PropertySet()
        routed = StochasticSwap(cmap, trials=2).run(circuit, props)
        assert routed.data[-1].operation.name == "barrier"
        assert routed.data[-1].qubits == tuple(props["final_permutation"][q] for q in (0, 1, 3))

    def test_disconnected_map_raises_before_swapping(self, monkeypatch):
        cmap = CouplingMap([(0, 1), (1, 2), (3, 4)], 5)
        circuit = QuantumCircuit(5)
        circuit.cx(0, 2)
        circuit.cz(1, 4)
        chosen = []
        monkeypatch.setattr(routing, "_best_swaps", lambda *args: chosen.append(args))
        with pytest.raises(TranspilerError, match="'cz' on physical qubits 1 and 4"):
            StochasticSwap(cmap, trials=3).run(circuit, PropertySet())
        assert chosen == []

    def test_disconnected_map_routes_within_components(self):
        cmap = CouplingMap([(0, 1), (1, 2), (3, 4)], 5)
        circuit = QuantumCircuit(5)
        circuit.cx(0, 2)
        circuit.cx(3, 4)
        props = PropertySet()
        routed = StochasticSwap(cmap, trials=3).run(circuit, props)
        assert props["routing_swaps"] == 1
        check = PropertySet()
        CheckMap(cmap).run(routed, check)
        assert check["is_swap_mapped"]

    def test_no_swaps_when_already_mapped(self):
        cmap = CouplingMap.line(3)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        routed, props = self._route(circuit, cmap)
        assert routed.count_ops().get("swap", 0) == 0

    def test_seeded_determinism(self):
        cmap = CouplingMap.line(5)
        circuit = random_circuit(5, 30, seed=2, gate_set="simple")
        unrolled = Unroller().run(circuit, PropertySet())
        a, _ = self._route(unrolled, cmap, seed=7)
        b, _ = self._route(unrolled, cmap, seed=7)
        assert [i.operation.name for i in a.data] == [i.operation.name for i in b.data]
        assert [i.qubits for i in a.data] == [i.qubits for i in b.data]
