"""End-to-end tests of the preset optimization levels."""

import pytest

from repro.backends import FakeMelbourne
from repro.circuit import QuantumCircuit
from repro.transpiler import CouplingMap, transpile

from tests.helpers import assert_same_distribution, random_circuit


@pytest.fixture(scope="module")
def melbourne():
    return FakeMelbourne()


class TestTranspileLevels:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_distribution_preserved(self, level):
        cmap = CouplingMap.line(4)
        circuit = random_circuit(4, 20, seed=3, measure=True)
        out = transpile(circuit, target=cmap, optimization_level=level, seed=1)
        assert_same_distribution(circuit, out)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_respects_coupling(self, level):
        cmap = CouplingMap.ring(5)
        circuit = random_circuit(5, 25, seed=4, measure=True)
        out = transpile(circuit, target=cmap, optimization_level=level, seed=2)
        for instruction in out.data:
            if len(instruction.qubits) == 2:
                assert cmap.are_coupled(*instruction.qubits)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_basis_gates_only(self, level):
        cmap = CouplingMap.line(3)
        circuit = random_circuit(3, 15, seed=5, measure=True)
        out = transpile(circuit, target=cmap, optimization_level=level, seed=0)
        assert set(out.count_ops()) <= {"u1", "u2", "u3", "id", "cx", "measure"}

    def test_level3_not_worse_than_level0(self, melbourne):
        circuit = random_circuit(5, 40, seed=6, measure=True)
        cx0 = transpile(
            circuit, target=melbourne, optimization_level=0, seed=3
        ).count_ops().get("cx", 0)
        cx3 = transpile(
            circuit, target=melbourne, optimization_level=3, seed=3
        ).count_ops().get("cx", 0)
        assert cx3 <= cx0

    def test_backend_argument(self, melbourne):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.measure_all()
        out = transpile(circuit, target=melbourne, optimization_level=3, seed=0)
        assert out.num_qubits == melbourne.num_qubits
        assert_same_distribution(circuit, out)

    def test_invalid_level(self, melbourne):
        from repro.transpiler import TranspilerError

        with pytest.raises(TranspilerError):
            transpile(QuantumCircuit(1), target=melbourne, optimization_level=9)

    def test_initial_layout(self, melbourne):
        from repro.transpiler import Layout

        circuit = QuantumCircuit(2, 2)
        circuit.cx(0, 1)
        circuit.measure_all()
        layout = Layout({0: 5, 1: 6})
        out = transpile(
            circuit,
            target=melbourne,
            optimization_level=1,
            seed=0,
            initial_layout=layout,
        )
        used = {q for inst in out.data for q in inst.qubits}
        assert used <= {5, 6}
