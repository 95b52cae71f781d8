"""Every gate definition must reproduce its matrix exactly (incl. phase)."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.instruction import ControlledGate
from repro.gates import (
    Annotation,
    Barrier,
    CCXGate,
    CCZGate,
    CHGate,
    CPhaseGate,
    CRXGate,
    CRYGate,
    CRZGate,
    CSwapGate,
    CU3Gate,
    CXGate,
    CYGate,
    CZGate,
    HGate,
    IGate,
    ISwapGate,
    MCU1Gate,
    MCXGate,
    MCXVChainGate,
    MCZGate,
    RXGate,
    RYGate,
    RZGate,
    SdgGate,
    SGate,
    SwapGate,
    SwapZGate,
    SXGate,
    TdgGate,
    TGate,
    U1Gate,
    U2Gate,
    U3Gate,
    UnitaryGate,
    XGate,
    YGate,
    ZGate,
)
from repro.linalg.random import random_unitary
from repro.simulators import circuit_unitary

GATES_WITH_DEFINITIONS = [
    XGate(),
    YGate(),
    ZGate(),
    HGate(),
    SGate(),
    SdgGate(),
    TGate(),
    TdgGate(),
    SXGate(),
    RXGate(0.37),
    RYGate(-1.2),
    RZGate(2.4),
    U2Gate(0.3, 1.1),
    CYGate(),
    CZGate(),
    CHGate(),
    CPhaseGate(0.77),
    CRXGate(1.3),
    CRYGate(-0.6),
    CRZGate(0.9),
    CU3Gate(0.5, 0.6, 0.7),
    SwapGate(),
    SwapZGate(),
    ISwapGate(),
    CCXGate(),
    CCZGate(),
    CSwapGate(),
    MCU1Gate(0.81, 2),
    MCU1Gate(-1.3, 3),
    MCXGate(3),
    MCZGate(3),
]


@pytest.mark.parametrize("gate", GATES_WITH_DEFINITIONS, ids=lambda g: f"{g.name}{g.num_qubits}")
def test_definition_matches_matrix(gate):
    definition = gate.definition
    assert definition is not None, f"{gate.name} has no definition"
    # fully unroll nested definitions through the simulator
    circuit = definition
    for _ in range(8):
        circuit = circuit.decompose()
    assert np.abs(circuit_unitary(circuit) - gate.to_matrix()).max() < 1e-8


@pytest.mark.parametrize(
    "gate",
    GATES_WITH_DEFINITIONS + [CXGate(), IGate(), U1Gate(0.4), U3Gate(0.1, 0.2, 0.3)],
    ids=lambda g: f"{g.name}{g.num_qubits}",
)
def test_inverse_is_inverse(gate):
    inverse = gate.inverse()
    product = inverse.to_matrix() @ gate.to_matrix()
    assert np.allclose(product, np.eye(2**gate.num_qubits), atol=1e-9)


class TestOpenControls:
    @pytest.mark.parametrize("ctrl_state", [0, 1, 2])
    def test_ccx_open_controls(self, ctrl_state):
        gate = CCXGate(ctrl_state=ctrl_state)
        circuit = gate.definition
        for _ in range(6):
            circuit = circuit.decompose()
        assert np.abs(circuit_unitary(circuit) - gate.to_matrix()).max() < 1e-8

    def test_open_control_matrix(self):
        gate = CXGate(ctrl_state=0)
        # fires when control (bit 0) is |0>
        m = gate.to_matrix()
        assert m[2, 0] == 1 and m[0, 2] == 1  # |00> <-> |10> (target flips)
        assert m[1, 1] == 1 and m[3, 3] == 1

    def test_generic_control_method(self):
        controlled = XGate().control(2)
        assert isinstance(controlled, ControlledGate)
        assert np.allclose(controlled.to_matrix(), CCXGate().to_matrix())


class TestVChain:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_acts_as_mcx_on_clean_ancillas(self, k):
        from repro.circuit import QuantumCircuit
        from repro.simulators import simulate_statevector

        gate = MCXVChainGate(k)
        n = gate.num_qubits
        for pattern in [0, 1, (1 << k) - 1, (1 << k) - 2]:
            circuit = QuantumCircuit(n)
            for i in range(k):
                if (pattern >> i) & 1:
                    circuit.x(i)
            circuit.append(gate, tuple(range(n)))
            state = simulate_statevector(circuit)
            outcome = int(np.argmax(np.abs(state)))
            assert abs(abs(state[outcome]) - 1) < 1e-9
            target_flipped = (outcome >> (n - 1)) & 1
            ancilla_bits = (outcome >> k) & ((1 << gate.num_ancillas) - 1)
            assert target_flipped == (1 if pattern == (1 << k) - 1 else 0)
            assert ancilla_bits == 0  # ancillas return clean

    def test_linear_toffoli_cost(self):
        gate = MCXVChainGate(6)
        defn = gate.definition
        assert defn.count_ops()["ccx"] == 2 * (6 - 2) + 1


class TestDirectives:
    def test_barrier_is_directive(self):
        assert Barrier(3).is_directive

    def test_annotation_is_directive(self):
        annotation = Annotation(0.0, 0.0)
        assert annotation.is_directive
        assert annotation.is_zero_state()
        assert not Annotation(1.0, 0.0).is_zero_state()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["theta", "phi"])
    def test_annotation_rejects_non_finite_angles(self, name, bad):
        angles = {"theta": 0.5, "phi": 0.25, name: bad}
        with pytest.raises(ValueError, match=f"annotation {name} must be finite"):
            Annotation(**angles)

    def test_annotate_rejects_infinite_theta_and_leaves_the_circuit(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError, match="theta must be finite, got inf"):
            circuit.annotate(1, float("inf"), 0.0)
        assert len(circuit.data) == 0

    def test_annotation_accepts_finite_angles(self):
        annotation = Annotation(1e300, -7 * np.pi)
        assert (annotation.theta, annotation.phi) == (1e300, -7 * np.pi)


class TestUnitaryGate:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryGate(np.ones((2, 2)))

    def test_one_qubit_definition(self):
        u = random_unitary(2, 8)
        gate = UnitaryGate(u)
        assert np.abs(gate.definition.to_matrix() - u).max() < 1e-8

    def test_two_qubit_definition(self):
        u = random_unitary(4, 9)
        gate = UnitaryGate(u)
        assert np.abs(gate.definition.to_matrix() - u).max() < 1e-7
