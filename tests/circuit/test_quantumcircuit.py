"""Tests for the QuantumCircuit builder."""

import math

import numpy as np
import pytest

from repro.circuit import ClassicalRegister, QuantumCircuit, QuantumRegister
from repro.circuit.instruction import Instruction
from repro.circuit.quantumcircuit import CircuitInstruction
from repro.gates import Barrier, CCXGate, CXGate, MCXGate, Measure, XGate


class TestConstruction:
    def test_integer_wires(self):
        circuit = QuantumCircuit(3, 2)
        assert circuit.num_qubits == 3
        assert circuit.num_clbits == 2

    def test_registers(self):
        qr = QuantumRegister(2, "q")
        ar = QuantumRegister(3, "a")
        cr = ClassicalRegister(2, "c")
        circuit = QuantumCircuit(qr, ar, cr)
        assert circuit.num_qubits == 5
        assert circuit.num_clbits == 2
        assert list(qr) == [0, 1]
        assert list(ar) == [2, 3, 4]
        assert ar[1] == 3

    def test_register_rebind_fails(self):
        qr = QuantumRegister(2, "q")
        QuantumCircuit(qr)
        with pytest.raises(ValueError):
            QuantumCircuit(qr)

    def test_mixed_args_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2, QuantumRegister(2))


class TestAppend:
    def test_out_of_range(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(IndexError):
            circuit.x(5)

    def test_duplicate_qubits(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.cx(1, 1)

    def test_arity_mismatch(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.append(CXGate(), (0,))

    def test_builder_returns_self(self):
        circuit = QuantumCircuit(1)
        assert circuit.x(0) is circuit

    #: (operation, qubits, clbits, exception type, message), on a circuit
    #: with 3 qubits and 2 clbits; the first failing check must raise
    FAILURES = [
        (XGate, (3,), (), IndexError, "qubit 3 out of range (0..2)"),
        (XGate, (-1,), (), IndexError, "qubit -1 out of range (0..2)"),
        (CXGate, (0, 5), (), IndexError, "qubit 5 out of range (0..2)"),
        (CXGate, (7, 5), (), IndexError, "qubit 7 out of range (0..2)"),
        (CXGate, (-2, 1), (), IndexError, "qubit -2 out of range (0..2)"),
        (CCXGate, (0, 1, 3), (), IndexError, "qubit 3 out of range (0..2)"),
        (CXGate, (1, 1), (), ValueError, "duplicate qubit arguments (1, 1)"),
        (CCXGate, (0, 2, 0), (), ValueError, "duplicate qubit arguments (0, 2, 0)"),
        (CCXGate, (1, 1, 4), (), IndexError, "qubit 4 out of range (0..2)"),
        (Measure, (0,), (2,), IndexError, "clbit 2 out of range (0..1)"),
        (Measure, (0,), (-1,), IndexError, "clbit -1 out of range (0..1)"),
        (Measure, (5,), (5,), IndexError, "qubit 5 out of range (0..2)"),
        (CXGate, (0,), (), ValueError, "cx expects 2 qubits, got 1"),
        (XGate, (0, 1), (), ValueError, "x expects 1 qubits, got 2"),
        (CXGate, (9,), (), ValueError, "cx expects 2 qubits, got 1"),
        (Measure, (0,), (), ValueError, "measure expects 1 clbits, got 0"),
        (Measure, (0, 1), (), ValueError, "measure expects 1 qubits, got 2"),
        (XGate, (0,), (0,), ValueError, "x expects 0 clbits, got 1"),
        (XGate, ("a",), (), ValueError, "invalid literal for int() with base 10: 'a'"),
        (CXGate, ("a",), (), ValueError, "invalid literal for int() with base 10: 'a'"),
        (Measure, (9,), ("c",), ValueError, "invalid literal for int() with base 10: 'c'"),
    ]

    @pytest.mark.parametrize("gate, qubits, clbits, error, message", FAILURES)
    def test_failure_type_and_message(self, gate, qubits, clbits, error, message):
        circuit = QuantumCircuit(3, 2)
        with pytest.raises(error) as caught:
            circuit.append(gate(), qubits, clbits)
        assert type(caught.value) is error
        assert str(caught.value) == message
        assert circuit.data == []

    def test_none_qubit_is_a_type_error(self):
        with pytest.raises(TypeError):
            QuantumCircuit(2).append(XGate(), (None,))

    def test_empty_circuit_ranges(self):
        with pytest.raises(IndexError, match=r"^qubit 0 out of range \(0\.\.-1\)$"):
            QuantumCircuit(0).append(XGate(), (0,))
        with pytest.raises(IndexError, match=r"^clbit 0 out of range \(0\.\.-1\)$"):
            QuantumCircuit(1).append(Measure(), (0,), (0,))

    @pytest.mark.parametrize(
        "qubits",
        [
            (0, 2),
            [0, 2],
            np.array([0, 2]),
            [np.int64(0), np.int32(2)],
            (q for q in (0, 2)),
            range(0, 3, 2),
        ],
        ids=["tuple", "list", "ndarray", "numpy-ints", "generator", "range"],
    )
    def test_wire_coercion(self, qubits):
        circuit = QuantumCircuit(3, 2)
        gate = CXGate()
        measure = Measure()
        circuit.append(gate, qubits)
        circuit.append(measure, [np.int64(1)], np.array([1]))
        assert circuit.data == [
            CircuitInstruction(gate, (0, 2), ()),
            CircuitInstruction(measure, (1,), (1,)),
        ]
        for instruction in circuit.data:
            assert type(instruction) is CircuitInstruction
            assert instruction.operation is instruction[0]
            assert all(type(w) is int for w in instruction.qubits + instruction.clbits)

    def test_zero_and_wide_operations(self):
        circuit = QuantumCircuit(4, 1)
        marker = Instruction("marker", 0, 0)
        circuit.append(marker, ())
        circuit.append(CCXGate(), (3, 0, 1))
        circuit.append(MCXGate(3), [2, 1, 0, 3])
        circuit.append(Barrier(4), range(4))
        circuit.append(Instruction("tick", 0, 1), (), (0,))
        assert [(i.operation.name, i.qubits, i.clbits) for i in circuit.data] == [
            ("marker", (), ()),
            ("ccx", (3, 0, 1), ()),
            ("mcx", (2, 1, 0, 3), ()),
            ("barrier", (0, 1, 2, 3), ()),
            ("tick", (), (0,)),
        ]


class TestMetrics:
    def test_depth_parallel_gates(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.h(1)
        assert circuit.depth() == 1

    def test_depth_serial_chain(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.h(1)
        assert circuit.depth() == 3

    def test_barrier_not_counted(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.h(0)
        assert circuit.depth() == 2
        assert circuit.size() == 2

    def test_count_ops(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        assert circuit.count_ops() == {"cx": 2, "h": 1}

    def test_num_nonlocal(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.ccx(0, 1, 2)
        assert circuit.num_nonlocal_gates() == 2


class TestTransforms:
    def test_inverse_undoes(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.t(1)
        circuit.cx(0, 1)
        circuit.rx(0.7, 0)
        combined = circuit.compose(circuit.inverse())
        assert np.allclose(combined.to_matrix(), np.eye(4), atol=1e-9)

    def test_compose_remaps(self):
        inner = QuantumCircuit(2)
        inner.cx(0, 1)
        outer = QuantumCircuit(3).compose(inner, qubits=[2, 0])
        instruction = outer.data[0]
        assert instruction.qubits == (2, 0)

    def test_decompose_expands_one_level(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        expanded = circuit.decompose()
        assert expanded.count_ops() == {"cx": 3}

    def test_decompose_preserves_matrix(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        circuit.swap(0, 2)
        assert np.allclose(
            circuit.decompose().to_matrix(), circuit.to_matrix(), atol=1e-9
        )

    def test_global_phase_in_matrix(self):
        circuit = QuantumCircuit(1, global_phase=math.pi / 2)
        assert np.allclose(circuit.to_matrix(), 1j * np.eye(2))

    def test_copy_is_shallow_data_independent(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        clone = circuit.copy()
        clone.x(0)
        assert len(circuit.data) == 1
        assert len(clone.data) == 2


class TestMeasure:
    def test_measure_all_requires_clbits(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.measure_all()

    def test_to_matrix_rejects_measure(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        with pytest.raises(ValueError):
            circuit.to_matrix()

    def test_draw_runs(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        text = circuit.draw()
        assert "q0" in text and "cx" in text
