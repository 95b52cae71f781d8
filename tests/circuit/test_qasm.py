"""Round-trip tests for the OpenQASM 2.0 serializer."""

import math

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.qasm import from_qasm, to_qasm
from repro.simulators import circuit_unitary

from tests.helpers import assert_same_distribution, random_circuit


def roundtrip(circuit):
    return from_qasm(to_qasm(circuit))


class TestExport:
    def test_header(self):
        text = to_qasm(QuantumCircuit(2))
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[2];" in text

    def test_simple_gates(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        text = to_qasm(circuit)
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text
        assert "measure q[0] -> c[0];" in text

    def test_pi_formatting(self):
        circuit = QuantumCircuit(1)
        circuit.rz(math.pi / 2, 0)
        circuit.u3(math.pi, 0.0, math.pi, 0)
        text = to_qasm(circuit)
        assert "rz(pi/2)" in text
        assert "u3(pi,0,pi)" in text

    def test_swapz_gets_definition(self):
        circuit = QuantumCircuit(2)
        circuit.swapz(0, 1)
        text = to_qasm(circuit)
        assert "gate swapz a,b { cx b,a; cx a,b; }" in text
        assert "swapz q[0],q[1];" in text

    def test_annotation_as_comment(self):
        circuit = QuantumCircuit(1)
        circuit.annotate_zero(0)
        assert "// ANNOT(0,0) q[0]" in to_qasm(circuit)

    def test_unsupported_gate_raises(self):
        from repro.gates import UnitaryGate
        from repro.linalg.random import random_unitary

        circuit = QuantumCircuit(1)
        circuit.append(UnitaryGate(random_unitary(2, 0)), (0,))
        with pytest.raises(ValueError):
            to_qasm(circuit)


class TestRoundTrip:
    def test_unitary_preserved(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.t(1)
        circuit.cx(0, 1)
        circuit.rz(0.37, 2)
        circuit.ccx(0, 1, 2)
        circuit.swap(0, 2)
        circuit.swapz(1, 2)
        circuit.cp(1.25, 0, 2)
        rebuilt = roundtrip(circuit)
        assert np.abs(circuit_unitary(rebuilt) - circuit_unitary(circuit)).max() < 1e-9

    def test_measured_circuit_distribution(self):
        circuit = random_circuit(3, 15, seed=4, gate_set="simple", measure=True)
        rebuilt = roundtrip(circuit)
        assert_same_distribution(circuit, rebuilt)

    def test_annotations_survive(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.annotate(1, 0.5, -0.25)
        rebuilt = roundtrip(circuit)
        annots = [i for i in rebuilt.data if i.operation.name == "annot"]
        assert len(annots) == 1
        assert abs(annots[0].operation.params[0] - 0.5) < 1e-12

    def test_transpiled_output_roundtrips(self):
        from repro.backends import FakeMelbourne
        from repro.rpo import rpo_pass_manager
        from repro.transpiler.passmanager import PropertySet
        from repro.circuit import remove_idle_qubits

        backend = FakeMelbourne()
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.measure_all()
        pm = rpo_pass_manager(backend, seed=0)
        compiled, _ = remove_idle_qubits(pm.run(circuit, PropertySet()))
        rebuilt = roundtrip(compiled)
        assert_same_distribution(compiled, rebuilt)

    def test_barrier_and_reset(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.barrier(0, 1)
        circuit.reset(0)
        circuit.measure(1, 0)
        rebuilt = roundtrip(circuit)
        names = [inst.operation.name for inst in rebuilt.data]
        assert names == ["h", "barrier", "reset", "measure"]


class TestParserErrors:
    def test_garbage_line(self):
        with pytest.raises(ValueError):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];')

    def test_malformed_angle(self):
        with pytest.raises(ValueError):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\nrz(import_os) q[0];')
