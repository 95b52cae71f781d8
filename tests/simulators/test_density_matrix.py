"""Tests for the exact density-matrix simulator."""

import pytest

from repro.circuit import QuantumCircuit
from repro.simulators import NoiseModel, NoisySimulator
from repro.simulators.density_matrix import DensityMatrixSimulator

from tests.helpers import clbit_distribution


class TestNoiseless:
    def test_matches_statevector_distribution(self):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.t(1)
        circuit.cx(1, 2)
        circuit.measure_all()
        exact = DensityMatrixSimulator().probabilities(circuit)
        reference = clbit_distribution(circuit)
        for key in set(exact) | set(reference):
            assert abs(exact.get(key, 0) - reference.get(key, 0)) < 1e-10

    def test_reset_channel(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.reset(0)
        circuit.measure(0, 0)
        exact = DensityMatrixSimulator().probabilities(circuit)
        assert abs(exact["0"] - 1.0) < 1e-10

    def test_rejects_wide_circuits(self):
        with pytest.raises(ValueError):
            DensityMatrixSimulator().probabilities(QuantumCircuit(13, 1))


class TestNoisy:
    def test_depolarizing_mixes(self):
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        model = NoiseModel(default_one_qubit_error=0.3)
        exact = DensityMatrixSimulator(model).probabilities(circuit)
        # depolarizing p: remaining |1> weight = 1 - 2p/3
        assert abs(exact["1"] - (1 - 0.2)) < 1e-10

    def test_readout_error_exact(self):
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        model = NoiseModel(default_readout_error=(0.0, 0.25))
        exact = DensityMatrixSimulator(model).probabilities(circuit)
        assert abs(exact["0"] - 0.25) < 1e-10
        assert abs(exact["1"] - 0.75) < 1e-10

    def test_validates_monte_carlo_sampler(self):
        """The trajectory sampler must converge to the exact distribution."""
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        circuit.measure_all()
        model = NoiseModel.uniform(one_qubit=5e-3, two_qubit=4e-2, readout=2e-2)
        exact = DensityMatrixSimulator(model).probabilities(circuit)
        sampled = NoisySimulator(model, seed=11).run(circuit, shots=6000)
        total = sampled.shots
        for key, probability in exact.items():
            observed = sampled.get(key, 0) / total
            assert abs(observed - probability) < 0.03, (
                f"{key}: exact {probability:.4f} vs sampled {observed:.4f}"
            )

    def test_two_qubit_depolarizing_trace_preserved(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        model = NoiseModel(default_two_qubit_error=0.2)
        exact = DensityMatrixSimulator(model).probabilities(circuit)
        assert abs(sum(exact.values()) - 1.0) < 1e-9


class TestPauliTable:
    def test_cached_pauli_strings_are_read_only_and_shared(self):
        from repro.simulators.density_matrix import _embedded_pauli

        first = _embedded_pauli(6, (0, 2), 3)
        assert not first.flags.writeable
        assert _embedded_pauli(6, (0, 2), 3) is first
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
