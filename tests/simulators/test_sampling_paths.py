"""StatevectorSimulator: sampling fast path vs per-shot trajectories.

The simulator samples terminal-measurement circuits from the final
distribution in one pass and falls back to full collapsing trajectories
when it sees mid-circuit measurement.  These tests pin down the detection
logic, collapse correctness, and the agreement of the two paths.
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.simulators import StatevectorSimulator


def _ghz(num_qubits: int) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, num_qubits)
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.measure_all()
    return circuit


class TestTerminalDetection:
    def detect(self, circuit):
        return StatevectorSimulator._measurements_are_terminal(circuit)

    def test_terminal_measurements(self):
        assert self.detect(_ghz(3))

    def test_gate_after_measure_is_mid_circuit(self):
        circuit = QuantumCircuit(1, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(0)
        assert not self.detect(circuit)

    def test_barrier_after_measure_stays_terminal(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.barrier()
        circuit.measure(1, 1)
        assert self.detect(circuit)

    def test_gate_on_other_qubit_stays_terminal(self):
        circuit = QuantumCircuit(2, 2)
        circuit.measure(0, 0)
        circuit.x(1)
        circuit.measure(1, 1)
        assert self.detect(circuit)

    def test_remeasure_stays_terminal(self):
        # re-measuring the same qubit is safe for the one-pass sampler: both
        # clbits receive the same sampled outcome, which is exactly what a
        # collapsing trajectory would produce
        circuit = QuantumCircuit(1, 2)
        circuit.measure(0, 0)
        circuit.measure(0, 1)
        assert self.detect(circuit)


class TestCollapseCorrectness:
    def test_mid_circuit_collapse_correlates_outcomes(self):
        # h; measure; x; measure -- the second bit is always the complement
        circuit = QuantumCircuit(1, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(0)
        circuit.measure(0, 1)
        counts = StatevectorSimulator(seed=7).run(circuit, shots=600)
        assert set(counts) <= {"10", "01"}
        assert sum(counts.values()) == 600
        # both branches appear with roughly equal frequency
        assert min(counts.values()) > 200

    def test_mid_circuit_collapse_is_sticky(self):
        # measuring twice without an intervening gate must agree
        circuit = QuantumCircuit(1, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.measure(0, 1)
        counts = StatevectorSimulator(seed=3).run(circuit, shots=400)
        assert set(counts) <= {"00", "11"}

    def test_collapse_renormalizes(self):
        # biased state: p(1) = sin^2(0.4/2); conditioned branches stay valid
        circuit = QuantumCircuit(2, 2)
        circuit.ry(0.4, 0)
        circuit.measure(0, 0)
        circuit.cx(0, 1)
        circuit.measure(1, 1)
        counts = StatevectorSimulator(seed=11).run(circuit, shots=800)
        assert set(counts) <= {"00", "11"}
        p_one = np.sin(0.2) ** 2
        assert counts.get("11", 0) / 800 == pytest.approx(p_one, abs=0.04)


class TestPathAgreement:
    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_fast_path_and_trajectories_agree(self, num_qubits, monkeypatch):
        circuit = _ghz(num_qubits)
        shots = 3000

        fast = StatevectorSimulator(seed=5).run(circuit, shots=shots)

        monkeypatch.setattr(
            StatevectorSimulator,
            "_measurements_are_terminal",
            staticmethod(lambda _circuit: False),
        )
        slow = StatevectorSimulator(seed=5).run(circuit, shots=shots)

        zeros, ones = "0" * num_qubits, "1" * num_qubits
        for counts in (fast, slow):
            assert set(counts) == {zeros, ones}
        for key in (zeros, ones):
            assert fast[key] / shots == pytest.approx(0.5, abs=0.05)
            assert slow[key] / shots == pytest.approx(0.5, abs=0.05)

    def test_fast_path_used_for_terminal_circuit(self, monkeypatch):
        """The one-pass sampler must not collapse state shot by shot."""
        calls = {"n": 0}
        original = StatevectorSimulator._measure

        def counting_measure(self, state, qubit, num_qubits):
            calls["n"] += 1
            return original(self, state, qubit, num_qubits)

        monkeypatch.setattr(StatevectorSimulator, "_measure", counting_measure)
        StatevectorSimulator(seed=1).run(_ghz(2), shots=50)
        assert calls["n"] == 0

    def test_trajectory_path_collapses_per_shot(self, monkeypatch):
        calls = {"n": 0}
        original = StatevectorSimulator._measure

        def counting_measure(self, state, qubit, num_qubits):
            calls["n"] += 1
            return original(self, state, qubit, num_qubits)

        monkeypatch.setattr(StatevectorSimulator, "_measure", counting_measure)
        circuit = QuantumCircuit(1, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(0)
        circuit.measure(0, 1)
        StatevectorSimulator(seed=1).run(circuit, shots=50)
        assert calls["n"] == 100  # two collapsing measurements per shot


class TestSampleFromState:
    """``sample`` is ``run``'s terminal path on a state the caller holds."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sample_matches_run(self, seed):
        from tests.helpers import random_circuit, strip_measurements

        circuit = random_circuit(4, 24, seed=seed + 200, measure=True)
        body, measured = strip_measurements(circuit)
        state = StatevectorSimulator().statevector(body)
        sampled = StatevectorSimulator(seed=seed).sample(
            state, 300, measured, circuit.num_clbits
        )
        assert sampled == StatevectorSimulator(seed=seed).run(circuit, shots=300)
        assert sampled.num_clbits == circuit.num_clbits

    def test_sample_continues_the_rng_stream(self):
        """Successive draws continue the stream of the simulator's seed,
        exactly as successive ``run`` calls do."""
        from repro.simulators.counts import sample_counts

        circuit = _ghz(3)
        measured = [(q, q) for q in range(3)]
        state = np.zeros(8, dtype=complex)
        state[0] = state[7] = 2**-0.5
        probabilities = np.abs(state) ** 2
        probabilities = probabilities / probabilities.sum()
        sampler = StatevectorSimulator(seed=9)
        runner = StatevectorSimulator(seed=9)
        stream = np.random.default_rng(9)
        draws = []
        for _ in range(2):
            expected = sample_counts(probabilities, 64, stream, measured, 3)
            assert sampler.sample(state, 64, measured, 3) == expected
            assert runner.run(circuit, 64) == expected
            draws.append(expected)
        assert draws[0] != draws[1]

    def test_sample_maps_qubits_to_clbits(self):
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0  # qubit 0 is |1>, qubit 1 is |0>
        counts = StatevectorSimulator(seed=0).sample(state, 10, [(0, 2), (1, 0)], 3)
        assert counts == {"100": 10}


def _force_trajectories(monkeypatch):
    monkeypatch.setattr(
        StatevectorSimulator,
        "_measurements_are_terminal",
        staticmethod(lambda _circuit: False),
    )


class TestRepeatedClbits:
    """Two measurements into one clbit: the later write wins on the terminal
    sampler, on per-shot trajectories and in the density-matrix
    distribution alike."""

    def deterministic_cases():
        overwritten = QuantumCircuit(2, 1)
        overwritten.x(0)
        overwritten.measure(0, 0)
        overwritten.measure(1, 0)
        rewritten = QuantumCircuit(2, 1)
        rewritten.x(0)
        rewritten.measure(1, 0)
        rewritten.measure(0, 0)
        mixed = QuantumCircuit(3, 2)
        mixed.x(0)
        mixed.x(2)
        mixed.measure(0, 1)
        mixed.measure(1, 1)
        mixed.measure(2, 0)
        mixed.measure(0, 0)
        return [(overwritten, "0"), (rewritten, "1"), (mixed, "01")]

    @pytest.mark.parametrize(
        "circuit, key", deterministic_cases(), ids=["1-then-0", "0-then-1", "mixed"]
    )
    def test_all_three_paths_keep_the_last_write(self, circuit, key, monkeypatch):
        from repro.simulators.density_matrix import DensityMatrixSimulator

        assert StatevectorSimulator._measurements_are_terminal(circuit)
        exact = DensityMatrixSimulator().probabilities(circuit)
        assert {k: p for k, p in exact.items() if p} == {key: 1.0}
        assert StatevectorSimulator(seed=3).run(circuit, shots=10) == {key: 10}
        _force_trajectories(monkeypatch)
        assert StatevectorSimulator(seed=3).run(circuit, shots=10) == {key: 10}

    def test_entangled_overwrite_agrees_across_paths(self, monkeypatch):
        from repro.simulators.density_matrix import DensityMatrixSimulator

        from tests.helpers import clbit_distribution

        circuit = QuantumCircuit(3, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.x(1)
        circuit.ry(0.7, 2)
        circuit.measure(0, 0)
        circuit.measure(2, 1)
        circuit.measure(1, 0)
        exact = DensityMatrixSimulator().probabilities(circuit)
        exact = {key: p for key, p in exact.items() if p > 1e-15}
        assert set(exact) == set(clbit_distribution(circuit))
        for key, probability in clbit_distribution(circuit).items():
            assert exact[key] == pytest.approx(probability, abs=1e-12)
        shots = 4000
        fast = StatevectorSimulator(seed=9).run(circuit, shots=shots)
        _force_trajectories(monkeypatch)
        slow = StatevectorSimulator(seed=9).run(circuit, shots=shots)
        for counts in (fast, slow):
            assert set(counts) <= set(exact)
            for key, probability in exact.items():
                assert counts.get(key, 0) / shots == pytest.approx(probability, abs=0.04)

    def test_readout_error_on_an_overwritten_clbit(self):
        from repro.simulators.density_matrix import DensityMatrixSimulator
        from repro.simulators.noise import NoiseModel

        circuit = QuantumCircuit(2, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        circuit.measure(1, 0)
        model = NoiseModel(default_readout_error=(0.1, 0.25))
        distribution = DensityMatrixSimulator(model).probabilities(circuit)
        # only qubit 1's readout of |0> decides the clbit
        assert distribution["0"] == pytest.approx(0.9, abs=1e-12)
        assert distribution["1"] == pytest.approx(0.1, abs=1e-12)
