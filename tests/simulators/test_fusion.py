"""Tests for the simulators' gate-fusion pre-step."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.simulators import (
    FusedProgram,
    StatevectorSimulator,
    circuit_unitary,
    compile_program,
)

from tests.helpers import random_circuit
from tests.simulators.per_gate_reference import reference_statevector, reference_unitary


def _unbuildable(gate):
    raise AssertionError(f"{gate.name} rebuilt its matrix")


class TestCompileProgram:
    def test_adjacent_same_pair_gates_fuse(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.t(0)
        circuit.cx(0, 1)
        circuit.h(1)
        circuit.cx(1, 0)
        program = compile_program(circuit)
        assert isinstance(program, FusedProgram)
        assert program.num_gates == 5
        # the whole circuit is one pair run -> one fused 4x4
        assert program.num_unitaries == 1
        (kind, matrix, qargs), = program.steps
        assert kind == "unitary"
        assert matrix.shape == (4, 4)
        assert qargs == (0, 1)

    def test_one_qubit_runs_fuse(self):
        circuit = QuantumCircuit(1)
        for _ in range(8):
            circuit.h(0)
            circuit.t(0)
        program = compile_program(circuit)
        assert program.num_gates == 16
        assert program.num_unitaries == 1
        assert program.steps[0][1].shape == (2, 2)

    def test_measure_and_reset_fence(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.reset(0)
        circuit.h(0)
        circuit.measure(0, 0)
        program = compile_program(circuit)
        kinds = [step[0] for step in program.steps]
        assert kinds == ["unitary", "reset", "unitary", "measure"]

    def test_directives_are_transparent(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.barrier()
        circuit.h(0)
        program = compile_program(circuit)
        # a barrier does not fence simulation, matching the serial engine
        assert program.num_unitaries == 1

    def test_three_qubit_gates_fence_and_pass_through(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.ccx(0, 1, 2)
        circuit.h(0)
        program = compile_program(circuit)
        shapes = [step[1].shape for step in program.steps]
        assert (8, 8) in shapes

    def test_empty_circuit(self):
        program = compile_program(QuantumCircuit(2))
        assert program.steps == []
        assert program.num_gates == 0


class TestFusedEvolutionParity:
    """Fused simulation against the per-gate reference (the unfused path)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_statevector_matches_unfused(self, seed):
        circuit = random_circuit(4, 30, seed=seed)
        fused = StatevectorSimulator().statevector(circuit)
        plain = reference_statevector(circuit)
        assert np.abs(fused - plain).max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_circuit_unitary_matches_unfused(self, seed):
        circuit = random_circuit(3, 20, seed=seed + 50)
        fused = circuit_unitary(circuit)
        plain = reference_unitary(circuit)
        assert np.abs(fused - plain).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_initial_state_matches_unfused(self, seed):
        circuit = random_circuit(3, 25, seed=seed + 90)
        rng = np.random.default_rng(seed)
        initial = rng.normal(size=8) + 1j * rng.normal(size=8)
        initial /= np.linalg.norm(initial)
        fused = StatevectorSimulator().statevector(circuit, initial)
        plain = reference_statevector(circuit, initial)
        assert np.abs(fused - plain).max() < 1e-12

    def test_directives_match_unfused(self):
        circuit = random_circuit(3, 12, seed=7)
        circuit.barrier()
        circuit.annotate(1, 0.0, 0.0)
        circuit = circuit.compose(random_circuit(3, 12, seed=8))
        fused = StatevectorSimulator().statevector(circuit)
        assert np.abs(fused - reference_statevector(circuit)).max() < 1e-12

    def test_global_phase_preserved(self):
        circuit = QuantumCircuit(1, global_phase=0.7)
        circuit.h(0)
        state = StatevectorSimulator().statevector(circuit)
        expected = np.exp(0.7j) * np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(state, expected, atol=1e-12)

    def test_deterministic_reset_path(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.reset(0)
        circuit.h(1)
        fused = StatevectorSimulator(seed=0).statevector(circuit)
        # x then reset leaves qubit 0 in |0>: only the h on qubit 1 remains
        expected = QuantumCircuit(2)
        expected.h(1)
        assert np.abs(fused - reference_statevector(expected)).max() < 1e-12

    def test_terminal_sampling(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        counts = StatevectorSimulator(seed=11).run(circuit, shots=4000)
        assert set(counts) <= {"00", "11"}
        assert sum(counts.values()) == 4000
        assert abs(counts.get("00", 0) / 4000 - 0.5) < 0.05

    def test_mid_circuit_trajectories(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.x(1)
        circuit.cx(0, 1)
        circuit.measure(1, 1)
        counts = StatevectorSimulator(seed=2).run(circuit, shots=600)
        # qubit 1 ends as NOT(qubit 0): only "01" and "10" are possible
        assert set(counts) <= {"01", "10"}
        assert sum(counts.values()) == 600

    def test_rejects_measure_in_statevector(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        with pytest.raises(ValueError, match="mid-circuit measurement"):
            StatevectorSimulator().statevector(circuit)

    def test_unitary_rejects_measure_and_reset(self):
        measured = QuantumCircuit(1, 1)
        measured.measure(0, 0)
        with pytest.raises(ValueError, match="'measure'"):
            circuit_unitary(measured)
        resetting = QuantumCircuit(1)
        resetting.reset(0)
        with pytest.raises(ValueError, match="'reset'"):
            circuit_unitary(resetting)

    def test_repeat_runs_reuse_the_gate_matrices(self, monkeypatch):
        simulator = StatevectorSimulator()
        circuit = random_circuit(3, 20, seed=9)
        first = simulator.statevector(circuit)
        # the second compile constructs nothing new: every gate reads the
        # matrix it memoized on the first
        for instruction in circuit.data:
            monkeypatch.setattr(type(instruction.operation), "to_matrix", _unbuildable)
        second = simulator.statevector(circuit)
        assert np.array_equal(first, second)
