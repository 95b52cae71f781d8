"""Monte-Carlo (trajectory) noisy simulation.

Each shot evolves a statevector, inserting a uniformly random non-identity
Pauli on the touched qubits after each gate with the model's depolarizing
probability, and flipping measured bits with the readout error.  This is
the standard stochastic unravelling of the depolarizing channel and is how
the repo substitutes for the paper's runs on real IBM machines (Fig. 11);
see DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.linalg.random import as_rng
from repro.simulators.counts import Counts
from repro.simulators.noise import NoiseModel
from repro.simulators.statevector import apply_gate_to_state

__all__ = ["NoisySimulator"]

_PAULIS = [
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


class NoisySimulator:
    """Trajectory sampler over a :class:`NoiseModel`."""

    def __init__(self, noise_model: NoiseModel, seed: int | np.random.Generator | None = None):
        self.noise_model = noise_model
        self._rng = as_rng(seed)

    def run(self, circuit: QuantumCircuit, shots: int = 1024) -> Counts:
        """Sample ``shots`` noisy trajectories of ``circuit``."""
        compiled = self._precompile(circuit)
        counts: dict[str, int] = {}
        num_clbits = circuit.num_clbits
        for _ in range(shots):
            key = self._one_shot(compiled, circuit.num_qubits, num_clbits)
            counts[key] = counts.get(key, 0) + 1
        return Counts(counts, num_clbits=num_clbits)

    # ------------------------------------------------------------------

    def _precompile(self, circuit: QuantumCircuit):
        """Cache gate matrices and error rates for the trajectory loop."""
        steps = []
        for instruction in circuit.data:
            operation = instruction.operation
            if operation.is_directive:
                continue
            if operation.name == "measure":
                steps.append(("measure", instruction.qubits[0], instruction.clbits[0]))
                continue
            if operation.name == "reset":
                steps.append(("reset", instruction.qubits[0], None))
                continue
            if not operation.is_gate():
                raise ValueError(f"cannot simulate {operation.name!r}")
            matrix = np.asarray(operation.matrix, dtype=complex)
            error = self.noise_model.gate_error(instruction.qubits)
            steps.append(("gate", (matrix, instruction.qubits), error))
        return steps

    def _one_shot(self, steps, num_qubits: int, num_clbits: int) -> str:
        state = np.zeros(2**num_qubits, dtype=complex)
        state[0] = 1.0
        clbits = 0
        for kind, payload, extra in steps:
            if kind == "gate":
                matrix, qubits = payload
                state = apply_gate_to_state(state, matrix, qubits, num_qubits)
                if extra > 0.0 and self._rng.random() < extra:
                    state = self._apply_random_pauli(state, qubits, num_qubits)
            elif kind == "measure":
                outcome, state = self._measure(state, payload, num_qubits)
                flip_given_0, flip_given_1 = self.noise_model.readout_flip_probabilities(
                    payload
                )
                flip_probability = flip_given_1 if outcome else flip_given_0
                if flip_probability > 0.0 and self._rng.random() < flip_probability:
                    outcome ^= 1
                clbits = (clbits & ~(1 << extra)) | (outcome << extra)
            else:  # reset
                outcome, state = self._measure(state, payload, num_qubits)
                if outcome:
                    state = apply_gate_to_state(state, _PAULIS[1], (payload,), num_qubits)
        return format(clbits, f"0{num_clbits}b")

    def _apply_random_pauli(self, state, qubits, num_qubits):
        """Uniformly random non-identity Pauli on the touched qubits."""
        size = 4 ** len(qubits)
        choice = int(self._rng.integers(1, size))
        for position, qubit in enumerate(qubits):
            index = (choice >> (2 * position)) & 3
            if index:
                state = apply_gate_to_state(state, _PAULIS[index], (qubit,), num_qubits)
        return state

    def _measure(self, state, qubit, num_qubits):
        indices = np.arange(len(state))
        mask = (indices >> qubit) & 1
        prob_one = float(np.sum(np.abs(state[mask == 1]) ** 2))
        outcome = int(self._rng.random() < prob_one)
        collapsed = np.where(mask == outcome, state, 0.0)
        norm = float(np.linalg.norm(collapsed))
        if norm < 1e-12:  # numerically impossible branch; resample other way
            outcome ^= 1
            collapsed = np.where(mask == outcome, state, 0.0)
            norm = float(np.linalg.norm(collapsed))
        return outcome, collapsed / norm
