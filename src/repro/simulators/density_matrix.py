"""Exact density-matrix simulation of noisy circuits.

Evolves the full density matrix through the same depolarizing + readout
noise model the Monte-Carlo sampler unravels, giving *exact* outcome
probabilities.  Cost is ``4^n`` so this is for small (<= ~8 qubit) circuits;
it exists to validate the trajectory sampler (the Fig. 11 substitute) and
for noise studies where sampling error matters.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.simulators.noise import NoiseModel

__all__ = ["DensityMatrixSimulator"]

_PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

#: Reset Kraus factors (shared, read-only): |0><0| projector and |0><1|.
_PROJ_ZERO = np.array([[1, 0], [0, 0]], dtype=complex)
_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)


@lru_cache(maxsize=4096)
def _embedded_pauli(index: int, qargs: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Full-register Pauli-string tensor, cached per ``(index, qargs, n)``.

    The depolarizing channel hits the same handful of Pauli strings on
    every noisy gate of a circuit (and again on every circuit of a sweep),
    so the ``np.kron`` build + embedding happens once per distinct string
    instead of once per application.  Entries are returned read-only.
    """
    from repro.circuit.matrix_utils import embed_gate

    pauli = np.array([[1.0]], dtype=complex)
    for position in range(len(qargs) - 1, -1, -1):
        pauli = np.kron(pauli, _PAULIS[(index >> (2 * position)) & 3])
    full = embed_gate(pauli, qargs, num_qubits)
    full.setflags(write=False)
    return full


class DensityMatrixSimulator:
    """Exact mixed-state evolution under a :class:`NoiseModel`."""

    def __init__(self, noise_model: NoiseModel | None = None):
        self.noise_model = noise_model or NoiseModel()

    def probabilities(self, circuit: QuantumCircuit) -> dict[str, float]:
        """Exact outcome distribution over the classical bits.

        Supports terminal measurements only (no mid-circuit collapse).
        """
        num_qubits = circuit.num_qubits
        if num_qubits > 12:
            raise ValueError(
                f"{num_qubits}-qubit density matrix would need "
                f"4^{num_qubits} entries; compact the circuit first"
            )
        dim = 2**num_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0

        measures: list[tuple[int, int]] = []
        for instruction in circuit.data:
            operation = instruction.operation
            if operation.is_directive:
                continue
            name = operation.name
            if name == "measure":
                measures.append((instruction.qubits[0], instruction.clbits[0]))
                continue
            if measures:
                raise ValueError("mid-circuit measurement is not supported")
            if name == "reset":
                rho = self._reset(rho, instruction.qubits[0], num_qubits)
                continue
            if not operation.is_gate():
                raise ValueError(f"cannot simulate {name!r}")
            rho = self._apply_unitary(
                rho, operation.matrix, instruction.qubits, num_qubits
            )
            error = self.noise_model.gate_error(instruction.qubits)
            if error > 0.0:
                rho = self._depolarize(rho, instruction.qubits, num_qubits, error)

        return self._measure_distribution(rho, measures, circuit.num_clbits)

    # ------------------------------------------------------------------

    @staticmethod
    def _embed(matrix: np.ndarray, qargs, num_qubits):
        from repro.circuit.matrix_utils import embed_gate

        return embed_gate(matrix, qargs, num_qubits)

    def _apply_unitary(self, rho, matrix, qargs, num_qubits):
        full = self._embed(matrix, qargs, num_qubits)
        return full @ rho @ full.conj().T

    def _depolarize(self, rho, qargs, num_qubits, probability):
        """k-qubit depolarizing channel: mix in uniform non-identity Paulis."""
        k = len(qargs)
        count = 4**k - 1
        mixed = (1 - probability) * rho
        share = probability / count
        for index in range(1, 4**k):
            full = _embedded_pauli(index, tuple(qargs), num_qubits)
            mixed = mixed + share * (full @ rho @ full.conj().T)
        return mixed

    def _reset(self, rho, qubit, num_qubits):
        p0 = self._embed(_PROJ_ZERO, (qubit,), num_qubits)
        k1 = self._embed(_LOWER, (qubit,), num_qubits)
        return p0 @ rho @ p0.conj().T + k1 @ rho @ k1.conj().T

    def _measure_distribution(self, rho, measures, num_clbits):
        state_probs = np.real(np.diag(rho)).clip(min=0.0)
        state_probs /= state_probs.sum()
        distribution: dict[str, float] = {}
        flip = {
            qubit: self.noise_model.readout_flip_probabilities(qubit)
            for qubit, _ in measures
        }
        for outcome, probability in enumerate(state_probs):
            if probability < 1e-15:
                continue
            # fold readout errors analytically over the measured bits
            bits_acc: dict[int, float] = {0: float(probability)}
            for qubit, clbit in measures:
                flip0, flip1 = flip[qubit]
                value = (outcome >> qubit) & 1
                stay = 1 - (flip1 if value else flip0)
                swap = flip1 if value else flip0
                updated: dict[int, float] = {}
                for bits, weight in bits_acc.items():
                    bits &= ~(1 << clbit)  # a later measure overwrites the clbit
                    kept = bits | (value << clbit)
                    flipped = bits | ((value ^ 1) << clbit)
                    updated[kept] = updated.get(kept, 0.0) + weight * stay
                    updated[flipped] = updated.get(flipped, 0.0) + weight * swap
                bits_acc = updated
            for bits, weight in bits_acc.items():
                key = format(bits, f"0{num_clbits}b")
                distribution[key] = distribution.get(key, 0.0) + weight
        return distribution
