"""Exact statevector simulation.

States are little-endian: bit ``k`` of a basis index is circuit qubit ``k``.
The simulator supports every gate in the library, plus measurement (with
collapse), reset, and directives (skipped).

Circuits are lowered once per call through the gate-fusion pre-step
(:func:`repro.simulators.fusion.compile_program`): adjacent gates on the
same qubit (or qubit pair) collapse into single fused matrices, and each
gate's matrix is built once and memoized on the gate object.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.gates.matrices import standard_gate_matrix
from repro.linalg.random import as_rng
from repro.simulators.counts import Counts, sample_counts
from repro.simulators.fusion import FusedProgram, compile_program

__all__ = ["StatevectorSimulator", "simulate_statevector", "apply_gate_to_state"]

#: Shared X matrix for the reset path (read-only, from the gate table).
_X_MATRIX = standard_gate_matrix("x")

def apply_gate_to_state(state, matrix, qargs: tuple[int, ...], num_qubits: int):
    """Apply a k-qubit gate matrix to ``state`` on the given qubits.

    Implementation: permute the target qubits into the low bits, reshape to
    ``(2^(n-k), 2^k)``, right-multiply by the transposed matrix, and undo
    the permutation.
    """
    k = len(qargs)
    if matrix.shape != (2**k, 2**k):
        raise ValueError("gate matrix does not match the number of qubits")
    tensor = state.reshape([2] * num_qubits)
    # tensor axis i corresponds to qubit (num_qubits - 1 - i)
    axis_of = lambda q: num_qubits - 1 - q  # noqa: E731 - tiny local helper
    target_axes = [axis_of(q) for q in qargs]
    rest_axes = [ax for ax in range(num_qubits) if ax not in target_axes]
    # order targets so that the *last* axis is qargs[0] (bit 0 of the gate)
    ordered_targets = [axis_of(q) for q in reversed(qargs)]
    permuted = tensor.transpose(rest_axes + ordered_targets)
    flattened = permuted.reshape(-1, 2**k)
    updated = flattened @ matrix.T
    updated = updated.reshape([2] * num_qubits)
    # invert the permutation
    inverse = np.argsort(rest_axes + ordered_targets).tolist()
    return updated.transpose(inverse).reshape(-1)


class StatevectorSimulator:
    """Runs circuits on exact statevectors.

    Measurements collapse the state and write classical bits; use
    :meth:`run` for a single trajectory or :meth:`statevector` for the
    final state of a measurement-free circuit.  Gate matrices are memoized
    on the gate objects, so repeated runs of one circuit skip matrix
    construction entirely.
    """

    def __init__(self, seed: int | np.random.Generator | None = None):
        self._rng = as_rng(seed)

    def statevector(
        self, circuit: QuantumCircuit, initial_state: np.ndarray | None = None
    ) -> np.ndarray:
        """Final statevector (measurement-free circuits only)."""
        program = compile_program(circuit)
        state, _ = self._evolve(program, initial_state, allow_measure=False)
        return state

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        initial_state: np.ndarray | None = None,
    ) -> dict[str, int]:
        """Sample measurement outcomes over ``shots`` trajectories.

        For circuits whose measurements are all terminal the sampling is done
        from the final distribution in one pass (:meth:`sample`); otherwise
        each shot runs a full collapsing trajectory over the once-compiled
        fused program.
        """
        program = compile_program(circuit)
        if self._measurements_are_terminal(circuit):
            state, measured = self._evolve(
                program, initial_state, allow_measure=False, skip_measurements=True
            )
            if not measured:
                raise ValueError("circuit contains no measurements to sample")
            return self.sample(state, shots, measured, circuit.num_clbits)

        counts: dict[str, int] = {}
        for _ in range(shots):
            _, clbits = self._evolve(program, initial_state, allow_measure=True)
            key = format(clbits, f"0{circuit.num_clbits}b")
            counts[key] = counts.get(key, 0) + 1
        return Counts(counts, num_clbits=circuit.num_clbits)

    def sample(
        self,
        state: np.ndarray,
        shots: int,
        measured: Iterable[tuple[int, int]],
        num_clbits: int,
    ) -> Counts:
        """Sample ``shots`` terminal measurements of a final ``state``.

        ``measured`` holds ``(qubit, clbit)`` pairs.  This is :meth:`run`'s
        terminal path: the same draw from this simulator's RNG, so a caller
        holding the final state of a circuit gets the counts ``run`` would
        return for it without simulating the circuit again.
        """
        probabilities = np.abs(state) ** 2
        probabilities = probabilities / probabilities.sum()
        return sample_counts(probabilities, shots, self._rng, measured, num_clbits)

    # ------------------------------------------------------------------

    @staticmethod
    def _measurements_are_terminal(circuit: QuantumCircuit) -> bool:
        seen_measure = set()
        for instruction in circuit.data:
            name = instruction.operation.name
            if name == "measure":
                seen_measure.update(instruction.qubits)
            elif name != "barrier" and seen_measure.intersection(instruction.qubits):
                return False
        return True

    def _evolve(
        self,
        program: FusedProgram,
        initial_state: np.ndarray | None,
        allow_measure: bool,
        skip_measurements: bool = False,
    ):
        num_qubits = program.num_qubits
        if initial_state is None:
            state = np.zeros(2**num_qubits, dtype=complex)
            state[0] = 1.0
        else:
            state = np.array(initial_state, dtype=complex)
            if state.shape != (2**num_qubits,):
                raise ValueError("initial state has wrong dimension")
        state *= np.exp(1j * program.global_phase)

        clbits = 0
        measured: list[tuple[int, int]] = []
        for kind, first, second in program.steps:
            if kind == "unitary":
                state = apply_gate_to_state(state, first, second, num_qubits)
                continue
            if kind == "measure":
                if skip_measurements:
                    measured.append((first, second))
                    continue
                if not allow_measure:
                    raise ValueError("circuit contains mid-circuit measurement")
                outcome, state = self._measure(state, first, num_qubits)
                clbits = (clbits & ~(1 << second)) | (outcome << second)
                continue
            if kind == "reset":
                outcome, state = self._measure(state, first, num_qubits)
                if outcome:
                    state = apply_gate_to_state(state, _X_MATRIX, (first,), num_qubits)
                continue
            raise ValueError(f"cannot simulate instruction {first.name!r}")
        return state, (measured if skip_measurements else clbits)

    def _measure(self, state, qubit: int, num_qubits: int):
        indices = np.arange(len(state))
        mask = (indices >> qubit) & 1
        prob_one = float(np.sum(np.abs(state[mask == 1]) ** 2))
        outcome = int(self._rng.random() < prob_one)
        collapsed = np.where(mask == outcome, state, 0.0)
        norm = float(np.linalg.norm(collapsed))
        if norm < 1e-12:
            raise RuntimeError("measurement collapsed to zero-norm state")
        return outcome, collapsed / norm


def simulate_statevector(
    circuit: QuantumCircuit, initial_state: np.ndarray | None = None
) -> np.ndarray:
    """Convenience wrapper: final statevector of a measurement-free circuit."""
    return StatevectorSimulator().statevector(circuit, initial_state)
