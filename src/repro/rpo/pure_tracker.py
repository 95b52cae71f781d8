"""The pure-state dataflow analysis (paper Sec. VI-B, Fig. 6).

Each qubit carries a Bloch tuple ``(theta, phi)`` describing its pure state
``|psi(theta, phi)> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>``, or
``None`` for the unknown top state.  One-qubit gates update the tuple by
gate merging, exactly as the paper describes: applying ``u3(t, p, l)`` to
``u3(theta0, phi0, 0)|0>`` yields ``u3(theta1, phi1, 0)|0>`` with the
trailing ``lambda`` parameter discarded (it acts trivially on ``|0>``).

State is stored **stacked**: ``(theta, phi)`` for every qubit lives in one
``(N, 2)`` float array (plus a known-mask).  The tracker sees one gate at a
time, so the gate-merge transition is one 2x2 matmul and one scalar Euler
extraction (:func:`repro.linalg.euler.u3_params_from_unitary`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.linalg.euler import u3_matrix, u3_params_from_unitary
from repro.rpo.states import BasisState, basis_state_of_bloch_tuple

__all__ = ["PureStateTracker"]

PureState = tuple[float, float]


class PureStateTracker:
    """Per-qubit ``(theta, phi)`` pure-state automaton (Fig. 6), stacked."""

    def __init__(self, num_qubits: int):
        self.tuples = np.zeros((num_qubits, 2), dtype=float)
        self.known = np.ones(num_qubits, dtype=bool)

    @property
    def states(self) -> list[PureState | None]:
        """The tracked tuples as a list (compatibility view)."""
        return [self.state(qubit) for qubit in range(len(self.known))]

    def state(self, qubit: int) -> PureState | None:
        if not self.known[qubit]:
            return None
        theta, phi = self.tuples[qubit]
        return (float(theta), float(phi))

    def is_known(self, qubit: int) -> bool:
        return bool(self.known[qubit])

    def set_state(self, qubit: int, state: PureState | None) -> None:
        if state is None:
            self.known[qubit] = False
            self.tuples[qubit] = 0.0
        else:
            self.known[qubit] = True
            self.tuples[qubit] = state

    def invalidate(self, qubits) -> None:
        for qubit in qubits:
            self.known[qubit] = False
            self.tuples[qubit] = 0.0

    # ------------------------------------------------------------------

    def statevector(self, qubit: int) -> np.ndarray:
        """The tracked state as a 2-vector (raises on TOP)."""
        state = self.state(qubit)
        if state is None:
            raise ValueError(f"qubit {qubit} is not in a tracked pure state")
        theta, phi = state
        return np.array(
            [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)],
            dtype=complex,
        )

    def preparation_matrix(self, qubit: int) -> np.ndarray:
        """``U = u3(theta, phi, 0)`` with ``U|0> = |psi>`` (paper Sec. IV)."""
        state = self.state(qubit)
        if state is None:
            raise ValueError(f"qubit {qubit} is not in a tracked pure state")
        return u3_matrix(state[0], state[1], 0.0)

    def basis_classification(self, qubit: int) -> BasisState:
        """Classify the tracked tuple as one of the six basis states."""
        state = self.state(qubit)
        if state is None:
            return BasisState.TOP
        return basis_state_of_bloch_tuple(*state)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------

    def apply_1q_gate(self, qubit: int, matrix: np.ndarray) -> None:
        if not self.known[qubit]:
            return
        theta0, phi0 = self.tuples[qubit]
        prepared = matrix @ u3_matrix(float(theta0), float(phi0), 0.0)
        theta, phi, _lam, _gamma = u3_params_from_unitary(prepared)
        self.tuples[qubit] = (theta, phi)

    def apply_reset(self, qubit: int) -> None:
        self.known[qubit] = True
        self.tuples[qubit] = 0.0

    def apply_measure(self, qubit: int) -> None:
        if self.known[qubit]:
            theta = self.tuples[qubit, 0]
            if abs(theta) < 1e-9 or abs(theta - math.pi) < 1e-9:
                return  # Z-basis states survive measurement
        self.known[qubit] = False
        self.tuples[qubit] = 0.0

    def apply_annotation(self, qubit: int, theta: float, phi: float) -> None:
        self.known[qubit] = True
        self.tuples[qubit] = (float(theta), float(phi))

    def apply_swap(self, a: int, b: int) -> None:
        self.tuples[[a, b]] = self.tuples[[b, a]]
        self.known[[a, b]] = self.known[[b, a]]

    def copy(self) -> "PureStateTracker":
        clone = PureStateTracker(len(self.known))
        clone.tuples = self.tuples.copy()
        clone.known = self.known.copy()
        return clone
