"""The basis-state lattice of the QBO analysis (paper Sec. VI-A, Fig. 5).

The six tracked states are the eigenstates of the three Pauli axes::

    ZERO  = |0>   (+Z)     ONE   = |1>   (-Z)
    PLUS  = |+>   (+X)     MINUS = |->   (-X)
    LEFT  = |L>   (+Y)     RIGHT = |R>   (-Y)

plus the lattice top ``TOP`` for "unknown / not a basis state".

Rather than hand-coding the transition table of Fig. 5, transitions are
computed exactly: a one-qubit gate ``U`` acts on Bloch vectors as the
``SO(3)`` rotation ``R_ij = Re tr(sigma_i U sigma_j U^dag) / 2``, so a basis
state maps to another basis state precisely when the rotated axis lands on a
signed coordinate axis.  This reproduces the paper's table for the half- and
quarter-turn gates *and* handles arbitrary ``u3`` parameters that happen to
be multiples of quarter turns.
"""

from __future__ import annotations

import cmath
import enum
import math

import numpy as np

__all__ = [
    "BasisState",
    "TOP",
    "bloch_of_basis_state",
    "basis_state_of_bloch",
    "bloch_rotation_of_gate",
    "transition",
    "eigenphase_if_fixed",
    "statevector_of_basis_state",
    "bloch_tuple_of_basis_state",
    "basis_state_of_bloch_tuple",
    "preparation_matrices",
    "track_non_gate",
]

_ATOL = 1e-9


class BasisState(enum.Enum):
    """One of the six tracked basis states, or the unknown top element."""

    ZERO = (2, +1)   # +Z
    ONE = (2, -1)    # -Z
    PLUS = (0, +1)   # +X
    MINUS = (0, -1)  # -X
    LEFT = (1, +1)   # +Y:  (|0> + i|1>)/sqrt(2)
    RIGHT = (1, -1)  # -Y:  (|0> - i|1>)/sqrt(2)
    TOP = (None, None)

    @property
    def axis(self):
        return self.value[0]

    @property
    def sign(self):
        return self.value[1]

    @property
    def is_known(self) -> bool:
        return self is not BasisState.TOP

    @property
    def is_z_basis(self) -> bool:
        return self in (BasisState.ZERO, BasisState.ONE)

    @property
    def is_x_basis(self) -> bool:
        return self in (BasisState.PLUS, BasisState.MINUS)

    @property
    def is_y_basis(self) -> bool:
        return self in (BasisState.LEFT, BasisState.RIGHT)


TOP = BasisState.TOP

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_SQRT2 = 1 / math.sqrt(2)

_STATEVECTORS = {
    BasisState.ZERO: np.array([1, 0], dtype=complex),
    BasisState.ONE: np.array([0, 1], dtype=complex),
    BasisState.PLUS: np.array([_SQRT2, _SQRT2], dtype=complex),
    BasisState.MINUS: np.array([_SQRT2, -_SQRT2], dtype=complex),
    BasisState.LEFT: np.array([_SQRT2, 1j * _SQRT2], dtype=complex),
    BasisState.RIGHT: np.array([_SQRT2, -1j * _SQRT2], dtype=complex),
}

#: Bloch tuples (theta, phi) of each basis state (paper Sec. VI-B encoding).
_BLOCH_TUPLES = {
    BasisState.ZERO: (0.0, 0.0),
    BasisState.ONE: (math.pi, 0.0),
    BasisState.PLUS: (math.pi / 2, 0.0),
    BasisState.MINUS: (math.pi / 2, math.pi),
    BasisState.LEFT: (math.pi / 2, math.pi / 2),
    BasisState.RIGHT: (math.pi / 2, -math.pi / 2),
}


def bloch_of_basis_state(state: BasisState) -> np.ndarray:
    """Unit Bloch vector of a known basis state."""
    if not state.is_known:
        raise ValueError("TOP has no Bloch vector")
    vector = np.zeros(3)
    vector[state.axis] = state.sign
    return vector


#: Signed-axis lookup ``(axis, sign) -> state`` -- the enum values are
#: exactly these pairs, so classification is a dominant-axis test plus one
#: dictionary probe instead of a scan over all six reference vectors.
_STATE_OF_SIGNED_AXIS = {
    state.value: state for state in BasisState if state is not BasisState.TOP
}

_RTOL = 1e-5  # matches the np.allclose default the scan-based version used


def basis_state_of_bloch(vector: np.ndarray, atol: float = 1e-8) -> BasisState:
    """Classify a Bloch vector as a basis state, or ``TOP``.

    A Bloch vector is a basis state exactly when it sits on a signed
    coordinate axis, so only the dominant component needs checking.
    """
    v0, v1, v2 = float(vector[0]), float(vector[1]), float(vector[2])
    a0, a1, a2 = abs(v0), abs(v1), abs(v2)
    if a0 >= a1 and a0 >= a2:
        axis, dominant, rest_a, rest_b = 0, v0, a1, a2
    elif a1 >= a2:
        axis, dominant, rest_a, rest_b = 1, v1, a0, a2
    else:
        axis, dominant, rest_a, rest_b = 2, v2, a0, a1
    sign = 1 if dominant >= 0 else -1
    if (
        abs(dominant - sign) <= atol + _RTOL
        and rest_a <= atol
        and rest_b <= atol
    ):
        return _STATE_OF_SIGNED_AXIS[(axis, sign)]
    return TOP


def statevector_of_basis_state(state: BasisState) -> np.ndarray:
    if not state.is_known:
        raise ValueError("TOP has no statevector")
    return _STATEVECTORS[state].copy()


def bloch_tuple_of_basis_state(state: BasisState) -> tuple[float, float]:
    """The ``(theta, phi)`` pure-state tuple of a basis state."""
    if not state.is_known:
        raise ValueError("TOP has no Bloch tuple")
    return _BLOCH_TUPLES[state]


def basis_state_of_bloch_tuple(theta: float, phi: float, atol: float = 1e-8) -> BasisState:
    """Classify a ``(theta, phi)`` pure-state tuple as a basis state or TOP."""
    x = math.sin(theta) * math.cos(phi)
    y = math.sin(theta) * math.sin(phi)
    z = math.cos(theta)
    return basis_state_of_bloch(np.array([x, y, z]), atol=atol)


def bloch_rotation_of_gate(matrix: np.ndarray) -> np.ndarray:
    """The SO(3) Bloch rotation of a one-qubit unitary."""
    rotation = np.empty((3, 3))
    u_dag = matrix.conj().T
    for i in range(3):
        for j in range(3):
            rotation[i, j] = 0.5 * np.real(
                np.trace(_PAULIS[i] @ matrix @ _PAULIS[j] @ u_dag)
            )
    return rotation


def transition(state: BasisState, matrix: np.ndarray) -> BasisState:
    """Apply a one-qubit gate to a tracked state (Fig. 5 automaton edge)."""
    if not state.is_known:
        return TOP
    rotated = bloch_rotation_of_gate(matrix) @ bloch_of_basis_state(state)
    return basis_state_of_bloch(rotated)


def eigenphase_if_fixed(state: BasisState, matrix: np.ndarray) -> float | None:
    """If ``state`` is an eigenstate of the gate, return the eigenphase.

    This powers the single-qubit elimination rule (paper Eq. 7): a gate
    whose input is one of its eigenstates acts as a global phase on an
    unentangled qubit and can be removed (tracking the phase).
    Returns ``None`` when the state is not fixed by the gate.
    """
    if not state.is_known:
        return None
    vector = _STATEVECTORS[state]
    image = matrix @ vector
    overlap = np.vdot(vector, image)
    if abs(abs(overlap) - 1.0) > 1e-9:
        return None
    return float(cmath.phase(overlap))


def preparation_matrices(state: BasisState) -> np.ndarray:
    """A Clifford ``P`` with ``P|0> = |state>`` (used by the SWAP rules).

    Composing ``P_target @ P_source^dag`` yields the basis-change gates of
    the paper's Table VI.
    """
    if not state.is_known:
        raise ValueError("TOP has no preparation")
    h = np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=complex)
    x = _PAULIS[0]
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    sdg = s.conj().T
    identity = np.eye(2, dtype=complex)
    return {
        BasisState.ZERO: identity,
        BasisState.ONE: x,
        BasisState.PLUS: h,
        BasisState.MINUS: h @ x,
        BasisState.LEFT: s @ h,
        BasisState.RIGHT: sdg @ h,
    }[state]


def track_non_gate(tracker, operation, qubits) -> bool:
    """Apply a record QBO and QPO keep as it is -- a barrier, annotation,
    reset, measure or other non-gate -- to a state tracker; ``False``, with
    the tracker untouched, for a gate."""
    name = operation.name
    if name == "annot":
        tracker.apply_annotation(qubits[0], *operation.params[:2])
    elif name == "reset":
        tracker.apply_reset(qubits[0])
    elif name == "measure":
        tracker.apply_measure(qubits[0])
    elif name != "barrier":
        if operation.is_gate():
            return False
        tracker.invalidate(qubits)
    return True
