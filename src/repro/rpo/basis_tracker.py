"""The basis-state dataflow analysis (paper Sec. VI-A).

Tracks, for every qubit, which of the six basis states it is provably in
(or ``TOP``).  Soundness invariant: a qubit whose tracked state is not
``TOP`` is unentangled and exactly in that pure state (up to the circuit's
tracked global phase) -- which is what licenses the relaxed rewrites.

The tracker is *passive*: the QBO pass drives it, informing it of the gates
it finally emits.  Any gate the pass does not understand sends the touched
qubits to ``TOP`` (always sound).

State is stored **stacked**: two small integer arrays hold every qubit's
``(axis, sign)`` encoding at once (``axis = -1`` marks ``TOP``), which is
exactly the enum's value encoding, so ``state()`` is one dictionary probe.
Transitions run through the stacked kernels
(:func:`repro.linalg.batch.bloch_rotation_batch` /
:func:`~repro.linalg.batch.basis_axes_batch`); because a basis vector is a
signed coordinate axis, the rotated vector is a *column pick* of the SO(3)
rotation -- bit-identical to Fig. 5's transition table
(:func:`repro.rpo.states.transition`, ``rotation @ e_axis``: the zero
terms add exactly), which the tests hold it to.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.batch import basis_axes_batch, bloch_rotation_batch
from repro.rpo.states import (
    _STATE_OF_SIGNED_AXIS,
    TOP,
    BasisState,
    basis_state_of_bloch_tuple,
)

__all__ = ["BasisStateTracker"]


class BasisStateTracker:
    """Per-qubit basis-state automaton (Fig. 5), stored as stacked arrays."""

    def __init__(self, num_qubits: int):
        # quantum registers power up in the ground state (Sec. VI-A):
        # axis 2 (+Z) with sign +1 is exactly BasisState.ZERO's encoding
        self.axes = np.full(num_qubits, 2, dtype=np.int8)
        self.signs = np.ones(num_qubits, dtype=np.int8)

    @property
    def states(self) -> list[BasisState]:
        """The tracked states as a list (compatibility view)."""
        return [self.state(qubit) for qubit in range(len(self.axes))]

    def state(self, qubit: int) -> BasisState:
        axis = int(self.axes[qubit])
        if axis < 0:
            return TOP
        return _STATE_OF_SIGNED_AXIS[(axis, int(self.signs[qubit]))]

    def set_state(self, qubit: int, state: BasisState) -> None:
        if state is TOP:
            self.axes[qubit] = -1
            self.signs[qubit] = 0
        else:
            self.axes[qubit] = state.axis
            self.signs[qubit] = state.sign

    def invalidate(self, qubits) -> None:
        for qubit in qubits:
            self.axes[qubit] = -1
            self.signs[qubit] = 0

    # ------------------------------------------------------------------
    # transitions (the automaton edges of Fig. 5)
    # ------------------------------------------------------------------

    def apply_1q_gate(self, qubit: int, matrix: np.ndarray) -> None:
        if self.axes[qubit] < 0:
            return  # TOP is absorbing
        rotation = bloch_rotation_batch(np.asarray(matrix, dtype=complex)[None])[0]
        # basis vectors are signed coordinate axes: R @ (sign * e_axis) is
        # a column pick, bit-identical to the matmul in states.transition
        rotated = int(self.signs[qubit]) * rotation[:, int(self.axes[qubit])]
        axis, sign = basis_axes_batch(rotated[None])
        self.axes[qubit] = axis[0]
        self.signs[qubit] = sign[0]

    def apply_reset(self, qubit: int) -> None:
        self.axes[qubit] = 2
        self.signs[qubit] = 1

    def apply_measure(self, qubit: int) -> None:
        # A Z-basis measurement leaves a Z-basis state intact; anything else
        # collapses to an unknown classical state.
        if self.axes[qubit] != 2:
            self.axes[qubit] = -1
            self.signs[qubit] = 0

    def apply_annotation(self, qubit: int, theta: float, phi: float) -> None:
        """``ANNOT(theta, phi)`` re-enters the automaton if the promised
        pure state is one of the six basis states (Fig. 5 ANNOT edge)."""
        self.set_state(qubit, basis_state_of_bloch_tuple(theta, phi))

    def apply_swap(self, a: int, b: int) -> None:
        """SWAP and validated SWAPZ exchange the tracked states (including
        TOP), per Sec. VI-A."""
        self.axes[a], self.axes[b] = self.axes[b], self.axes[a]
        self.signs[a], self.signs[b] = self.signs[b], self.signs[a]

    def copy(self) -> "BasisStateTracker":
        clone = BasisStateTracker(len(self.axes))
        clone.axes = self.axes.copy()
        clone.signs = self.signs.copy()
        return clone
