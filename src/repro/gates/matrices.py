"""Module-level matrix table for parameter-free standard gates.

Every fixed (parameter-free) gate in the library has a single, immutable
matrix.  Constructing a fresh ndarray on every ``to_matrix()`` call is pure
overhead -- the state-analysis passes (QBO/QPO trackers, consolidation,
1q fusion) ask for the same handful of matrices thousands of times per
transpilation.  This table builds each matrix once at import time, marks it
read-only, and hands out the shared instance.

The matrices here are the *source of truth* used by the gate classes in
:mod:`repro.gates.standard` and :mod:`repro.gates.twoqubit`; a fixed gate's
memoized :attr:`~repro.circuit.instruction.Gate.matrix` is the table array
itself, so no fixed gate ever builds a matrix of its own.

Conventions match the rest of the library: little-endian in gate-argument
order, controls first.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["STANDARD_GATE_MATRICES", "standard_gate_matrix"]

_SQRT2 = 1 / math.sqrt(2)


def _controlled(base: np.ndarray, num_ctrl: int = 1) -> np.ndarray:
    """Embed ``base`` as a closed-control gate (controls = low qubit args)."""
    n_base = int(base.shape[0]).bit_length() - 1
    ctrl_state = (1 << num_ctrl) - 1
    dim = 2 ** (num_ctrl + n_base)
    matrix = np.eye(dim, dtype=complex)
    for base_row in range(2**n_base):
        row = (base_row << num_ctrl) | ctrl_state
        for base_col in range(2**n_base):
            col = (base_col << num_ctrl) | ctrl_state
            matrix[row, col] = base[base_row, base_col]
    return matrix


def _build_table() -> dict[str, np.ndarray]:
    identity = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    h = np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=complex)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    t = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
    sx = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    # SWAPZ (paper Eq. 3), time order cx(1,0) then cx(0,1)
    cx_10 = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    cx_01 = _controlled(x)
    iswap = np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    table = {
        "id": identity,
        "x": x,
        "y": y,
        "z": z,
        "h": h,
        "s": s,
        "sdg": s.conj().T,
        "t": t,
        "tdg": t.conj().T,
        "sx": sx,
        "cx": cx_01,
        "cy": _controlled(y),
        "cz": _controlled(z),
        "ch": _controlled(h),
        "swap": swap,
        "swapz": cx_01 @ cx_10,
        "iswap": iswap,
        "ccx": _controlled(x, 2),
        "ccz": _controlled(z, 2),
        "cswap": _controlled(swap),
    }
    for matrix in table.values():
        matrix.setflags(write=False)
    return table


#: Immutable matrices of the parameter-free standard gates, keyed by name.
STANDARD_GATE_MATRICES: dict[str, np.ndarray] = _build_table()


def standard_gate_matrix(name: str) -> np.ndarray | None:
    """The shared read-only matrix for a fixed standard gate, or ``None``."""
    return STANDARD_GATE_MATRICES.get(name)
