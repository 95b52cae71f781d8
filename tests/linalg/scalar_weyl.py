"""The scalar Weyl kernels, kept as the oracles of the stacked ones.

:func:`weyl_decompose` is :func:`repro.linalg.weyl.weyl_decompose` as it
was before it ran on stacks: one matrix at a time, with its own scalar
Kronecker factorisation.  The stacked kernel must reproduce it bit for bit
(``tests/linalg/test_weyl_stack.py``).  :func:`num_cnots_required` is the
scalar CNOT-count test; :func:`repro.linalg.weyl.cnot_budgets` must give
the same integers (``tests/linalg/test_cnot_budgets.py``).
"""

from __future__ import annotations

import cmath

import numpy as np

from repro.linalg.weyl import _MAGIC_DAG, MAGIC_BASIS, WeylDecomposition


def nearest_kron_factors(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Return ``(A, B, residual)`` minimising ``||matrix - A (x) B||_F``.

    Uses the Pitsianis--Van Loan rearrangement: reshuffling a 4x4 matrix so
    that Kronecker products become rank-one matrices, then truncating the SVD.
    ``residual`` is the second singular value over the first (0 for an exact
    tensor product).
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {matrix.shape}")
    rearranged = matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(rearranged)
    a = (u[:, 0] * np.sqrt(s[0])).reshape(2, 2)
    b = (vh[0, :] * np.sqrt(s[0])).reshape(2, 2)
    residual = float(s[1] / s[0]) if s[0] > 0 else 0.0
    return a, b, residual


def decompose_kron(
    matrix: np.ndarray, atol: float = 1e-7
) -> tuple[complex, np.ndarray, np.ndarray]:
    """Factor ``matrix = phase * A (x) B`` with ``A, B`` in ``SU(2)``.

    Raises :class:`ValueError` when the input is not a tensor product (the
    rank-one residual exceeds ``atol``).  Returns ``(phase, A, B)`` where
    ``phase`` is a unit-modulus complex number.
    """
    a, b, residual = nearest_kron_factors(matrix)
    if residual > atol:
        raise ValueError(f"matrix is not a tensor product (residual {residual:.2e})")
    det_a = np.linalg.det(a)
    det_b = np.linalg.det(b)
    if abs(det_a) < 1e-12 or abs(det_b) < 1e-12:
        raise ValueError("singular Kronecker factor; input was not unitary")
    root_a = cmath.sqrt(det_a)
    root_b = cmath.sqrt(det_b)
    a_su2 = a / root_a
    b_su2 = b / root_b
    phase = root_a * root_b
    phase /= abs(phase)
    return phase, a_su2, b_su2


def _simultaneously_diagonalize_symmetric(
    m2: np.ndarray, degeneracy_tol: float = 1e-7
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise a complex *symmetric unitary* ``m2`` as ``P D P^T``.

    ``P`` is real orthogonal.  Works by diagonalising the real part and then
    refining degenerate eigenspaces with the imaginary part (the two parts
    commute because ``m2`` is symmetric and normal).
    """
    real_part = 0.5 * (m2.real + m2.real.T)
    imag_part = 0.5 * (m2.imag + m2.imag.T)
    eigvals, basis = np.linalg.eigh(real_part)
    start = 0
    size = len(eigvals)
    while start < size:
        stop = start + 1
        while stop < size and abs(eigvals[stop] - eigvals[start]) < degeneracy_tol:
            stop += 1
        if stop - start > 1:
            block = basis[:, start:stop].T @ imag_part @ basis[:, start:stop]
            _, refinement = np.linalg.eigh(0.5 * (block + block.T))
            basis[:, start:stop] = basis[:, start:stop] @ refinement
        start = stop
    diag = basis.T @ m2 @ basis
    off = np.abs(diag - np.diag(np.diag(diag))).max()
    if off > 1e-6:
        raise np.linalg.LinAlgError(
            f"simultaneous diagonalization failed (off-diagonal {off:.2e})"
        )
    return basis, np.diag(diag)


def weyl_decompose(unitary: np.ndarray) -> WeylDecomposition:
    """Compute the Weyl decomposition of a two-qubit unitary.

    The qubit-ordering convention is that of the matrix itself: the left
    tensor factor acts on the first (most significant) index.  Callers that
    use little-endian circuits must map accordingly (see
    :mod:`repro.linalg.two_qubit_synthesis`).
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {unitary.shape}")
    det = np.linalg.det(unitary)
    if abs(abs(det) - 1.0) > 1e-6:
        raise ValueError("matrix is not unitary (|det| != 1)")
    phase0 = np.angle(det) / 4
    special = unitary * np.exp(-1j * phase0)

    magic = _MAGIC_DAG @ special @ MAGIC_BASIS
    m2 = magic.T @ magic
    basis, eigvals = _simultaneously_diagonalize_symmetric(m2)
    eigvals = eigvals / np.abs(eigvals)

    theta = np.angle(eigvals) / 2  # branch (-pi/2, pi/2]
    # Snap the branch cut: an eigenvalue of -1 +/- epsilon lands on theta of
    # +/- pi/2 unstably; fold the negative side up so equal-class inputs get
    # identical representatives (shifting theta by pi leaves D^2 unchanged).
    theta = np.where(theta < -np.pi / 2 + 1e-8, theta + np.pi, theta)
    order = np.argsort(-theta, kind="stable")
    theta = theta[order]
    basis = basis[:, order]
    if np.linalg.det(basis) < 0:
        basis[:, -1] = -basis[:, -1]
    # det(D) must be +1; the eigenphase sum is a multiple of pi, and shifting
    # one phase by pi flips the sign of exp(i*theta) without changing D^2.
    total = theta.sum()
    k = round(total / np.pi)
    if k != 0:
        theta = theta.copy()
        theta[-1] -= k * np.pi

    diag = np.exp(1j * theta)
    a = (theta[0] + theta[1] - theta[2] - theta[3]) / 4
    b = (-theta[0] + theta[1] - theta[2] + theta[3]) / 4
    c = (theta[0] - theta[1] - theta[2] + theta[3]) / 4

    o1 = magic @ basis @ np.diag(1 / diag)
    if np.abs(o1.imag).max() > 1e-6:
        raise np.linalg.LinAlgError("left orthogonal factor is not real")
    k1 = MAGIC_BASIS @ o1.real @ _MAGIC_DAG
    k2 = MAGIC_BASIS @ basis.T @ _MAGIC_DAG
    ph1, k1l, k1r = decompose_kron(k1)
    ph2, k2l, k2r = decompose_kron(k2)
    phase = phase0 + np.angle(ph1) + np.angle(ph2)
    return WeylDecomposition(
        K1l=k1l, K1r=k1r, a=float(a), b=float(b), c=float(c),
        K2l=k2l, K2r=k2r, phase=float(phase),
    )


def _gamma_trace_invariants(unitary: np.ndarray) -> tuple[complex, complex]:
    """Traces ``tr(M2)`` and ``tr(M2 @ M2)`` of the magic-basis Gram matrix."""
    unitary = np.asarray(unitary, dtype=complex)
    det = np.linalg.det(unitary)
    special = unitary * np.exp(-1j * np.angle(det) / 4)
    magic = _MAGIC_DAG @ special @ MAGIC_BASIS
    m2 = magic.T @ magic
    return complex(np.trace(m2)), complex(np.trace(m2 @ m2))


def num_cnots_required(unitary: np.ndarray, atol: float = 1e-8) -> int:
    """Minimum number of CNOT gates needed to implement ``unitary``, from the
    Shende--Bullock--Markov trace invariants of ``M^T M``, one matrix at a
    time: the oracle of :func:`repro.linalg.weyl.cnot_budgets`."""
    trace, trace_sq = _gamma_trace_invariants(unitary)
    if abs(trace.imag) < atol and abs(abs(trace.real) - 4.0) < atol:
        return 0
    if abs(trace) < atol and abs(trace_sq + 4.0) < atol:
        return 1
    if abs(trace.imag) < atol:
        return 2
    return 3
