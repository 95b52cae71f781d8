"""Tensor-product (Kronecker) factorisation of two-qubit operators.

The Weyl decomposition produces 4x4 matrices known to lie in
``SU(2) (x) SU(2)``; :func:`decompose_kron_stack` recovers the one-qubit
factors of a whole stack of them at once, and :func:`decompose_kron` of one.
:func:`nearest_kron_factors` is the underlying rank-one approximation, which
is also useful on its own for diagnostics.
"""

from __future__ import annotations

import cmath

import numpy as np

__all__ = ["decompose_kron", "decompose_kron_stack", "nearest_kron_factors"]


def _nearest_kron_stack(stack: np.ndarray):
    """Rank-one factors ``(A, B)`` and the SVD spectra of a 4x4 stack.

    Uses the Pitsianis--Van Loan rearrangement: reshuffling a 4x4 matrix so
    that Kronecker products become rank-one matrices, then truncating the
    SVD.
    """
    count = len(stack)
    rearranged = stack.reshape(count, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(count, 4, 4)
    u, s, vh = np.linalg.svd(rearranged)
    root = np.sqrt(s[:, 0])[:, None]
    a = (u[:, :, 0] * root).reshape(count, 2, 2)
    b = (vh[:, 0, :] * root).reshape(count, 2, 2)
    return a, b, s


def _residual(spectrum) -> float:
    """Second singular value over the first (0 for an exact tensor product)."""
    return float(spectrum[1] / spectrum[0]) if spectrum[0] > 0 else 0.0


def nearest_kron_factors(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Return ``(A, B, residual)`` minimising ``||matrix - A (x) B||_F``.

    ``residual`` is the second singular value of the rearranged matrix over
    the first (0 for an exact tensor product).
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {matrix.shape}")
    a, b, s = _nearest_kron_stack(matrix[None])
    return a[0], b[0], _residual(s[0])


def decompose_kron_stack(matrices, atol: float = 1e-7) -> list:
    """Factor every ``matrices[i] = phase * A (x) B`` with ``A, B`` in ``SU(2)``.

    Returns one ``(phase, A, B)`` per matrix (``phase`` a unit-modulus
    complex number), or in its place the :class:`ValueError` of a matrix
    that is not a tensor product (rank-one residual above ``atol``) or has a
    singular factor.
    """
    stack = np.asarray(matrices, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {stack.shape}")
    if not len(stack):
        return []
    a, b, s = _nearest_kron_stack(stack)
    dets_a = np.linalg.det(a)
    dets_b = np.linalg.det(b)
    roots_a = np.ones(len(stack), dtype=complex)
    roots_b = np.ones(len(stack), dtype=complex)
    results: list = [None] * len(stack)
    for index, (det_a, det_b) in enumerate(zip(dets_a, dets_b)):
        residual = _residual(s[index])
        if residual > atol:
            results[index] = ValueError(
                f"matrix is not a tensor product (residual {residual:.2e})"
            )
        elif abs(det_a) < 1e-12 or abs(det_b) < 1e-12:
            results[index] = ValueError("singular Kronecker factor; input was not unitary")
        else:
            roots_a[index] = cmath.sqrt(det_a)
            roots_b[index] = cmath.sqrt(det_b)
    a_su2 = a / roots_a[:, None, None]
    b_su2 = b / roots_b[:, None, None]
    for index, (root_a, root_b) in enumerate(zip(roots_a.tolist(), roots_b.tolist())):
        if results[index] is None:
            phase = root_a * root_b
            phase /= abs(phase)
            results[index] = (phase, a_su2[index], b_su2[index])
    return results


def decompose_kron(
    matrix: np.ndarray, atol: float = 1e-7
) -> tuple[complex, np.ndarray, np.ndarray]:
    """Factor ``matrix = phase * A (x) B`` with ``A, B`` in ``SU(2)``.

    :func:`decompose_kron_stack` on a stack of one: raises its
    :class:`ValueError` when the input is not a tensor product.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {matrix.shape}")
    [result] = decompose_kron_stack(matrix[None], atol)
    if isinstance(result, Exception):
        raise result
    return result
