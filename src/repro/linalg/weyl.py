"""Two-qubit Weyl (KAK / Cartan) decomposition.

Any two-qubit unitary ``U`` factors as::

    U = exp(i*phase) * (K1l (x) K1r) @ CAN(a, b, c) @ (K2l (x) K2r)

where ``CAN(a, b, c) = exp(i * (a XX + b YY + c ZZ))`` is the *canonical
gate* and the ``K`` factors are one-qubit ``SU(2)`` gates.  This is the
mathematical engine behind the ``ConsolidateBlocks`` transpiler pass (the
unitary-preserving peephole optimization the paper compares RPO against,
Sec. II-B / V-D) and behind the two-qubit synthesis routines.

Implementation notes
--------------------
The decomposition runs on stacks of matrices in two stages, so callers
that need many decompositions -- or only coordinates -- pay once per stack
rather than once per matrix:

* **coordinate stage** (:func:`canonical_forms`):

  1. normalise each ``U`` into ``SU(4)``;
  2. conjugate into the magic basis, where ``SU(2) (x) SU(2)`` becomes
     ``SO(4)`` and ``CAN`` becomes diagonal;
  3. simultaneously diagonalise the real and imaginary parts of the
     complex symmetric matrix ``M^T M`` with a *deterministic* eigenspace
     refinement (no random retries), giving a real orthogonal ``P`` and
     eigenphases;
  4. the half-eigenphases determine ``(a, b, c)`` through the fixed sign
     matrix ``G`` (the magic-basis spectra of XX/YY/ZZ);

* **factor stage** (:func:`weyl_factors`): the orthogonal factors give the
  local gates, split by a stacked Kronecker factorisation.

:func:`weyl_decompose` runs both stages on a stack of one.  Every stacked
operation is the per-matrix operation repeated, so a matrix decomposes to
the same bits whatever stack it sits in, and a matrix that fails (not
unitary, or rejected by LAPACK) fails alone.  The eigenphases are sorted
descending, which makes the returned coordinate triple a deterministic
function of the local-equivalence class.  The CNOT cost test
(:func:`cnot_budgets`, with :func:`num_cnots_required` its stack of one)
uses the Shende--Bullock--Markov trace invariants of ``M^T M`` and runs on
stacks the same way, so a caller with many block unitaries pays for their
CNOT counts once.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.linalg.kron import decompose_kron_stack

__all__ = [
    "MAGIC_BASIS",
    "CanonicalForm",
    "WeylDecomposition",
    "canonical_forms",
    "weyl_factors",
    "weyl_decompose",
    "canonical_gate",
    "cnot_budgets",
    "num_cnots_required",
]

#: Magic basis ``B``: columns are the magic Bell states.  Conjugation by
#: ``B`` maps ``SU(2) (x) SU(2)`` onto ``SO(4)`` and diagonalises XX/YY/ZZ.
MAGIC_BASIS = (1 / np.sqrt(2)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)

_MAGIC_DAG = MAGIC_BASIS.conj().T

#: eigenvalues of ``Re(M^T M)`` closer than this share a refined eigenspace
_DEGENERACY_TOL = 1e-7
_DIAGONAL = np.arange(4)
_ROWS = _DIAGONAL[None, :, None]
_OFF_ROWS, _OFF_COLUMNS = np.nonzero(~np.eye(4, dtype=bool))

#: Magic-basis eigenvalue signs of XX, YY, ZZ (verified numerically):
#: ``B^dag (P (x) P) B = diag(G[:, i])`` for ``P`` in ``(X, Y, Z)``.
_G = np.array(
    [
        [1, -1, 1],
        [1, 1, -1],
        [-1, -1, -1],
        [-1, 1, 1],
    ],
    dtype=float,
)


def canonical_gate(a: float, b: float, c: float) -> np.ndarray:
    """Matrix of ``CAN(a, b, c) = exp(i*(a XX + b YY + c ZZ))``.

    Computed exactly through the magic-basis diagonal form (no matrix
    exponential needed).
    """
    theta = _G @ np.array([a, b, c], dtype=float)
    return MAGIC_BASIS @ (np.exp(1j * theta)[:, None] * _MAGIC_DAG)


@dataclasses.dataclass(frozen=True)
class WeylDecomposition:
    """Result of :func:`weyl_decompose`.

    Attributes:
        K1l, K1r: left (output-side) one-qubit ``SU(2)`` factors.
        a, b, c: canonical-gate coordinates (a deterministic class
            representative; *not* folded into the Weyl chamber).
        K2l, K2r: right (input-side) one-qubit ``SU(2)`` factors.
        phase: global phase angle.

    The reconstruction is::

        exp(i*phase) * kron(K1l, K1r) @ CAN(a, b, c) @ kron(K2l, K2r)
    """

    K1l: np.ndarray
    K1r: np.ndarray
    a: float
    b: float
    c: float
    K2l: np.ndarray
    K2r: np.ndarray
    phase: float

    @property
    def coordinates(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def reconstruct(self) -> np.ndarray:
        """Multiply the factors back together (used for verification)."""
        return (
            np.exp(1j * self.phase)
            * np.kron(self.K1l, self.K1r)
            @ canonical_gate(self.a, self.b, self.c)
            @ np.kron(self.K2l, self.K2r)
        )


class CanonicalForm:
    """The coordinate stage of one Weyl decomposition.

    ``a, b, c`` are the canonical coordinates :func:`weyl_decompose` reports;
    the other slots carry what :func:`weyl_factors` needs to finish the
    decomposition (the magic-basis matrix, the sorted real orthogonal
    eigenbasis, its half-eigenphases and the ``SU(4)`` normalising phase).
    """

    __slots__ = ("a", "b", "c", "phase0", "magic", "basis", "theta")

    @property
    def coordinates(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def _isolated(stage, items: list) -> list:
    """``stage(items)``; if LAPACK rejects the whole stack, item by item, so
    one bad matrix fails alone (its ``LinAlgError`` takes its place)."""
    try:
        return stage(items)
    except np.linalg.LinAlgError as error:
        if len(items) == 1:
            return [error]
        return [_isolated(stage, items[index : index + 1])[0] for index in range(len(items))]


def canonical_forms(unitaries) -> list:
    """Coordinate stage of :func:`weyl_decompose` over a stack of 4x4 unitaries.

    Returns one :class:`CanonicalForm` per matrix, or in its place the
    ``ValueError`` (not unitary) or ``LinAlgError`` (no simultaneous
    diagonalisation) that matrix alone raises; the other items are
    unaffected.
    """
    stack = np.asarray(unitaries, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {stack.shape}")
    return _isolated(_canonical_forms, stack)


def _canonical_forms(stack: np.ndarray) -> list:
    results: list = [None] * len(stack)
    dets = np.linalg.det(stack)
    alive = []
    for index, det in enumerate(dets.tolist()):
        if abs(abs(det) - 1.0) > 1e-6:
            results[index] = ValueError("matrix is not unitary (|det| != 1)")
        else:
            alive.append(index)
    if not alive:
        return results
    if len(alive) < len(stack):
        stack, dets = stack[alive], dets[alive]
    # normalise into SU(4)
    phase0 = np.angle(dets) / 4
    special = stack * np.exp(-1j * phase0)[:, None, None]
    magic = _MAGIC_DAG @ special @ MAGIC_BASIS
    m2 = magic.transpose(0, 2, 1) @ magic

    # Diagonalise the complex symmetric unitary M^T M as P D P^T with P
    # real orthogonal: diagonalise the real part, then refine degenerate
    # eigenspaces with the imaginary part (the two parts commute because
    # M^T M is symmetric and normal) -- deterministic, no random retries.
    real_part = 0.5 * (m2.real + m2.real.transpose(0, 2, 1))
    imag_part = 0.5 * (m2.imag + m2.imag.transpose(0, 2, 1))
    eigvals, basis = np.linalg.eigh(real_part)
    # degenerate eigenspaces, grouped by dimension: (items, first column)
    spaces: dict[int, tuple[list, list]] = {}
    for item, values in enumerate(eigvals.tolist()):
        start = 0
        while start < 4:
            stop = start + 1
            while stop < 4 and abs(values[stop] - values[start]) < _DEGENERACY_TOL:
                stop += 1
            if stop - start > 1:
                items, starts = spaces.setdefault(stop - start, ([], []))
                items.append(item)
                starts.append(start)
            start = stop
    for width, (items, starts) in spaces.items():
        where = (
            np.array(items)[:, None, None],
            _ROWS,
            np.add.outer(starts, np.arange(width))[:, None, :],
        )
        sub = basis[where]
        block = sub.transpose(0, 2, 1) @ imag_part[items] @ sub
        _, refinement = np.linalg.eigh(0.5 * (block + block.transpose(0, 2, 1)))
        basis[where] = sub @ refinement
    diag = basis.transpose(0, 2, 1) @ m2 @ basis
    eigvals = diag.diagonal(0, 1, 2)
    off = np.abs(diag[:, _OFF_ROWS, _OFF_COLUMNS]).max(axis=1)

    eigvals = eigvals / np.abs(eigvals)
    theta = np.angle(eigvals) / 2  # branch (-pi/2, pi/2]
    # Snap the branch cut: an eigenvalue of -1 +/- epsilon lands on theta of
    # +/- pi/2 unstably; fold the negative side up so equal-class inputs get
    # identical representatives (shifting theta by pi leaves D^2 unchanged).
    theta = np.where(theta < -np.pi / 2 + 1e-8, theta + np.pi, theta)
    order = (-theta).argsort(axis=1, kind="stable")
    rows = np.arange(len(theta))[:, None]
    theta = theta[rows, order]
    basis = basis[rows[:, None], _ROWS, order[:, None, :]]
    flip = np.linalg.det(basis) < 0
    basis[flip, :, 3] = -basis[flip, :, 3]
    # det(D) must be +1; the eigenphase sum is a multiple of pi, and shifting
    # one phase by pi flips the sign of exp(i*theta) without changing D^2.
    theta[:, 3] -= np.rint(theta.sum(axis=1) / np.pi) * np.pi
    a = (theta[:, 0] + theta[:, 1] - theta[:, 2] - theta[:, 3]) / 4
    b = (-theta[:, 0] + theta[:, 1] - theta[:, 2] + theta[:, 3]) / 4
    c = (theta[:, 0] - theta[:, 1] - theta[:, 2] + theta[:, 3]) / 4

    for item, index in enumerate(alive):
        if off[item] > 1e-6:
            results[index] = np.linalg.LinAlgError(
                f"simultaneous diagonalization failed (off-diagonal {off[item]:.2e})"
            )
            continue
        form = CanonicalForm()
        form.a, form.b, form.c = float(a[item]), float(b[item]), float(c[item])
        form.phase0 = phase0[item]
        form.magic, form.basis, form.theta = magic[item], basis[item], theta[item]
        results[index] = form
    return results


def weyl_factors(forms: list) -> list:
    """Factor stage of :func:`weyl_decompose`: finish each
    :class:`CanonicalForm` into a :class:`WeylDecomposition`.

    One stacked pass over all forms; a form whose local factors fail
    (``LinAlgError`` or ``ValueError``) gets that error in its place.
    """
    if not forms:
        return []
    return _isolated(_weyl_factors, forms)


def _weyl_factors(forms: list) -> list:
    count = len(forms)
    magic = np.stack([form.magic for form in forms])
    basis = np.stack([form.basis for form in forms])
    theta = np.stack([form.theta for form in forms])
    inverse = np.zeros((count, 4, 4), dtype=complex)
    inverse[:, _DIAGONAL, _DIAGONAL] = 1 / np.exp(1j * theta)
    o1 = magic @ basis @ inverse
    k1 = MAGIC_BASIS @ o1.real @ _MAGIC_DAG
    k2 = MAGIC_BASIS @ basis.transpose(0, 2, 1) @ _MAGIC_DAG
    factors = decompose_kron_stack(np.concatenate([k1, k2]))
    imaginary = np.abs(o1.imag).max(axis=(1, 2))
    # the phases of failed factorisations are placeholders, never read
    angles = np.angle([1 if isinstance(f, Exception) else f[0] for f in factors])
    results = []
    for item, form in enumerate(forms):
        outer, inner = factors[item], factors[count + item]  # K1, K2
        if imaginary[item] > 1e-6:
            results.append(np.linalg.LinAlgError("left orthogonal factor is not real"))
        elif isinstance(outer, Exception):
            results.append(outer)
        elif isinstance(inner, Exception):
            results.append(inner)
        else:
            phase = form.phase0 + angles[item] + angles[count + item]
            results.append(
                WeylDecomposition(
                    K1l=outer[1], K1r=outer[2], a=form.a, b=form.b, c=form.c,
                    K2l=inner[1], K2r=inner[2], phase=float(phase),
                )
            )
    return results


def _only(results: list):
    """The single item of a stage's results, raising it if it failed."""
    [result] = results
    if isinstance(result, Exception):
        raise result
    return result


def weyl_decompose(unitary: np.ndarray) -> WeylDecomposition:
    """Compute the Weyl decomposition of a two-qubit unitary.

    Runs :func:`canonical_forms` and :func:`weyl_factors` on a stack of
    one.  The qubit-ordering convention is that of the matrix itself: the
    left tensor factor acts on the first (most significant) index.  Callers
    that use little-endian circuits must map accordingly (see
    :mod:`repro.linalg.two_qubit_synthesis`).
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {unitary.shape}")
    return _only(weyl_factors([_only(canonical_forms(unitary[None]))]))


def cnot_budgets(unitaries, atol: float = 1e-8) -> list[int]:
    """:func:`num_cnots_required` of every matrix in a stack of 4x4
    unitaries, in one stacked pass.

    Every stacked operation is the per-matrix operation repeated, so a
    matrix gets the same count whatever stack it sits in.
    """
    stack = np.asarray(unitaries, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {stack.shape}")
    if not len(stack):
        return []
    dets = np.linalg.det(stack)
    special = stack * np.exp(-1j * np.angle(dets) / 4)[:, None, None]
    magic = _MAGIC_DAG @ special @ MAGIC_BASIS
    m2 = magic.transpose(0, 2, 1) @ magic
    traces = m2.trace(axis1=1, axis2=2).tolist()
    traces_sq = (m2 @ m2).trace(axis1=1, axis2=2).tolist()
    budgets = []
    for trace, trace_sq in zip(traces, traces_sq):
        if abs(trace.imag) < atol and abs(abs(trace.real) - 4.0) < atol:
            budgets.append(0)
        elif abs(trace) < atol and abs(trace_sq + 4.0) < atol:
            budgets.append(1)
        elif abs(trace.imag) < atol:
            budgets.append(2)
        else:
            budgets.append(3)
    return budgets


def num_cnots_required(unitary: np.ndarray, atol: float = 1e-8) -> int:
    """Minimum number of CNOT gates needed to implement ``unitary``.

    Implements the Shende--Bullock--Markov invariant tests on the spectrum of
    the magic-basis Gram matrix ``M2 = M^T M``:

    * 0 CNOTs  <=>  ``tr(M2) = +/-4`` (tensor product),
    * 1 CNOT   <=>  spectrum ``{i, i, -i, -i}``: ``tr(M2) = 0`` and
      ``tr(M2^2) = -4``,
    * 2 CNOTs  <=>  ``tr(M2)`` is real,
    * otherwise 3.

    This is :func:`cnot_budgets` on a stack of one.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {unitary.shape}")
    return cnot_budgets(unitary[None], atol)[0]
