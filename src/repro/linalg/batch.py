"""Batched numeric kernels over stacked small operands.

The transpiler's hot paths all reduce to the same shape of work: many
*independent* chains of 2x2 / 4x4 matrix algebra (block accumulation in
``ConsolidateBlocks``, run merging in ``Optimize1qGates``, per-gate
embedding in the simulators' fusion pre-step, Weyl/Euler extraction during
synthesis).  Doing that one matrix at a time leaves almost all the time in
Python dispatch; this module instead operates on **stacked operands** --
``(N, d, d)`` arrays -- so a whole batch moves through one vectorized call:

* :func:`reduce_matmul` -- chained matrix product along the stack axis via
  log-depth pairwise ``matmul`` (``O(log N)`` kernel launches), with
  :func:`fold_matmul` as the bit-exact sequential variant;
* :func:`stack_chains` / :func:`chain_products` -- identity-pad ragged
  chains into one ``(B, L, d, d)`` block and reduce every chain at once;
* :func:`kron_batch`, :func:`embed_1q_in_2q`, :func:`permute_2q`,
  :func:`two_qubit_chain_unitaries` -- batched embedding of mixed 1q/2q
  gate chains into stacked 4x4 block unitaries;
* :func:`u3_params_batch` / :func:`euler_zyz_angles_batch` -- vectorized
  one-qubit Euler extraction matching
  :func:`repro.linalg.euler.u3_params_from_unitary` elementwise;
* :func:`weyl_coordinates_batch` -- canonical-gate coordinates of a stack
  of two-qubit unitaries (host NumPy: the Weyl kernel's coordinate stage);
* :func:`is_unitary_batch` / :func:`is_identity_up_to_phase_batch` --
  vectorized predicates mirroring :mod:`repro.linalg.predicates`;
* :func:`u3_matrix_batch` / :func:`apply_1q_batch` -- vectorized ``u3``
  construction and Bloch-tuple gate merging (the pure-state tracker's
  transition, :meth:`repro.rpo.pure_tracker.PureStateTracker.apply_1q_gate`);
* :func:`bloch_rotation_batch` / :func:`basis_axes_batch` -- stacked
  SO(3) Bloch rotations and signed-axis classification (the basis-state
  tracker's transition, :func:`repro.rpo.states.transition`);
* :func:`monomial_permutations_batch` -- generalized-permutation
  detection for the Hoare optimizer's support transformers.

Inputs are host (NumPy) arrays; the arithmetic dispatches through the
pluggable array backend (:mod:`repro.linalg.backend` -- NumPy by default,
CuPy when selected and available) and results always come back as NumPy
arrays, so callers never see device arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.linalg.backend import get_backend

__all__ = [
    "reduce_matmul",
    "fold_matmul",
    "stack_chains",
    "chain_products",
    "kron_batch",
    "embed_1q_in_2q",
    "permute_2q",
    "two_qubit_chain_unitaries",
    "u3_params_batch",
    "euler_zyz_angles_batch",
    "weyl_coordinates_batch",
    "is_unitary_batch",
    "is_identity_up_to_phase_batch",
    "u3_matrix_batch",
    "apply_1q_batch",
    "bloch_rotation_batch",
    "basis_axes_batch",
    "monomial_permutations_batch",
]

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _as_stack(stack, depth: int = 3) -> np.ndarray:
    arr = np.asarray(stack, dtype=complex)
    if arr.ndim < depth:
        raise ValueError(
            f"expected an array with >= {depth} dimensions, got shape {arr.shape}"
        )
    if arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"operands must be square, got shape {arr.shape}")
    return arr


# -- chained products --------------------------------------------------------


def reduce_matmul(stack) -> np.ndarray:
    """Chain-multiply along axis ``-3``: ``stack[-1] @ ... @ stack[0]``.

    Operand 0 is the *first applied* (rightmost) factor, matching circuit
    time order.  The reduction is log-depth pairwise -- adjacent pairs
    merge as ``stack[2i+1] @ stack[2i]`` until one matrix per batch entry
    remains -- so associativity (not operand order) is the only difference
    from a serial left fold.  Leading axes broadcast: a ``(B, L, d, d)``
    input reduces every chain of the batch simultaneously.  An empty chain
    axis yields identities.
    """
    backend = get_backend()
    arr = backend.asarray(_as_stack(stack), dtype=complex)
    dim = arr.shape[-1]
    length = arr.shape[-3]
    if length == 0:
        eye = backend.xp.eye(dim, dtype=complex)
        out = backend.xp.broadcast_to(eye, arr.shape[:-3] + (dim, dim))
        return backend.to_numpy(out).copy()
    while length > 1:
        even = arr[..., 0 : length - 1 : 2, :, :]
        odd = arr[..., 1:length:2, :, :]
        merged = backend.xp.matmul(odd, even)
        if length % 2:
            merged = backend.xp.concatenate(
                [merged, arr[..., length - 1 : length, :, :]], axis=-3
            )
        arr = merged
        length = arr.shape[-3]
    return backend.to_numpy(arr[..., 0, :, :])


def fold_matmul(stack) -> np.ndarray:
    """Sequential chain product along axis ``-3`` (bit-exact left fold).

    Same contract as :func:`reduce_matmul` but multiplies strictly in time
    order -- ``acc = stack[t] @ acc`` -- which makes the result **bitwise
    identical** to a scalar one-matrix-at-a-time accumulation (batched
    ``matmul`` computes each element's product exactly like the scalar
    call).  The batched transpiler passes use this so their outputs are
    indistinguishable from the serial reference paths; prefer
    :func:`reduce_matmul` when log-depth matters more than the last ulp.
    """
    backend = get_backend()
    arr = backend.asarray(_as_stack(stack), dtype=complex)
    dim = arr.shape[-1]
    length = arr.shape[-3]
    if length == 0:
        eye = backend.xp.eye(dim, dtype=complex)
        out = backend.xp.broadcast_to(eye, arr.shape[:-3] + (dim, dim))
        return backend.to_numpy(out).copy()
    acc = arr[..., 0, :, :]
    for step in range(1, length):
        acc = backend.xp.matmul(arr[..., step, :, :], acc)
    return backend.to_numpy(acc)


def stack_chains(chains: Sequence[Sequence[np.ndarray]], dim: int) -> np.ndarray:
    """Identity-pad ragged matrix chains into one ``(B, L, d, d)`` stack.

    Chain ``i`` occupies ``out[i, :len(chains[i])]``; the tail is padded
    with identities, which are neutral under :func:`reduce_matmul` (the
    pad sits on the *left* of the chain product).
    """
    num_chains = len(chains)
    longest = max((len(chain) for chain in chains), default=0)
    out = np.empty((num_chains, longest, dim, dim), dtype=complex)
    out[...] = np.eye(dim, dtype=complex)
    for row, chain in enumerate(chains):
        for position, matrix in enumerate(chain):
            out[row, position] = matrix
    return out


def chain_products(
    chains: Sequence[Sequence[np.ndarray]], dim: int, reduction: str = "fold"
) -> np.ndarray:
    """Per-chain time-ordered products, all computed in one reduction.

    ``reduction="fold"`` (default) is bit-exact against a scalar loop;
    ``"pairwise"`` uses the log-depth :func:`reduce_matmul`.  Returns a
    ``(B, d, d)`` stack; an empty chain contributes an identity.
    """
    if not chains:
        return np.empty((0, dim, dim), dtype=complex)
    reducer = fold_matmul if reduction == "fold" else reduce_matmul
    return reducer(stack_chains(chains, dim))


# -- batched embedding -------------------------------------------------------


def kron_batch(a, b) -> np.ndarray:
    """Elementwise Kronecker product of two stacks: ``out[i] = kron(a[i], b[i])``."""
    a = _as_stack(a)
    b = _as_stack(b)
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"batch shapes differ: {a.shape[:-2]} vs {b.shape[:-2]}")
    p = a.shape[-1]
    q = b.shape[-1]
    # broadcast multiply (the same arithmetic np.kron does, so results are
    # bitwise identical to per-matrix np.kron calls)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(a.shape[:-2] + (p * q, p * q))


def embed_1q_in_2q(stack, wires) -> np.ndarray:
    """Embed a stack of 2x2 gates into 4x4 two-qubit unitaries.

    ``wires[i]`` names the little-endian wire (0 or 1) gate ``i`` acts on,
    exactly as :func:`repro.circuit.matrix_utils.embed_gate` with
    ``qargs=(wires[i],)`` and ``num_qubits=2`` -- wire 0 is
    ``kron(I, A)``, wire 1 is ``kron(A, I)``.
    """
    stack = _as_stack(stack)
    wires = np.asarray(wires, dtype=np.intp)
    if stack.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 operands, got shape {stack.shape}")
    if wires.shape != stack.shape[:-2]:
        raise ValueError("one wire index per stacked gate required")
    out = np.zeros(stack.shape[:-2] + (4, 4), dtype=complex)
    low = wires == 0
    high = ~low
    # wire 0: block-diagonal copies; wire 1: interleaved copies
    out[low, 0:2, 0:2] = stack[low]
    out[low, 2:4, 2:4] = stack[low]
    out[high, 0::2, 0::2] = stack[high]
    out[high, 1::2, 1::2] = stack[high]
    return out


def permute_2q(stack) -> np.ndarray:
    """Reverse the wire order of stacked 4x4 gates (conjugation by SWAP).

    ``permute_2q(m)[i]`` equals ``embed_gate(m[i], (1, 0), 2)``.
    """
    stack = _as_stack(stack)
    if stack.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 operands, got shape {stack.shape}")
    return _SWAP @ stack @ _SWAP


def two_qubit_chain_unitaries(
    chains: Sequence[Sequence[tuple[np.ndarray, tuple[int, ...]]]],
    reduction: str = "fold",
) -> np.ndarray:
    """Unitaries of gate chains on a two-qubit register, one per chain.

    Each chain is a time-ordered sequence of ``(matrix, local_wires)``
    pairs -- 2x2 matrices on wire ``(0,)`` / ``(1,)`` or 4x4 matrices on
    ``(0, 1)`` / ``(1, 0)``.  All embeddings happen on stacked operands
    (:func:`embed_1q_in_2q`, :func:`permute_2q`) and every chain reduces
    in the same :func:`reduce_matmul` call, so the cost per gate is a few
    vectorized array ops instead of a Python-level ``embed_gate`` + matmul.
    Returns a ``(B, 4, 4)`` stack.
    """
    if not chains:
        return np.empty((0, 4, 4), dtype=complex)
    positions_1q: list[tuple[int, int]] = []
    matrices_1q: list[np.ndarray] = []
    wires_1q: list[int] = []
    positions_2q_rev: list[tuple[int, int]] = []
    matrices_2q_rev: list[np.ndarray] = []
    longest = max(len(chain) for chain in chains)
    if longest == 0:
        return np.broadcast_to(np.eye(4, dtype=complex), (len(chains), 4, 4)).copy()
    padded = np.empty((len(chains), longest, 4, 4), dtype=complex)
    padded[...] = np.eye(4, dtype=complex)
    for row, chain in enumerate(chains):
        for position, (matrix, local) in enumerate(chain):
            if len(local) == 1:
                positions_1q.append((row, position))
                matrices_1q.append(matrix)
                wires_1q.append(local[0])
            elif local == (0, 1):
                padded[row, position] = matrix
            elif local == (1, 0):
                positions_2q_rev.append((row, position))
                matrices_2q_rev.append(matrix)
            else:
                raise ValueError(f"unsupported local wires {local!r}")
    if matrices_1q:
        embedded = embed_1q_in_2q(np.stack(matrices_1q), np.asarray(wires_1q))
        rows, cols = zip(*positions_1q)
        padded[list(rows), list(cols)] = embedded
    if matrices_2q_rev:
        swapped = permute_2q(np.stack(matrices_2q_rev))
        rows, cols = zip(*positions_2q_rev)
        padded[list(rows), list(cols)] = swapped
    reducer = fold_matmul if reduction == "fold" else reduce_matmul
    return reducer(padded)


# -- batched Euler extraction ------------------------------------------------


def u3_params_batch(stack) -> np.ndarray:
    """Vectorized :func:`repro.linalg.euler.u3_params_from_unitary`.

    Input: ``(N, 2, 2)`` unitaries.  Output: ``(N, 4)`` rows of
    ``(theta, phi, lam, gamma)``, matching the scalar routine elementwise
    (same branch structure, same clamping).
    """
    backend = get_backend()
    matrices = backend.asarray(_as_stack(stack), dtype=complex)
    if matrices.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 operands, got shape {matrices.shape}")
    xp = backend.xp
    # hypot matches the scalar routine's abs() bitwise; complex xp.abs
    # rounds the last ulp differently on some platforms
    top = matrices[..., 0, 0]
    bottom = matrices[..., 1, 0]
    cos_half = xp.minimum(xp.hypot(top.real, top.imag), 1.0)
    sin_half = xp.minimum(xp.hypot(bottom.real, bottom.imag), 1.0)
    theta = 2.0 * xp.arctan2(sin_half, cos_half)

    phase_00 = xp.angle(matrices[..., 0, 0])
    phase_10 = xp.angle(matrices[..., 1, 0])
    phase_11 = xp.angle(matrices[..., 1, 1])
    phase_01n = xp.angle(-matrices[..., 0, 1])

    anti = cos_half < 1e-12  # anti-diagonal: u3(pi, ., .)
    diag = xp.logical_and(~anti, sin_half < 1e-12)  # diagonal: u3(0, ., .)
    gamma = xp.where(anti, 0.0, phase_00)
    phi = xp.where(anti, phase_10, xp.where(diag, phase_11 - phase_00, phase_10 - phase_00))
    lam = xp.where(anti, phase_01n, xp.where(diag, 0.0, phase_01n - phase_00))
    out = xp.stack([theta, phi, lam, gamma], axis=-1)
    return backend.to_numpy(out)


def euler_zyz_angles_batch(stack) -> np.ndarray:
    """Vectorized :func:`repro.linalg.euler.euler_zyz_angles`.

    Output rows are ``(theta, phi, lam, alpha)`` with
    ``alpha = gamma + (phi + lam) / 2``.
    """
    params = u3_params_batch(stack)
    out = params.copy()
    out[..., 3] = params[..., 3] + (params[..., 1] + params[..., 2]) / 2
    return out


# -- batched RPO tracker kernels ---------------------------------------------

_PAULI_STACK = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def u3_matrix_batch(params) -> np.ndarray:
    """Vectorized :func:`repro.linalg.euler.u3_matrix`.

    Input: ``(..., 3)`` rows of ``(theta, phi, lam)``.  Output:
    ``(..., 2, 2)`` unitaries matching the scalar constructor elementwise
    (same ``cos/sin/exp`` arithmetic, entries within 1 ulp).
    """
    backend = get_backend()
    xp = backend.xp
    angles = backend.asarray(np.asarray(params, dtype=float))
    if angles.ndim < 2 or angles.shape[-1] != 3:
        raise ValueError(f"expected (..., 3) angle rows, got shape {angles.shape}")
    theta = angles[..., 0]
    phi = angles[..., 1]
    lam = angles[..., 2]
    cos = xp.cos(theta / 2.0)
    sin = xp.sin(theta / 2.0)
    out = xp.empty(angles.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = cos
    out[..., 0, 1] = -xp.exp(1j * lam) * sin
    out[..., 1, 0] = xp.exp(1j * phi) * sin
    out[..., 1, 1] = xp.exp(1j * (phi + lam)) * cos
    return backend.to_numpy(out)


def apply_1q_batch(matrices, params) -> np.ndarray:
    """Merged Bloch tuples after one-qubit gates: the stacked form of
    :meth:`repro.rpo.pure_tracker.PureStateTracker.apply_1q_gate`.

    ``params`` is a ``(..., 2)`` stack of ``(theta, phi)`` pure-state
    tuples; ``matrices`` is a single ``(2, 2)`` gate (broadcast over the
    stack) or a matching ``(..., 2, 2)`` stack.  Each tuple is merged as
    ``u3_params(matrix @ u3(theta, phi, 0))`` -- the scalar tracker's
    arithmetic verbatim (stacked matmul is elementwise bit-identical to
    the per-matrix product; extraction matches the scalar branch
    structure) -- and the new ``(..., 2)`` tuples are returned.
    """
    tuples = np.asarray(params, dtype=float)
    if tuples.ndim < 2 or tuples.shape[-1] != 2:
        raise ValueError(f"expected (..., 2) Bloch tuples, got shape {tuples.shape}")
    full = np.concatenate([tuples, np.zeros(tuples.shape[:-1] + (1,))], axis=-1)
    prepared = u3_matrix_batch(full)
    merged = u3_params_batch(np.asarray(matrices, dtype=complex) @ prepared)
    return merged[..., :2]


def bloch_rotation_batch(stack) -> np.ndarray:
    """Vectorized :func:`repro.rpo.states.bloch_rotation_of_gate`.

    Input: ``(..., 2, 2)`` one-qubit unitaries.  Output: ``(..., 3, 3)``
    SO(3) Bloch rotations ``R_ij = Re tr(sigma_i U sigma_j U^dag) / 2``,
    computed with the scalar routine's association order (stacked matmuls
    of ``((P_i @ U) @ P_j) @ U^dag``), so entries are bit-identical to
    the per-gate loop.
    """
    backend = get_backend()
    xp = backend.xp
    matrices = _as_stack(stack)
    if matrices.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 operands, got shape {matrices.shape}")
    unitary = backend.asarray(matrices)[..., None, None, :, :]
    u_dag = xp.conj(xp.swapaxes(unitary, -1, -2))
    paulis = backend.asarray(_PAULI_STACK)
    left = paulis[:, None, :, :]  # sigma_i axis
    right = paulis[None, :, :, :]  # sigma_j axis
    chain = xp.matmul(xp.matmul(xp.matmul(left, unitary), right), u_dag)
    trace = chain[..., 0, 0] + chain[..., 1, 1]
    return backend.to_numpy(0.5 * xp.real(trace))


def basis_axes_batch(vectors, atol: float = 1e-8, rtol: float = 1e-5):
    """Classify stacked Bloch vectors as signed Pauli axes.

    The vectorized form of :func:`repro.rpo.states.basis_state_of_bloch`:
    for each ``(..., 3)`` vector, pick the dominant axis with the scalar
    routine's exact tie-breaking (axis 0 wins ties against 1 and 2, axis
    1 wins against 2) and test ``|dominant - sign| <= atol + rtol`` with
    both remaining components ``<= atol``.  Returns ``(axis, sign)``
    integer arrays shaped ``(...,)``; entries that are not basis states
    (the lattice TOP) get ``axis = -1, sign = 0``.

    This is a cheap host-side predicate -- inputs small, comparisons
    branch-free -- so it runs on NumPy regardless of the active backend.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim < 1 or v.shape[-1] != 3:
        raise ValueError(f"expected (..., 3) Bloch vectors, got shape {v.shape}")
    magnitude = np.abs(v)
    a0, a1, a2 = magnitude[..., 0], magnitude[..., 1], magnitude[..., 2]
    pick0 = (a0 >= a1) & (a0 >= a2)
    axis = np.where(pick0, 0, np.where(a1 >= a2, 1, 2))
    dominant = np.take_along_axis(v, axis[..., None], axis=-1)[..., 0]
    rest = magnitude.copy()
    np.put_along_axis(rest, axis[..., None], -np.inf, axis=-1)
    # max(rest) <= atol  <=>  both non-dominant components <= atol
    rest_ok = rest.max(axis=-1) <= atol
    sign = np.where(dominant >= 0, 1, -1)
    known = (np.abs(dominant - sign) <= atol + rtol) & rest_ok
    return np.where(known, axis, -1), np.where(known, sign, 0)


def monomial_permutations_batch(stack, tol: float = 1e-10):
    """Column->row permutations of stacked generalized-permutation matrices.

    The vectorized form of the Hoare optimizer's monomial test: matrix
    ``i`` is a generalized permutation when every column holds exactly one
    entry with ``|entry| > tol``.  Returns ``(permutations, valid)`` --
    an ``(N, d)`` integer array mapping column -> row (rows of invalid
    matrices are filled with ``-1``) and an ``(N,)`` boolean mask.
    """
    magnitude = np.abs(_as_stack(stack))
    counts = (magnitude > tol).sum(axis=-2)
    valid = (counts == 1).all(axis=-1)
    # argmax per column: with exactly one entry above tol it IS that entry
    permutation = magnitude.argmax(axis=-2)
    return np.where(valid[..., None], permutation, -1), valid


# -- batched Weyl coordinates ------------------------------------------------


def weyl_coordinates_batch(stack) -> np.ndarray:
    """Canonical-gate coordinates ``(a, b, c)`` of stacked 4x4 unitaries.

    The coordinate stage of the Weyl kernel
    (:func:`repro.linalg.weyl.canonical_forms`), which runs on host NumPy
    like all two-qubit synthesis: elementwise bit-identical to
    :func:`repro.linalg.weyl.weyl_coordinates`.  Returns an ``(N, 3)``
    array; a matrix the kernel rejects raises its error.
    """
    from repro.linalg.weyl import canonical_forms

    unitaries = _as_stack(stack)
    if unitaries.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 operands, got shape {unitaries.shape}")
    forms = canonical_forms(unitaries.reshape(-1, 4, 4))
    for form in forms:
        if isinstance(form, ValueError):
            raise ValueError(f"stack contains a non-unitary matrix: {form}")
        if isinstance(form, Exception):
            raise form
    coordinates = np.array([form.coordinates for form in forms], dtype=float)
    return coordinates.reshape(unitaries.shape[:-2] + (3,))


# -- batched predicates ------------------------------------------------------


def is_unitary_batch(stack, atol: float = 1e-8, rtol: float = 1e-5) -> np.ndarray:
    """Elementwise :func:`repro.linalg.predicates.is_unitary` over a stack.

    Returns an ``(N,)`` boolean array; tolerance semantics match
    ``np.allclose(m @ m^H, I, atol=atol)`` (including its ``rtol`` term).
    """
    backend = get_backend()
    xp = backend.xp
    matrices = backend.asarray(_as_stack(stack), dtype=complex)
    dim = matrices.shape[-1]
    product = xp.matmul(matrices, xp.conj(xp.swapaxes(matrices, -1, -2)))
    eye = xp.eye(dim, dtype=complex)
    close = xp.abs(product - eye) <= atol + rtol * xp.abs(eye)
    return backend.to_numpy(close.all(axis=(-1, -2)))


def is_identity_up_to_phase_batch(
    stack, atol: float = 1e-8, rtol: float = 1e-5
) -> np.ndarray:
    """Elementwise :func:`repro.linalg.predicates.is_identity_up_to_phase`.

    Uses the same pivot convention as the scalar predicate against the
    identity (pivot entry ``(0, 0)``): estimate the phase from ``m[0, 0]``
    and compare ``m`` against ``z * I``.
    """
    backend = get_backend()
    xp = backend.xp
    matrices = backend.asarray(_as_stack(stack), dtype=complex)
    dim = matrices.shape[-1]
    pivot = matrices[..., 0, 0]
    unit_phase = xp.abs(xp.abs(pivot) - 1.0) <= atol * 10
    safe = xp.where(xp.abs(pivot) < 1e-300, 1.0, pivot)
    scaled = xp.eye(dim, dtype=complex) * safe[..., None, None]
    close = (xp.abs(matrices - scaled) <= atol + rtol * xp.abs(scaled)).all(
        axis=(-1, -2)
    )
    return backend.to_numpy(xp.logical_and(unit_phase, close))
