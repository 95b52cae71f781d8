"""Batched numeric kernels over stacked small operands.

The transpiler's hot paths all reduce to the same shape of work: many
*independent* chains of 2x2 / 4x4 matrix algebra (block accumulation in
``ConsolidateBlocks``, run merging in ``Optimize1qGates``, per-gate
embedding in the simulators' fusion pre-step, Euler extraction of merged
runs).  Doing that one matrix at a time leaves almost all the time in
Python dispatch; this module instead operates on **stacked operands** --
``(N, d, d)`` arrays -- so a whole batch moves through one vectorized call:

* :func:`reduce_matmul` -- chained matrix product along the stack axis via
  log-depth pairwise ``matmul`` (``O(log N)`` kernel launches), with
  :func:`fold_matmul` as the bit-exact sequential variant;
* :func:`stack_chains` / :func:`chain_products` -- identity-pad ragged
  chains into one ``(B, L, d, d)`` block and reduce every chain at once;
* :func:`embed_1q_in_2q`, :func:`permute_2q`,
  :func:`two_qubit_chain_unitaries` -- batched embedding of mixed 1q/2q
  gate chains into stacked 4x4 block unitaries;
* :func:`u3_params_batch` -- stacked one-qubit Euler extraction matching
  :func:`repro.linalg.euler.u3_params_from_unitary` elementwise;
* :func:`bloch_rotation_batch` / :func:`basis_axes_batch` -- stacked
  SO(3) Bloch rotations and signed-axis classification (the basis-state
  tracker's transition, :func:`repro.rpo.states.transition`).

Every kernel here has a production caller: ``ConsolidateBlocks``,
``Optimize1qGates``, QPO, the simulators' fusion pre-step or the
basis-state tracker.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "reduce_matmul",
    "fold_matmul",
    "stack_chains",
    "chain_products",
    "embed_1q_in_2q",
    "permute_2q",
    "two_qubit_chain_unitaries",
    "u3_params_batch",
    "bloch_rotation_batch",
    "basis_axes_batch",
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


def _identities(batch_shape: tuple[int, ...], dim: int) -> np.ndarray:
    """A writable ``batch_shape + (dim, dim)`` stack of identities."""
    return np.broadcast_to(np.eye(dim, dtype=complex), batch_shape + (dim, dim)).copy()


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
    arr = _as_stack(stack)
    dim = arr.shape[-1]
    length = arr.shape[-3]
    if length == 0:
        return _identities(arr.shape[:-3], dim)
    while length > 1:
        even = arr[..., 0 : length - 1 : 2, :, :]
        odd = arr[..., 1:length:2, :, :]
        merged = np.matmul(odd, even)
        if length % 2:
            merged = np.concatenate(
                [merged, arr[..., length - 1 : length, :, :]], axis=-3
            )
        arr = merged
        length = arr.shape[-3]
    return arr[..., 0, :, :]


def fold_matmul(stack) -> np.ndarray:
    """Sequential chain product along axis ``-3`` (bit-exact left fold).

    Same contract as :func:`reduce_matmul` but multiplies strictly in time
    order -- ``acc = stack[t] @ acc`` -- which makes the result **bitwise
    identical** to a scalar one-matrix-at-a-time accumulation (batched
    ``matmul`` computes each element's product exactly like the scalar
    call).  The transpiler passes use this so their outputs are
    indistinguishable from a per-gate accumulation; prefer
    :func:`reduce_matmul` when log-depth matters more than the last ulp.
    """
    arr = _as_stack(stack)
    dim = arr.shape[-1]
    length = arr.shape[-3]
    if length == 0:
        return _identities(arr.shape[:-3], dim)
    acc = arr[..., 0, :, :]
    for step in range(1, length):
        acc = np.matmul(arr[..., step, :, :], acc)
    return acc


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
    matrices = _as_stack(stack)
    if matrices.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 operands, got shape {matrices.shape}")
    # hypot matches the scalar routine's abs() bitwise; complex np.abs
    # rounds the last ulp differently on some platforms
    top = matrices[..., 0, 0]
    bottom = matrices[..., 1, 0]
    cos_half = np.minimum(np.hypot(top.real, top.imag), 1.0)
    sin_half = np.minimum(np.hypot(bottom.real, bottom.imag), 1.0)
    theta = 2.0 * np.arctan2(sin_half, cos_half)

    phase_00 = np.angle(matrices[..., 0, 0])
    phase_10 = np.angle(matrices[..., 1, 0])
    phase_11 = np.angle(matrices[..., 1, 1])
    phase_01n = np.angle(-matrices[..., 0, 1])

    anti = cos_half < 1e-12  # anti-diagonal: u3(pi, ., .)
    diag = np.logical_and(~anti, sin_half < 1e-12)  # diagonal: u3(0, ., .)
    gamma = np.where(anti, 0.0, phase_00)
    phi = np.where(anti, phase_10, np.where(diag, phase_11 - phase_00, phase_10 - phase_00))
    lam = np.where(anti, phase_01n, np.where(diag, 0.0, phase_01n - phase_00))
    return np.stack([theta, phi, lam, gamma], axis=-1)


# -- batched RPO tracker kernels ---------------------------------------------

_PAULI_STACK = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def bloch_rotation_batch(stack) -> np.ndarray:
    """Vectorized :func:`repro.rpo.states.bloch_rotation_of_gate`.

    Input: ``(..., 2, 2)`` one-qubit unitaries.  Output: ``(..., 3, 3)``
    SO(3) Bloch rotations ``R_ij = Re tr(sigma_i U sigma_j U^dag) / 2``,
    computed with the scalar routine's association order (stacked matmuls
    of ``((P_i @ U) @ P_j) @ U^dag``), so entries are bit-identical to
    the per-gate loop.
    """
    matrices = _as_stack(stack)
    if matrices.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 operands, got shape {matrices.shape}")
    unitary = matrices[..., None, None, :, :]
    u_dag = np.conj(np.swapaxes(unitary, -1, -2))
    left = _PAULI_STACK[:, None, :, :]  # sigma_i axis
    right = _PAULI_STACK[None, :, :, :]  # sigma_j axis
    chain = np.matmul(np.matmul(np.matmul(left, unitary), right), u_dag)
    trace = chain[..., 0, 0] + chain[..., 1, 1]
    return 0.5 * np.real(trace)


def basis_axes_batch(vectors, atol: float = 1e-8, rtol: float = 1e-5):
    """Classify stacked Bloch vectors as signed Pauli axes.

    The vectorized form of :func:`repro.rpo.states.basis_state_of_bloch`:
    for each ``(..., 3)`` vector, pick the dominant axis with the scalar
    routine's exact tie-breaking (axis 0 wins ties against 1 and 2, axis
    1 wins against 2) and test ``|dominant - sign| <= atol + rtol`` with
    both remaining components ``<= atol``.  Returns ``(axis, sign)``
    integer arrays shaped ``(...,)``; entries that are not basis states
    (the lattice TOP) get ``axis = -1, sign = 0``.
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
