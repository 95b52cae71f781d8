"""Parity tests: batched stacked-operand kernels vs their scalar references.

The contract under test (see ``repro/linalg/batch.py``): ``fold``-reduced
chain products are **bitwise identical** to a scalar one-matmul-at-a-time
accumulation; everything phase/angle-valued matches its scalar counterpart
to well below synthesis tolerances (vectorized ``arctan2``/``angle`` may
round the last ulp differently from libm).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.matrix_utils import embed_gate
from repro.gates.matrices import standard_gate_matrix
from repro.linalg.batch import (
    basis_axes_batch,
    bloch_rotation_batch,
    chain_products,
    embed_1q_in_2q,
    fold_matmul,
    permute_2q,
    reduce_matmul,
    stack_chains,
    two_qubit_chain_unitaries,
    u3_params_batch,
)
from repro.linalg.euler import u3_matrix, u3_params_from_unitary
from repro.linalg.random import random_unitary

seeds = st.integers(min_value=0, max_value=10_000)


def su_stack(dim: int, count: int, seed: int) -> np.ndarray:
    """A ``(count, dim, dim)`` stack of seeded Haar-random unitaries."""
    if count == 0:
        return np.empty((0, dim, dim), dtype=complex)
    return np.stack([random_unitary(dim, seed * 1000 + i) for i in range(count)])


def serial_product(stack: np.ndarray) -> np.ndarray:
    """Scalar reference: time-ordered left fold, one matmul per factor."""
    acc = np.eye(stack.shape[-1], dtype=complex)
    for matrix in stack:
        acc = matrix @ acc
    return acc


class TestChainedProducts:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, length=st.integers(0, 12), dim=st.sampled_from([2, 4]))
    def test_fold_matmul_bitwise_matches_serial(self, seed, length, dim):
        stack = su_stack(dim, length, seed)
        assert np.array_equal(fold_matmul(stack), serial_product(stack))

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, length=st.integers(0, 12), dim=st.sampled_from([2, 4]))
    def test_reduce_matmul_matches_serial(self, seed, length, dim):
        stack = su_stack(dim, length, seed)
        assert np.allclose(reduce_matmul(stack), serial_product(stack), atol=1e-12)

    def test_empty_chain_yields_identity(self):
        for reducer in (reduce_matmul, fold_matmul):
            assert np.array_equal(reducer(np.empty((0, 4, 4))), np.eye(4))

    @pytest.mark.parametrize("reducer", [reduce_matmul, fold_matmul])
    def test_empty_chains_are_writable_identities(self, reducer):
        out = reducer(np.empty((3, 0, 2, 2)))
        assert out.shape == (3, 2, 2)
        assert out.flags.writeable
        out[0, 0, 0] = 5.0  # owns its memory: no aliasing between rows
        assert np.array_equal(out[1], np.eye(2))

    def test_single_factor_is_exact(self):
        matrix = random_unitary(2, 7)
        for reducer in (reduce_matmul, fold_matmul):
            assert np.array_equal(reducer(matrix[None]), matrix)

    def test_batched_chains_broadcast(self):
        stacks = np.stack([su_stack(2, 5, seed) for seed in range(4)])
        out = reduce_matmul(stacks)
        assert out.shape == (4, 2, 2)
        for row, chain in enumerate(stacks):
            assert np.allclose(out[row], serial_product(chain), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, lengths=st.lists(st.integers(0, 6), min_size=0, max_size=5))
    def test_chain_products_ragged(self, seed, lengths):
        chains = [
            [random_unitary(2, seed + 31 * row + i) for i in range(length)]
            for row, length in enumerate(lengths)
        ]
        out = chain_products(chains, 2)
        assert out.shape == (len(chains), 2, 2)
        for row, chain in enumerate(chains):
            acc = np.eye(2, dtype=complex)
            for matrix in chain:
                acc = matrix @ acc
            assert np.array_equal(out[row], acc)

    def test_stack_chains_pads_with_identity(self):
        a = random_unitary(2, 1)
        padded = stack_chains([[a], []], 2)
        assert padded.shape == (2, 1, 2, 2)
        assert np.array_equal(padded[0, 0], a)
        assert np.array_equal(padded[1, 0], np.eye(2))


class TestBatchedEmbedding:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, count=st.integers(1, 8))
    def test_embed_1q_matches_embed_gate(self, seed, count):
        stack = su_stack(2, count, seed)
        wires = np.arange(count) % 2
        out = embed_1q_in_2q(stack, wires)
        for i in range(count):
            reference = embed_gate(stack[i], (int(wires[i]),), 2)
            assert np.array_equal(out[i], reference)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, count=st.integers(1, 6))
    def test_permute_2q_matches_embed_gate(self, seed, count):
        stack = su_stack(4, count, seed)
        out = permute_2q(stack)
        for i in range(count):
            assert np.array_equal(out[i], embed_gate(stack[i], (1, 0), 2))

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, lengths=st.lists(st.integers(0, 8), min_size=0, max_size=4))
    def test_two_qubit_chain_unitaries_bitwise(self, seed, lengths):
        rng = np.random.default_rng(seed)
        chains = []
        for length in lengths:
            chain = []
            for _ in range(length):
                roll = rng.random()
                sub_seed = int(rng.integers(1 << 31))
                if roll < 0.5:
                    chain.append((random_unitary(2, sub_seed), (int(rng.integers(2)),)))
                elif roll < 0.75:
                    chain.append((random_unitary(4, sub_seed), (0, 1)))
                else:
                    chain.append((random_unitary(4, sub_seed), (1, 0)))
            chains.append(chain)
        out = two_qubit_chain_unitaries(chains)
        assert out.shape == (len(chains), 4, 4)
        for row, chain in enumerate(chains):
            acc = np.eye(4, dtype=complex)
            for matrix, local in chain:
                acc = embed_gate(matrix, local, 2) @ acc
            assert np.array_equal(out[row], acc)

    def test_two_qubit_chain_rejects_bad_wires(self):
        with pytest.raises(ValueError, match="unsupported local wires"):
            two_qubit_chain_unitaries([[(np.eye(4, dtype=complex), (0, 2))]])


DEGENERATE_1Q = ["id", "x", "y", "z", "h", "s", "t", "sx"]


class TestEulerBatch:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, count=st.integers(1, 10))
    def test_u3_params_match_scalar(self, seed, count):
        stack = su_stack(2, count, seed)
        batched = u3_params_batch(stack)
        assert batched.shape == (count, 4)
        for i in range(count):
            scalar = u3_params_from_unitary(stack[i])
            assert np.allclose(batched[i], scalar, atol=1e-12)

    @pytest.mark.parametrize("name", DEGENERATE_1Q)
    def test_degenerate_branches_match_scalar(self, name):
        matrix = standard_gate_matrix(name)
        batched = u3_params_batch(matrix[None])[0]
        assert np.allclose(batched, u3_params_from_unitary(matrix), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_reconstruction(self, seed):
        matrix = random_unitary(2, seed)
        theta, phi, lam, gamma = u3_params_batch(matrix[None])[0]
        rebuilt = np.exp(1j * gamma) * u3_matrix(theta, phi, lam)
        assert np.allclose(rebuilt, matrix, atol=1e-9)

    def test_empty_stack(self):
        assert u3_params_batch(np.empty((0, 2, 2))).shape == (0, 4)


class TestTrackerKernels:
    """Parity for the basis-state tracker's stacked transition kernels
    against their scalar references in :mod:`repro.rpo.states`."""

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, count=st.integers(1, 10))
    def test_bloch_rotation_batch_matches_scalar(self, seed, count):
        from repro.rpo.states import bloch_rotation_of_gate

        stack = su_stack(2, count, seed)
        batched = bloch_rotation_batch(stack)
        for i in range(count):
            assert np.array_equal(batched[i], bloch_rotation_of_gate(stack[i]))

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, count=st.integers(1, 16))
    def test_basis_axes_batch_matches_scalar(self, seed, count):
        from repro.rpo.states import TOP, basis_state_of_bloch

        rng = np.random.default_rng(seed)
        exact = np.eye(3)[rng.integers(0, 3, count)] * rng.choice([1, -1], count)[:, None]
        noisy = exact + rng.normal(0, 1e-10, (count, 3))
        fuzzy = rng.normal(0, 0.5, (count, 3))
        for vectors in (exact, noisy, fuzzy):
            axes, signs = basis_axes_batch(vectors)
            for i in range(count):
                state = basis_state_of_bloch(vectors[i])
                if state is TOP:
                    assert axes[i] == -1 and signs[i] == 0
                else:
                    assert axes[i] == state.axis and signs[i] == state.sign
