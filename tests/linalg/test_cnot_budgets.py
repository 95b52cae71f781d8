"""The stacked CNOT-budget kernel against the scalar oracle.

``cnot_budgets`` must give the integer the scalar
:func:`tests.linalg.scalar_weyl.num_cnots_required` gives for every
matrix, whatever stack it sits in: ``ConsolidateBlocks`` reads its block
budgets from one stacked call per run, and synthesis starts from them.
The sweep is derandomized and covers Haar-random unitaries, tensor
products, the CX class, real-trace 2-CNOT classes and perturbations of
each class whose trace invariants land within a few ``atol`` of the
thresholds the count is decided by.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.random import random_su2, random_unitary
from repro.linalg.weyl import canonical_gate, cnot_budgets, num_cnots_required

from tests.linalg.scalar_weyl import num_cnots_required as scalar_num_cnots_required

QUARTER = np.pi / 4
ATOLS = (1e-7, 1e-8)


def local_pair(rng) -> np.ndarray:
    return np.kron(random_su2(rng), random_su2(rng))


def dressed(core: np.ndarray, rng) -> np.ndarray:
    """``core`` between random local gates, with a random global phase."""
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
    return phase * local_pair(rng) @ core @ local_pair(rng)


#: class representatives ``(a, b, c)`` from two draws in ``[0, pi/4]``
CLASSES = {
    "product": lambda x, y: (0.0, 0.0, 0.0),
    "cx": lambda x, y: (QUARTER, 0.0, 0.0),
    "two_cnot": lambda x, y: (max(x, y), min(x, y), 0.0),
    "zz": lambda x, y: (0.0, 0.0, x),
    "quarter_edge": lambda x, y: (QUARTER, QUARTER, y),
    "generic": lambda x, y: (QUARTER, x, y),
}

#: offsets of each coordinate, in units of ``atol`` or ``sqrt(atol)``:
#: zero, or a few units either side.  The 2-vs-3 test on ``Im tr(M2)``
#: moves linearly with a coordinate, the 0- and 1-CNOT tests move
#: quadratically, so each unit carries some matrices across a threshold.
offset = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 5.0]),
    st.floats(-10.0, 10.0),
)


def assert_matches_oracle(matrices: list, atol: float) -> None:
    expected = [scalar_num_cnots_required(matrix, atol=atol) for matrix in matrices]
    assert cnot_budgets(np.array(matrices), atol=atol) == expected
    assert [num_cnots_required(matrix, atol=atol) for matrix in matrices] == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(CLASSES)),
    x=st.floats(0.0, QUARTER),
    y=st.floats(0.0, QUARTER),
    shifts=st.tuples(offset, offset, offset),
    atol=st.sampled_from(ATOLS),
    squared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_classes_and_threshold_perturbations(family, x, y, shifts, atol, squared, seed):
    rng = np.random.default_rng(seed)
    a, b, c = CLASSES[family](x, y)
    unit = np.sqrt(atol) if squared else atol
    da, db, dc = (shift * unit for shift in shifts)
    matrices = [
        dressed(canonical_gate(a, b, c), rng),
        dressed(canonical_gate(a + da, b + db, c + dc), rng),
        canonical_gate(a + da, b + db, c + dc),
    ]
    assert_matches_oracle(matrices, atol)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), atol=st.sampled_from(ATOLS))
def test_haar_unitaries_and_tensor_products(seed, atol):
    rng = np.random.default_rng(seed)
    matrices = [random_unitary(4, rng) for _ in range(3)]
    matrices += [local_pair(rng) for _ in range(3)]
    assert_matches_oracle(matrices, atol)


@pytest.mark.parametrize("seed", range(4))
def test_a_budget_does_not_depend_on_its_stack(seed):
    rng = np.random.default_rng(seed)
    matrices = [dressed(canonical_gate(*CLASSES[name](0.3, 0.2)), rng) for name in CLASSES]
    matrices += [random_unitary(4, rng), np.eye(4, dtype=complex)]
    alone = [cnot_budgets(matrix[None])[0] for matrix in matrices]
    assert cnot_budgets(np.array(matrices)) == alone
    assert cnot_budgets(np.array(matrices[::-1])) == alone[::-1]
    assert sorted(set(alone)) == [0, 1, 2, 3]


def test_shapes():
    assert cnot_budgets(np.empty((0, 4, 4), dtype=complex)) == []
    with pytest.raises(ValueError):
        cnot_budgets(np.eye(4))
    with pytest.raises(ValueError):
        num_cnots_required(np.eye(2))
