"""The plan-size floor ``ConsolidateBlocks`` rejects CX-count ties by.

``plan_size_floor(budget)`` must never exceed the size of the budget plan
``plan_two_qubit_unitary`` makes for a unitary whose minimal CNOT count is
``budget``: a tie at or below the floor is rejected without a plan, so an
overestimate would drop a rewrite the pass used to keep.  The sweep is
derandomized and covers Haar-random unitaries, random classes and the
class boundaries where plan gates can vanish: ZZ rotations ``(0, 0, c)``
with ``c -> 0``, ``a = b``, and the ``pi/4`` edges.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.linalg.random import random_su2, random_unitary
from repro.linalg.two_qubit_synthesis import plan_size_floor, plan_two_qubit_unitary
from repro.linalg.weyl import canonical_gate, num_cnots_required

QUARTER = np.pi / 4

#: canonical coordinates ``(a, b, c)`` of each family, from three draws
FAMILIES = {
    "generic": lambda x, y, z: (x, y, z),
    "two_cnot": lambda x, y, z: (max(x, y), min(x, y), 0.0),
    "zz": lambda x, y, z: (0.0, 0.0, z),
    "a_equals_b": lambda x, y, z: (x, x, z),
    "a_equals_b_flat": lambda x, y, z: (x, x, 0.0),
    "cx_edge": lambda x, y, z: (QUARTER, y, 0.0),
    "quarter_edge": lambda x, y, z: (QUARTER, QUARTER, z),
    "quarter_plane": lambda x, y, z: (QUARTER, y, z),
    "x_axis": lambda x, y, z: (x, 0.0, 0.0),
}

#: angles in ``[0, pi/4]``: uniform, or tiny (``c -> 0``), or just below
#: ``pi/4``
angle = st.one_of(
    st.floats(0.0, QUARTER),
    st.integers(1, 12).map(lambda k: 10.0**-k),
    st.integers(1, 12).map(lambda k: QUARTER - 10.0**-k),
)


def assert_floor_holds(unitary: np.ndarray) -> None:
    budget = num_cnots_required(unitary, atol=1e-7)
    if budget < 2:
        return
    plan = plan_two_qubit_unitary(unitary, budget)
    if plan is not None:
        assert plan.size >= plan_size_floor(budget)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    x=angle,
    y=angle,
    z=angle,
    seed=st.integers(0, 2**32 - 1),
    locals_=st.booleans(),
)
def test_floor_never_exceeds_the_budget_plan(family, x, y, z, seed, locals_):
    core = canonical_gate(*FAMILIES[family](x, y, z))
    if locals_:
        rng = np.random.default_rng(seed)
        left = np.kron(random_su2(rng), random_su2(rng))
        right = np.kron(random_su2(rng), random_su2(rng))
        core = left @ core @ right
    assert_floor_holds(core)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_floor_holds_for_haar_random_unitaries(seed):
    unitary = random_unitary(4, seed)
    assert num_cnots_required(unitary, atol=1e-7) == 3
    assert_floor_holds(unitary)


def test_budget_2_floor_is_reached():
    """The budget-2 floor is tight: ``cx . u1(0.7) . cx`` plans to exactly
    its own three gates."""
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    circuit.u1(0.7, 1)
    circuit.cx(0, 1)
    assert plan_two_qubit_unitary(circuit.to_matrix(), 2).size == plan_size_floor(2) == 3
