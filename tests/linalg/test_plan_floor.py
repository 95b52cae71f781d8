"""The plan-size floor and bound ``ConsolidateBlocks`` rejects CX-count
ties by.

``plan_size_floor(budget)`` and ``plan_size_bounds`` must never exceed the
size of the budget plan ``plan_two_qubit_unitary`` makes for a unitary
whose minimal CNOT count is ``budget``: a tie at or below either is
rejected without a plan, so an overestimate would drop a rewrite the pass
used to keep.  The sweeps are derandomized and cover Haar-random
unitaries, random classes and the class boundaries where plan gates can
vanish: ZZ rotations ``(0, 0, c)`` with ``c -> 0``, ``a = b``, and the
``pi/4`` edges; for the bound also the plan templates themselves, up to
phases, with their outer layers perturbed, Pauli-gauge variants and
near-boundary classes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.linalg.random import random_su2, random_unitary
from repro.linalg.two_qubit_synthesis import (
    plan_size_bounds,
    plan_size_floor,
    plan_two_qubit_unitary,
)
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
    assert_bound_holds(unitary, budget, plan)


def assert_bound_holds(unitary: np.ndarray, budget: int, plan="unplanned") -> tuple[int, int]:
    """Both stages of the bound lie between the floor and the budget plan's
    size; returns ``(outer-factor bound, bound with the rotation stage)``."""
    if plan == "unplanned":
        plan = plan_two_qubit_unitary(unitary, budget)
    [outer] = plan_size_bounds([unitary], [budget])
    [rotation] = plan_size_bounds([unitary], [budget], [outer + 1])
    assert plan_size_floor(budget) <= outer <= rotation <= outer + 1
    if budget == 3:
        assert rotation == outer  # the rotation stage is for 2-CNOT plans
    if plan is not None:
        assert rotation <= plan.size
    return outer, rotation


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


# -- the plan-size bound --------------------------------------------------

_S = np.diag([1, 1j])
_CX_CONTROL_1 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.diag([1, -1]).astype(complex),
]


def _ry(theta):
    return np.array(
        [[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]]
    )


def _rz(phi):
    return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def template(cnots: int, a: float, b: float, c: float) -> np.ndarray:
    """The core each plan emits between its outer one-qubit layers:
    ``CX (Ry(-2b) (x) Rz(2a)) CX`` (control qubit 1) for 2 CNOTs, and the
    canonical identity's ``CAN(a, b, c) (I (x) S)`` for 3."""
    if cnots == 2:
        return _CX_CONTROL_1 @ np.kron(_ry(-2 * b), _rz(2 * a)) @ _CX_CONTROL_1
    return canonical_gate(a, b, c) @ np.kron(np.eye(2), _S)


def one_qubit_layer(rng, scale: float | None = None) -> np.ndarray:
    """A random local layer: Haar-random with a random phase, or within
    ``scale`` of the identity."""
    if scale is None:
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        return phase * np.kron(random_su2(rng), random_su2(rng))
    generators = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    hermitian = generators + generators.conj().transpose(0, 2, 1)
    factors = []
    for h in hermitian:
        values, vectors = np.linalg.eigh(h)
        factors.append(vectors @ np.diag(np.exp(1j * scale * values)) @ vectors.conj().T)
    return np.kron(*factors)


#: tiny, uniform and near-``pi/4`` coordinates for the bound's sweeps
coordinate = st.one_of(
    st.floats(0.05, QUARTER - 0.05),
    st.sampled_from([1e-4, 1e-2, QUARTER - 1e-4, QUARTER - 1e-2]),
)
#: phases of the template sweeps, as an angle
phase = st.floats(0.0, 2 * np.pi)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cnots=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_bound_holds_on_random_blocks(cnots, seed):
    """A random 2- or 3-CNOT class between random one-qubit layers; its
    template is never recovered, so the outer-factor test fires."""
    rng = np.random.default_rng(seed)
    a, b, c = sorted(rng.uniform(0.05, QUARTER - 0.05, 3), reverse=True)
    core = canonical_gate(a, b, c if cnots == 3 else 0.0)
    unitary = one_qubit_layer(rng) @ core @ one_qubit_layer(rng)
    assert num_cnots_required(unitary, atol=1e-7) == cnots
    outer, _ = assert_bound_holds(unitary, cnots)
    assert outer == plan_size_floor(cnots) + 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cnots=st.sampled_from([2, 3]),
    a=coordinate,
    b=coordinate,
    c=coordinate,
    angle=phase,
    signs=st.tuples(st.booleans(), st.booleans()),
)
def test_templates_up_to_phases_are_not_refuted(cnots, a, b, c, angle, signs):
    """A plan's own template times a phase may plan to the bare floor, so
    the outer-factor test must not fire on it."""
    a, b = (-a if signs[0] else a), (-b if signs[1] else b)
    unitary = np.exp(1j * angle) * template(cnots, a, b, c)
    budget = num_cnots_required(unitary, atol=1e-7)
    if budget != cnots:
        return  # a boundary draw of another class
    outer, rotation = assert_bound_holds(unitary, budget)
    assert outer == plan_size_floor(cnots)
    if cnots == 2:
        # a 2-CNOT class with ``b != 0`` always emits its ``Ry(-2b)``
        assert rotation == plan_size_floor(cnots) + 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    cnots=st.sampled_from([2, 3]),
    a=coordinate,
    b=coordinate,
    c=coordinate,
    exponent=st.integers(2, 13),
    seed=st.integers(0, 2**32 - 1),
    side=st.sampled_from(["before", "after", "both"]),
)
def test_bound_holds_with_perturbed_outer_layers(cnots, a, b, c, exponent, seed, side):
    """Outer layers within 1e-13...1e-2 of the identity: the bound holds at
    every scale, and stays at the floor while the layers are too close to
    the identity for any plan to emit them as more than a rounding."""
    rng = np.random.default_rng(seed)
    scale = 10.0**-exponent
    unitary = template(cnots, a, b, c)
    if side in ("before", "both"):
        unitary = unitary @ one_qubit_layer(rng, scale)
    if side in ("after", "both"):
        unitary = one_qubit_layer(rng, scale) @ unitary
    budget = num_cnots_required(unitary, atol=1e-7)
    if budget < 2:
        return
    outer, _ = assert_bound_holds(unitary, budget)
    if budget == cnots and scale <= 1e-6:
        assert outer == plan_size_floor(cnots)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cnots=st.sampled_from([2, 3]),
    a=coordinate,
    b=coordinate,
    c=coordinate,
    paulis=st.tuples(*[st.integers(0, 3)] * 4),
    shifts=st.tuples(*[st.integers(-2, 2)] * 3),
)
def test_bound_holds_on_pauli_gauge_variants(cnots, a, b, c, paulis, shifts):
    """Pauli-gauge variants of a template: Pauli (x) Pauli layers around it,
    and canonical coordinates shifted by multiples of ``pi/2`` (the same
    class up to a Pauli (x) Pauli local)."""
    half = np.pi / 2
    if cnots == 2:
        core = template(2, a + shifts[0] * half, b + shifts[1] * half, 0.0)
    else:
        core = template(3, *(x + k * half for x, k in zip((a, b, c), shifts)))
    left = np.kron(_PAULIS[paulis[0]], _PAULIS[paulis[1]])
    right = np.kron(_PAULIS[paulis[2]], _PAULIS[paulis[3]])
    unitary = left @ core @ right
    budget = num_cnots_required(unitary, atol=1e-7)
    if budget < 2:
        return
    assert_bound_holds(unitary, budget)


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-4])
@pytest.mark.parametrize("seed", range(12))
def test_bound_holds_near_the_two_cnot_boundary(c, seed):
    """Classes ``(a, b, c)`` with ``c`` just off the 2-CNOT plane: the
    budget is 2 or 3 depending on ``c``, and the bound holds for both, with
    random layers and with the template's own."""
    rng = np.random.default_rng(seed)
    a, b = sorted(rng.uniform(0.05, QUARTER - 0.05, 2), reverse=True)
    for unitary in (
        one_qubit_layer(rng) @ canonical_gate(a, b, c) @ one_qubit_layer(rng),
        template(3, a, b, c),
        template(2, a, b, 0.0) @ np.kron(_rz(2 * c), np.eye(2)),
    ):
        budget = num_cnots_required(unitary, atol=1e-7)
        if budget >= 2:
            assert_bound_holds(unitary, budget)


def test_bounds_come_in_one_stack():
    """Items of both counts in one call get the bounds they get alone, and
    only the items a size asks about pay for the rotation stage."""
    rng = np.random.default_rng(3)
    items = [
        (template(2, 0.6, 0.3, 0.0), 2),
        (one_qubit_layer(rng) @ template(2, 0.6, 0.3, 0.0), 2),
        (template(3, 0.6, 0.3, 0.2), 3),
        (random_unitary(4, rng), 3),
    ]
    unitaries = [unitary for unitary, _ in items]
    cnots = [count for _, count in items]
    assert plan_size_bounds(unitaries, cnots) == [3, 4, 7, 8]
    alone = [plan_size_bounds([u], [k])[0] for u, k in items]
    assert alone == [3, 4, 7, 8]
    # size 4 asks the rotation stage about the first item only; size 9
    # is out of reach for the rest
    assert plan_size_bounds(unitaries, cnots, [4, 9, 9, 9]) == [4, 4, 7, 8]
    assert plan_size_bounds([], []) == []
