"""Tests for minimal-CNOT two-qubit synthesis and state preparation."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.linalg.two_qubit_synthesis as synthesis
from repro.circuit import QuantumCircuit
from repro.circuit.matrix_utils import embed_gate
from repro.linalg.euler import u3_params_from_unitary
from repro.linalg.random import random_statevector, random_su2, random_unitary
from repro.linalg.state_prep import two_qubit_state_prep_factors
from repro.linalg.two_qubit_synthesis import (
    SynthesisPlan,
    TwoQubitSynthesisError,
    plan_two_qubit_unitary,
    synthesize_two_qubit_unitary,
    two_qubit_state_prep_circuit,
)
from repro.linalg.weyl import canonical_gate, num_cnots_required

from tests.helpers import exact_form

CX = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
CX_10 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def cx_count(circuit):
    return circuit.count_ops().get("cx", 0)


class TestSynthesis:
    @pytest.mark.parametrize("seed", range(25))
    def test_exact_reconstruction_random(self, seed):
        u = random_unitary(4, seed)
        circuit = synthesize_two_qubit_unitary(u)
        assert np.abs(circuit.to_matrix() - u).max() < 1e-7
        assert cx_count(circuit) <= 3

    def test_product_uses_no_cnots(self):
        rng = np.random.default_rng(1)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        circuit = synthesize_two_qubit_unitary(u)
        assert cx_count(circuit) == 0
        assert np.abs(circuit.to_matrix() - u).max() < 1e-8

    def test_cx_uses_one(self):
        circuit = synthesize_two_qubit_unitary(CX)
        assert cx_count(circuit) == 1
        assert np.abs(circuit.to_matrix() - CX).max() < 1e-8

    def test_cx_with_locals_uses_one(self):
        rng = np.random.default_rng(2)
        u = (
            np.kron(random_unitary(2, rng), random_unitary(2, rng))
            @ CX
            @ np.kron(random_unitary(2, rng), random_unitary(2, rng))
        )
        circuit = synthesize_two_qubit_unitary(u)
        assert cx_count(circuit) == 1
        assert np.abs(circuit.to_matrix() - u).max() < 1e-7

    def test_two_cnot_class(self):
        rng = np.random.default_rng(3)
        u = (
            embed_gate(random_unitary(2, rng), (0,), 2)
            @ CX
            @ embed_gate(random_unitary(2, rng), (1,), 2)
            @ CX
            @ embed_gate(random_unitary(2, rng), (0,), 2)
        )
        circuit = synthesize_two_qubit_unitary(u)
        assert cx_count(circuit) <= 2
        assert np.abs(circuit.to_matrix() - u).max() < 1e-7

    def test_swap_uses_three(self):
        circuit = synthesize_two_qubit_unitary(SWAP)
        assert cx_count(circuit) == 3
        assert np.abs(circuit.to_matrix() - SWAP).max() < 1e-8

    def test_canonical_gates(self):
        for a, b, c in [(0.3, 0.2, 0.1), (np.pi / 4, 0.0, 0.0), (0.5, -0.4, 0.0)]:
            target = canonical_gate(a, b, c)
            circuit = synthesize_two_qubit_unitary(target)
            assert np.abs(circuit.to_matrix() - target).max() < 1e-7

    def test_global_phase_preserved(self):
        u = np.exp(0.9j) * random_unitary(4, 7)
        circuit = synthesize_two_qubit_unitary(u)
        assert np.abs(circuit.to_matrix() - u).max() < 1e-7

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            synthesize_two_qubit_unitary(np.eye(2))

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_property_random(self, seed):
        u = random_unitary(4, seed)
        circuit = synthesize_two_qubit_unitary(u)
        assert np.abs(circuit.to_matrix() - u).max() < 1e-6


class TestExactness:
    """A one-qubit layer within numpy's default ``rtol`` (1e-5) of the
    identity is a gate, not dropped: the result matches its target to
    rounding."""

    @pytest.mark.parametrize("side", ["after", "before"])
    def test_near_identity_outer_layer_is_kept(self, side):
        tiny = np.kron(np.eye(2), synthesis._rz(8e-6))
        core = CX_10 @ np.kron(synthesis._ry(-0.8), synthesis._rz(1.4)) @ CX_10
        unitary = tiny @ core if side == "after" else core @ tiny
        circuit = synthesize_two_qubit_unitary(unitary)
        # dropping the Rz(8e-6) layer left an error of up to 7.4e-6
        assert np.abs(circuit.to_matrix() - unitary).max() <= 1e-14
        assert cx_count(circuit) == 2


class TestStatePrep:
    @pytest.mark.parametrize("seed", range(15))
    def test_prepares_exactly(self, seed):
        psi = random_statevector(2, seed)
        circuit = two_qubit_state_prep_circuit(psi)
        produced = circuit.to_matrix()[:, 0]
        assert np.abs(produced - psi).max() < 1e-8

    @pytest.mark.parametrize("seed", range(15))
    def test_uses_at_most_one_cnot(self, seed):
        psi = random_statevector(2, seed)
        circuit = two_qubit_state_prep_circuit(psi)
        assert cx_count(circuit) <= 1

    def test_product_state_uses_no_cnot(self):
        rng = np.random.default_rng(4)
        psi = np.kron(random_statevector(1, rng), random_statevector(1, rng))
        circuit = two_qubit_state_prep_circuit(psi)
        assert cx_count(circuit) == 0
        assert np.abs(circuit.to_matrix()[:, 0] - psi).max() < 1e-8

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        circuit = two_qubit_state_prep_circuit(bell)
        assert cx_count(circuit) == 1
        assert np.abs(circuit.to_matrix()[:, 0] - bell).max() < 1e-8

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            two_qubit_state_prep_circuit(np.array([1.0, 1.0, 0, 0]))


class OracleCircuitBuilder:
    """The builder as it was before plans: it builds the
    :class:`QuantumCircuit` directly and tests pending one-qubit matrices
    with ``np.allclose`` (``rtol=0``)."""

    def __init__(self):
        self.circuit = QuantumCircuit(2)
        self._pending = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]

    def add_1q(self, qubit, matrix):
        self._pending[qubit] = matrix @ self._pending[qubit]

    def _flush(self, qubit):
        matrix = self._pending[qubit]
        if np.allclose(matrix, np.eye(2, dtype=complex), rtol=0, atol=1e-12):
            return
        theta, phi, lam, gamma = u3_params_from_unitary(matrix)
        self.circuit.global_phase += gamma
        if abs(theta) > 1e-12 or abs(phi + lam) > 1e-12:
            self.circuit.u3(theta, phi, lam, qubit)
        self._pending[qubit] = np.eye(2, dtype=complex)

    def add_cx(self, control, target):
        self._flush(0)
        self._flush(1)
        self.circuit.cx(control, target)

    def finish(self, global_phase=0.0):
        self._flush(0)
        self._flush(1)
        self.circuit.global_phase += global_phase
        return self.circuit


def oracle_candidate(unitary, cnots):
    """The ``cnots``-CNOT candidate circuit, built the old way."""
    with mock.patch.object(synthesis, "_PlanBuilder", OracleCircuitBuilder):
        return plan_two_qubit_unitary(unitary, cnots)


def oracle_synthesize(unitary):
    """Synthesis as it was before plans: every candidate is a circuit,
    checked through the generic ``to_matrix()``."""
    for cnots in range(num_cnots_required(unitary, atol=1e-7), 4):
        candidate = oracle_candidate(unitary, cnots)
        if candidate is not None and np.allclose(candidate.to_matrix(), unitary, rtol=0, atol=1e-7):
            return candidate
    raise TwoQubitSynthesisError("exhausted all CNOT budgets")


def class_unitary(cnots, seed):
    """A random unitary needing exactly ``cnots`` CNOTs."""
    rng = np.random.default_rng([cnots, seed])
    core = {
        0: np.eye(4, dtype=complex),
        1: canonical_gate(np.pi / 4, 0.0, 0.0),
        2: canonical_gate(*sorted(rng.uniform(0.1, np.pi / 4 - 0.1, 2), reverse=True), 0.0),
        3: canonical_gate(*sorted(rng.uniform(0.1, np.pi / 4 - 0.1, 3), reverse=True)),
    }[cnots]
    return np.kron(random_su2(rng), random_su2(rng)) @ core @ np.kron(
        random_su2(rng), random_su2(rng)
    )


BOUNDARY_KINDS = ("near-local", "near-cx-from-2", "near-cx-from-3", "near-2-from-3", "near-swap")


def boundary_unitary(kind, seed):
    """A unitary within ~1e-7..1e-5 of a CNOT-class boundary."""
    rng = np.random.default_rng([BOUNDARY_KINDS.index(kind), seed])
    eps = 10.0 ** rng.uniform(-7, -5)
    core = {
        "near-local": (eps, 0.0, 0.0),
        "near-cx-from-2": (np.pi / 4 - eps, 0.0, 0.0),
        "near-cx-from-3": (np.pi / 4, eps, 0.0),
        "near-2-from-3": (0.5, 0.2, eps),
        "near-swap": (np.pi / 4, np.pi / 4, eps),
    }[kind]
    return np.kron(random_su2(rng), random_su2(rng)) @ canonical_gate(*core) @ np.kron(
        random_su2(rng), random_su2(rng)
    )


#: inputs whose budget plan exists but fails the check, so synthesis
#: escalates past it
CHECK_ESCALATIONS = [("near-cx-from-2", 125), ("near-cx-from-3", 217)]

PLAN_INPUTS = (
    [pytest.param(class_unitary(c, s), id=f"class{c}-{s}") for c in range(4) for s in range(4)]
    + [
        pytest.param(boundary_unitary(kind, s), id=f"{kind}-{s}")
        for kind in BOUNDARY_KINDS
        for s in range(3)
    ]
    + [pytest.param(boundary_unitary(k, s), id=f"{k}-{s}") for k, s in CHECK_ESCALATIONS]
    + [pytest.param(m, id=name) for name, m in (("cx", CX), ("swap", SWAP), ("identity", np.eye(4)))]
)


class TestPlanOracle:
    """Plans, the direct check and the built circuit against the old
    circuit-building path, bit for bit."""

    @pytest.mark.parametrize("unitary", PLAN_INPUTS)
    def test_synthesized_circuit_matches_oracle(self, unitary):
        assert exact_form(synthesize_two_qubit_unitary(unitary)) == exact_form(
            oracle_synthesize(unitary)
        )

    @pytest.mark.parametrize("unitary", PLAN_INPUTS)
    def test_every_candidate_matches_oracle(self, unitary):
        for cnots in range(num_cnots_required(unitary, atol=1e-7), 4):
            plan = plan_two_qubit_unitary(unitary, cnots)
            expected = oracle_candidate(unitary, cnots)
            assert (plan is None) == (expected is None)
            if plan is None:
                continue
            circuit = plan.circuit()
            assert exact_form(circuit) == exact_form(expected)
            assert plan.size == circuit.size()
            direct = plan.matrix()
            assert np.abs(direct - circuit.to_matrix()).max() <= 1e-12
            # same gate matrices, embedding and product order: equal bits
            assert np.array_equal(direct, circuit.to_matrix())

    def test_inputs_cover_every_escalation(self):
        outcomes = set()
        for param in PLAN_INPUTS:
            unitary = param.values[0]
            budget = num_cnots_required(unitary, atol=1e-7)
            cnots = synthesize_two_qubit_unitary(unitary).num_nonlocal_gates()
            plan = plan_two_qubit_unitary(unitary, budget)
            outcomes.add(
                "exact" if cnots == budget else "no-plan" if plan is None else "check-miss"
            )
        assert outcomes == {"exact", "no-plan", "check-miss"}

    @pytest.mark.parametrize("kind, seed", CHECK_ESCALATIONS)
    def test_check_rejects_inexact_budget_plan(self, kind, seed):
        unitary = boundary_unitary(kind, seed)
        budget = num_cnots_required(unitary, atol=1e-7)
        plan = plan_two_qubit_unitary(unitary, budget)
        assert plan is not None
        assert not np.allclose(plan.matrix(), unitary, rtol=0, atol=1e-7)
        assert synthesize_two_qubit_unitary(unitary).num_nonlocal_gates() > budget

    @pytest.mark.parametrize("angle", [2, 3, 4], ids=["theta", "phi", "lam"])
    @pytest.mark.parametrize("cnots", range(4))
    def test_perturbed_plan_is_rejected(self, angle, cnots):
        unitary = class_unitary(cnots, 0)
        plan_exact = plan_two_qubit_unitary

        def perturbed(target, count):
            plan = plan_exact(target, count)
            if plan is None:
                return None
            gates = list(plan.gates)
            index = next(i for i, gate in enumerate(gates) if gate[0] == "u3")
            gate = list(gates[index])
            gate[angle] += 1e-4
            gates[index] = tuple(gate)
            return SynthesisPlan(gates, plan.global_phase)

        assert synthesize_two_qubit_unitary(unitary).num_nonlocal_gates() == cnots
        with mock.patch.object(synthesis, "plan_two_qubit_unitary", perturbed):
            with pytest.raises(TwoQubitSynthesisError):
                synthesize_two_qubit_unitary(unitary)

    @pytest.mark.parametrize("seed", range(10))
    def test_state_prep_matches_oracle(self, seed):
        psi = random_statevector(2, seed)
        ry_angle, left, right, needs_cnot = two_qubit_state_prep_factors(psi)
        builder = OracleCircuitBuilder()
        builder.add_1q(1, synthesis._ry(ry_angle))
        if needs_cnot:
            builder.add_cx(1, 0)
        builder.add_1q(1, left)
        builder.add_1q(0, right)
        expected = builder.finish()
        expected.global_phase += float(
            np.angle(np.vdot(expected.to_matrix()[:, 0], psi))
        )
        assert exact_form(two_qubit_state_prep_circuit(psi)) == exact_form(expected)


#: |m - 1| on the diagonal and |m| off it: at and next to the tolerance,
#: and at numpy's default ``rtol``, which no longer counts
_BOUNDARY_RADII = [
    0.0,
    1e-12,
    np.nextafter(1e-12, 0),
    np.nextafter(1e-12, 1),
    1e-5,
    1e-5 + 1e-12,
    np.nan,
    np.inf,
]


@st.composite
def near_identity_matrices(draw):
    radius = st.sampled_from(_BOUNDARY_RADII) | st.floats(0, 2e-12) | st.floats(0, 2e-5)
    entries = []
    for base in (1.0, 0.0, 0.0, 1.0):
        r = draw(radius)
        angle = draw(st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi / 2]) | st.floats(-np.pi, np.pi))
        entries.append(complex(base + r * math.cos(angle), r * math.sin(angle)))
    return np.array(entries, dtype=complex).reshape(2, 2)


#: an off-diagonal entry whose modulus is within 1e-12 by ``math.hypot``
#: but not by numpy's complex ``abs`` (what ``np.allclose`` uses)
_HYPOT_SPLIT = complex(float.fromhex("-0x1.15440066ec555p-40"), float.fromhex("-0x1.83f94acb72e7dp-43"))


class TestNearIdentity:
    def test_example_splits_hypot_from_numpy_abs(self):
        assert math.hypot(_HYPOT_SPLIT.real, _HYPOT_SPLIT.imag) <= 1e-12
        assert not np.abs(_HYPOT_SPLIT) <= 1e-12

    @given(near_identity_matrices())
    @example(np.eye(2, dtype=complex))
    @example(np.array([[1 + 1e-12, 0], [0, 1]], dtype=complex))
    @example(np.array([[1 + 1e-5, 0], [0, 1]], dtype=complex))
    @example(np.array([[1, 1e-12], [np.nextafter(1e-12, 1), 1]], dtype=complex))
    @example(np.array([[np.nan, 0], [0, 1]], dtype=complex))
    @example(np.array([[1, 0], [_HYPOT_SPLIT, 1]], dtype=complex))
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_allclose(self, matrix):
        assert synthesis._near_identity(matrix) == np.allclose(
            matrix, np.eye(2, dtype=complex), rtol=0, atol=1e-12
        )
