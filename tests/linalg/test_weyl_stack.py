"""The stacked Weyl kernel against the scalar oracle.

``canonical_forms`` (coordinate stage) and ``weyl_factors`` (factor stage)
must reproduce :func:`tests.linalg.scalar_weyl.weyl_decompose` bit for bit
-- every coordinate and the phase as ``float.hex``, every local factor as
raw bytes -- whatever stack an item sits in, degenerate spectra included.
A bad item fails alone.
"""

import numpy as np
import pytest

from repro.linalg import weyl
from repro.linalg.kron import decompose_kron_stack
from repro.linalg.random import random_su2, random_unitary
from repro.linalg.two_qubit_synthesis import (
    SYNTHESIS_ERRORS,
    plan_two_qubit_unitaries,
    plan_two_qubit_unitary,
)
from repro.linalg.weyl import canonical_forms, canonical_gate, weyl_decompose, weyl_factors

from tests.linalg.scalar_weyl import decompose_kron as scalar_decompose_kron
from tests.linalg.scalar_weyl import weyl_decompose as scalar_weyl_decompose

CX = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def exact(decomposition) -> tuple:
    numbers = (decomposition.a, decomposition.b, decomposition.c, decomposition.phase)
    factors = (decomposition.K1l, decomposition.K1r, decomposition.K2l, decomposition.K2r)
    return tuple(float(x).hex() for x in numbers), tuple(k.tobytes() for k in factors)


def oracle(matrix):
    try:
        return exact(scalar_weyl_decompose(matrix))
    except (ValueError, np.linalg.LinAlgError) as error:
        return type(error)


def stacked(matrices) -> list:
    forms = canonical_forms(np.array(matrices))
    finished = iter(weyl_factors([f for f in forms if not isinstance(f, Exception)]))
    return [
        type(form) if isinstance(form, Exception) else _exact_or_type(next(finished))
        for form in forms
    ]


def _exact_or_type(result):
    return type(result) if isinstance(result, Exception) else exact(result)


def local_pair(rng) -> np.ndarray:
    return np.kron(random_su2(rng), random_su2(rng))


def matrices_of_every_kind(seed: int) -> list:
    """Haar-random unitaries plus class representatives with degenerate
    spectra: 2-CNOT (a, b, 0), a = b, ZZ rotations (0, 0, c), CX (pi/4,
    0, 0), (pi/4, pi/4, c), locals, and exact gates."""
    rng = np.random.default_rng(seed)
    matrices = [random_unitary(4, rng) for _ in range(6)]
    for _ in range(3):
        a, b, c = rng.uniform(0, np.pi / 4, 3)
        for core in (
            canonical_gate(max(a, b), min(a, b), 0.0),
            canonical_gate(a, a, 0.0),
            canonical_gate(0.0, 0.0, c),
            canonical_gate(np.pi / 4, 0.0, 0.0),
            canonical_gate(np.pi / 4, np.pi / 4, c),
            np.eye(4),
        ):
            matrices.append(local_pair(rng) @ core @ local_pair(rng))
    return matrices + [np.eye(4, dtype=complex), CX, SWAP]


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_stack_of_one(self, seed):
        for matrix in matrices_of_every_kind(seed):
            assert exact(weyl_decompose(matrix)) == oracle(matrix)

    @pytest.mark.parametrize("group", [2, 5, 16])
    @pytest.mark.parametrize("seed", range(3))
    def test_any_stack(self, group, seed):
        matrices = matrices_of_every_kind(seed)
        expected = [oracle(matrix) for matrix in matrices]
        got = []
        for start in range(0, len(matrices), group):
            got += stacked(matrices[start : start + group])
        assert got == expected

    @pytest.mark.parametrize(
        "coordinates, width", [((0.4, 0.2, 0.0), 2), ((0.0, 0.0, 0.3), 4)]
    )
    def test_degenerate_spectra_are_refined(self, coordinates, width, monkeypatch):
        """The sweep above reaches the eigenspace refinement: 2-CNOT
        classes have two doubly degenerate real spectra, ZZ rotations one
        fourfold one."""
        rng = np.random.default_rng(3)
        calls = []
        eigh = np.linalg.eigh

        def counting(matrix):
            calls.append(np.shape(matrix))
            return eigh(matrix)

        monkeypatch.setattr(weyl.np.linalg, "eigh", counting)
        matrix = local_pair(rng) @ canonical_gate(*coordinates) @ local_pair(rng)
        result = stacked([matrix, random_unitary(4, rng)])[0]
        assert calls == [(2, 4, 4), (4 // width, width, width)]
        monkeypatch.undo()
        assert result == oracle(matrix)

    def test_coordinates_need_no_factors(self):
        matrix = random_unitary(4, 11)
        [form] = canonical_forms(matrix[None])
        expected = scalar_weyl_decompose(matrix)
        assert [float(x).hex() for x in form.coordinates] == [
            float(x).hex() for x in expected.coordinates
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_kron_stack_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        matrices = [local_pair(rng) * np.exp(1j * rng.uniform(-3, 3)) for _ in range(5)]
        for matrix, result in zip(matrices, decompose_kron_stack(np.array(matrices))):
            phase, a, b = scalar_decompose_kron(matrix)
            assert (complex(result[0]), result[1].tobytes(), result[2].tobytes()) == (
                complex(phase),
                a.tobytes(),
                b.tobytes(),
            )


class TestIsolation:
    """One bad item of a stack fails alone; the others are unaffected."""

    def test_non_unitary_item(self):
        good = [random_unitary(4, seed) for seed in range(3)]
        forms = canonical_forms(np.array([good[0], 1.1 * good[1], good[2]]))
        assert isinstance(forms[1], ValueError)
        assert [exact(d) for d in weyl_factors([forms[0], forms[2]])] == [
            oracle(good[0]),
            oracle(good[2]),
        ]

    def test_linalg_error_item(self, monkeypatch):
        """A stack LAPACK rejects is retried item by item, so only the item
        that fails on its own carries the ``LinAlgError``."""
        good = [random_unitary(4, seed) for seed in range(3)]
        poison = _real_part_of(good[1])
        eigh = np.linalg.eigh

        def failing(matrix):
            stack = np.asarray(matrix)
            if stack.shape[-1] == 4 and any(
                np.allclose(item, poison) for item in stack.reshape(-1, 4, 4)
            ):
                raise np.linalg.LinAlgError("eigenvalues did not converge")
            return eigh(matrix)

        monkeypatch.setattr(weyl.np.linalg, "eigh", failing)
        forms = canonical_forms(np.array(good))
        assert isinstance(forms[1], np.linalg.LinAlgError)
        monkeypatch.undo()
        assert [exact(d) for d in weyl_factors([forms[0], forms[2]])] == [
            oracle(good[0]),
            oracle(good[2]),
        ]

    def test_bulk_plans_fail_per_item(self):
        target = random_unitary(4, 5)
        plans = plan_two_qubit_unitaries([target, 1.1 * target, target], [3, 3, 3])
        assert isinstance(plans[1], SYNTHESIS_ERRORS)
        expected = plan_two_qubit_unitary(target, 3)
        for plan in (plans[0], plans[2]):
            assert plan.gates == expected.gates
            assert plan.global_phase == expected.global_phase
        with pytest.raises(ValueError):
            plan_two_qubit_unitary(1.1 * target, 3)


def _real_part_of(matrix):
    """``Re(M^T M)`` symmetrised, as the coordinate stage diagonalises it."""
    det = np.linalg.det(matrix)
    special = matrix * np.exp(-1j * np.angle(det) / 4)
    magic = weyl._MAGIC_DAG @ special @ weyl.MAGIC_BASIS
    m2 = magic.T @ magic
    return 0.5 * (m2.real + m2.real.T)
