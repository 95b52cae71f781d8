"""Tests for the Hoare-logic baseline optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.linalg.random import random_unitary
from repro.rpo import HoareOptimizer
from repro.transpiler.passmanager import PropertySet

from tests.helpers import assert_functionally_equivalent


def run_hoare(circuit, **kwargs):
    return HoareOptimizer(**kwargs).run(circuit, PropertySet())


class TestControlRules:
    def test_cx_control_zero_removed(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        out = run_hoare(circuit)
        assert out.size() == 0
        assert_functionally_equivalent(circuit, out)

    def test_cx_control_one_strips(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.cx(0, 1)
        out = run_hoare(circuit)
        assert out.count_ops() == {"x": 2}
        assert_functionally_equivalent(circuit, out)

    def test_superposed_control_kept(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        out = run_hoare(circuit)
        assert out.count_ops().get("cx", 0) == 1

    def test_toffoli_chain(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.x(1)
        circuit.ccx(0, 1, 2)
        out = run_hoare(circuit)
        assert out.count_ops().get("ccx", 0) == 0
        assert_functionally_equivalent(circuit, out)

    def test_classical_propagation_through_cx(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.cx(0, 1)  # q1 provably |1>
        circuit.cx(1, 2)  # should strip to x
        out = run_hoare(circuit)
        assert out.count_ops().get("cx", 0) == 0
        assert_functionally_equivalent(circuit, out)


class TestDiagonalRules:
    def test_diagonal_on_constant_removed(self):
        circuit = QuantumCircuit(1)
        circuit.t(0)
        circuit.z(0)
        out = run_hoare(circuit)
        assert out.size() == 0

    def test_diagonal_on_superposition_kept(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.t(0)
        out = run_hoare(circuit)
        assert out.count_ops().get("t", 0) == 1

    def test_cz_constant_target_one(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.x(1)
        circuit.cz(0, 1)  # target |1>: equivalent to Z on control
        out = run_hoare(circuit)
        assert out.count_ops().get("cz", 0) == 0
        assert_functionally_equivalent(circuit, out)


class TestXBasisBlindness:
    """The support-set engine cannot see phases: exactly the paper's
    observation that the Hoare baseline misses the boolean->phase oracle
    rewrite (Sec. VIII-A)."""

    def test_minus_target_cx_not_optimized(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.x(1)
        circuit.h(1)  # |->
        circuit.cx(0, 1)
        out = run_hoare(circuit)
        assert out.count_ops().get("cx", 0) == 1  # QBO would remove this

    def test_bv_oracle_not_converted(self):
        from repro.algorithms import bernstein_vazirani_boolean

        circuit = bernstein_vazirani_boolean(4, 0b1011, measure=False)
        out = run_hoare(circuit)
        assert out.count_ops().get("cx", 0) == 3


class TestSupportMachinery:
    def test_entangled_cluster_not_constant(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)  # control genuinely superposed
        out = run_hoare(circuit)
        assert out.count_ops().get("cx", 0) == 2

    def test_disentangling_recovers_knowledge(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)  # support collapses back to q1 = 0
        circuit.cx(1, 2)  # provably control-|0>: removed
        out = run_hoare(circuit)
        assert out.count_ops().get("cx", 0) == 2
        assert_functionally_equivalent(circuit, out)

    def test_reset_restores_zero(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.reset(0)
        circuit.cx(0, 1)
        out = run_hoare(circuit)
        assert out.count_ops().get("cx", 0) == 0

    def test_support_cap_goes_conservative(self):
        circuit = QuantumCircuit(9)
        for qubit in range(9):
            circuit.h(qubit)
        for qubit in range(8):
            circuit.cx(qubit, qubit + 1)
        circuit.cx(0, 8)
        out = run_hoare(HoareOptimizer(max_support=4).run(circuit, PropertySet()))
        assert out.count_ops().get("cx", 0) == 9  # nothing removable, no crash

    def test_swap_permutes_support(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.swap(0, 1)
        circuit.cx(1, 0)  # control now provably |1>: strip to X
        out = run_hoare(circuit)
        assert out.count_ops().get("cx", 0) == 0
        assert_functionally_equivalent(circuit, out)

    def test_annotations_ignored(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.annotate_zero(0)  # hoare must NOT trust annotations
        circuit.cx(0, 1)
        out = run_hoare(circuit)
        assert out.count_ops().get("cx", 0) == 2


class TestMonomialDetection:
    """A generalized permutation (one nonzero per column) acts exactly on
    supports; anything else must widen them."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 4, 8]))
    def test_generalized_permutations_detected(self, seed, dim):
        rng = np.random.default_rng(seed)
        permutation = rng.permutation(dim)
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[permutation, np.arange(dim)] = np.exp(2j * np.pi * rng.uniform(size=dim))
        found = HoareOptimizer._monomial_permutation(matrix)
        assert found is not None
        assert np.array_equal(found, permutation)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_dense_matrices_rejected(self, dim):
        dense = random_unitary(dim, dim) @ (np.eye(dim) + 0.5)
        assert HoareOptimizer._monomial_permutation(dense) is None


class TestOpaqueGates:
    """A gate with no matrix is kept, and nothing is provable on its wires
    after it."""

    @staticmethod
    def _opaque():
        from repro.circuit.instruction import Gate

        return Gate("opaque", 1, [])

    def test_opaque_gate_on_a_superposed_wire_is_kept(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.append(self._opaque(), [0])
        out = run_hoare(circuit)
        assert [i.operation.name for i in out.data] == ["h", "opaque"]
        assert out.data[1] is circuit.data[1]

    @pytest.mark.parametrize("prefix", [(), ("x",)])
    def test_opaque_gate_on_a_constant_wire_widens_it(self, prefix):
        # from |0> (or |1> after x) the CNOT's control is constant, so the
        # CNOT would go (or lose its control); after the opaque gate it stays
        circuit = QuantumCircuit(2)
        for name in prefix:
            getattr(circuit, name)(0)
        circuit.append(self._opaque(), [0])
        circuit.cx(0, 1)
        out = run_hoare(circuit)
        assert len(out.data) == len(circuit.data)
        for got, want in zip(out.data, circuit.data):
            assert got is want

        reference = QuantumCircuit(2)
        for name in prefix:
            getattr(reference, name)(0)
        reference.cx(0, 1)
        assert run_hoare(reference).count_ops().get("cx", 0) == 0
