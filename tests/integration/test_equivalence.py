"""Property-based integration tests: every pipeline preserves semantics.

Standard levels preserve the measured distribution of arbitrary random
circuits; the RPO pipelines preserve it too (their rewrites are functional,
which is exactly what distribution preservation checks).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import FakeMelbourne
from repro.rpo import QBOPass, QPOPass, HoareOptimizer, rpo_pass_manager
from repro.transpiler import CouplingMap, transpile
from repro.transpiler.passmanager import PropertySet

from tests.helpers import (
    assert_functionally_equivalent,
    assert_same_distribution,
    random_circuit,
)

SEEDS = st.integers(min_value=0, max_value=10_000)


class TestPassLevelProperties:
    @given(seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_qbo_functional_equivalence(self, seed):
        circuit = random_circuit(4, 20, seed=seed)
        out = QBOPass().run(circuit, PropertySet())
        assert_functionally_equivalent(circuit, out)

    @given(seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_qbo_general_mode_equivalence(self, seed):
        circuit = random_circuit(4, 20, seed=seed)
        out = QBOPass(general_eigenphase=True).run(circuit, PropertySet())
        assert_functionally_equivalent(circuit, out)

    @given(seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_qpo_functional_equivalence(self, seed):
        circuit = random_circuit(4, 20, seed=seed)
        out = QPOPass(optimize_blocks=True).run(circuit, PropertySet())
        assert_functionally_equivalent(circuit, out)

    @given(seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_hoare_functional_equivalence(self, seed):
        circuit = random_circuit(4, 20, seed=seed)
        out = HoareOptimizer().run(circuit, PropertySet())
        assert_functionally_equivalent(circuit, out)

    @given(seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_qbo_never_adds_two_qubit_gates(self, seed):
        circuit = random_circuit(4, 25, seed=seed)
        out = QBOPass().run(circuit, PropertySet())

        def cx_cost(c):
            weights = {"cx": 1, "cz": 1, "cp": 2, "swap": 3, "swapz": 2,
                       "ccx": 6, "cswap": 8, "cu": 2, "cu_dg": 2}
            return sum(weights.get(n, 0) * v for n, v in c.count_ops().items())

        assert cx_cost(out) <= cx_cost(circuit)


class TestPipelineProperties:
    @given(seed=SEEDS)
    @settings(max_examples=8, deadline=None)
    def test_full_transpile_preserves_distribution(self, seed):
        circuit = random_circuit(4, 18, seed=seed, measure=True)
        cmap = CouplingMap.line(4)
        out = transpile(circuit, target=cmap, optimization_level=3, seed=0)
        assert_same_distribution(circuit, out)

    @given(seed=SEEDS)
    @settings(max_examples=8, deadline=None)
    def test_rpo_pipeline_preserves_distribution(self, seed):
        backend = FakeMelbourne()
        circuit = random_circuit(4, 18, seed=seed, measure=True)
        pm = rpo_pass_manager(backend, seed=0)
        out = pm.run(circuit, PropertySet())
        assert_same_distribution(circuit, out)
