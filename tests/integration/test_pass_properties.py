"""Algebraic properties of the optimization passes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpo import HoareOptimizer, QBOPass, QPOPass
from repro.transpiler.passmanager import PropertySet
from repro.transpiler.passes import CXCancellation, Optimize1qGates

from tests.helpers import random_circuit

SEEDS = st.integers(min_value=0, max_value=10_000)


def run(pass_, circuit):
    return pass_.run(circuit, PropertySet())


class TestIdempotence:
    """Re-running a pass must never make the circuit worse.

    QBO is *not* strictly idempotent: its first run can replace an opaque
    multi-qubit gate with simpler gates through which the automaton tracks
    more states, enabling further rewrites on a second run -- exactly why
    the paper's pipeline runs QBO twice (Fig. 8 lines 1 and 5).  The sound
    property is monotone improvement.
    """

    @staticmethod
    def _cx_cost(circuit):
        weights = {"cx": 1, "cz": 1, "cp": 2, "swap": 3, "swapz": 2,
                   "ccx": 6, "ccz": 6, "cswap": 8, "cu": 2, "cu_dg": 2}
        return sum(
            weights.get(name, 0) * count
            for name, count in circuit.count_ops().items()
        )

    @given(seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_qbo_monotone(self, seed):
        circuit = random_circuit(4, 20, seed=seed)
        once = run(QBOPass(), circuit)
        twice = run(QBOPass(), once)
        assert self._cx_cost(twice) <= self._cx_cost(once)

    @given(seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_optimize1q_idempotent(self, seed):
        circuit = random_circuit(3, 15, seed=seed, gate_set="simple")
        once = run(Optimize1qGates(), circuit)
        twice = run(Optimize1qGates(), once)
        assert once.count_ops() == twice.count_ops()

    @given(seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_cx_cancellation_idempotent(self, seed):
        circuit = random_circuit(4, 25, seed=seed, gate_set="simple")
        once = run(CXCancellation(), circuit)
        twice = run(CXCancellation(), once)
        assert once.count_ops() == twice.count_ops()


class TestDeterminism:
    @given(seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_qbo_deterministic(self, seed):
        circuit = random_circuit(4, 20, seed=seed)
        a = run(QBOPass(), circuit.copy())
        b = run(QBOPass(), circuit.copy())
        assert [i.qubits for i in a.data] == [i.qubits for i in b.data]
        assert abs(a.global_phase - b.global_phase) < 1e-12

    @given(seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_qpo_deterministic(self, seed):
        circuit = random_circuit(4, 20, seed=seed)
        a = run(QPOPass(optimize_blocks=True), circuit.copy())
        b = run(QPOPass(optimize_blocks=True), circuit.copy())
        assert [i.operation.name for i in a.data] == [
            i.operation.name for i in b.data
        ]

    def test_full_pipeline_deterministic(self):
        from repro.backends import FakeMelbourne
        from repro.rpo import rpo_pass_manager

        backend = FakeMelbourne()
        circuit = random_circuit(4, 25, seed=3, measure=True)
        results = []
        for _ in range(2):
            pm = rpo_pass_manager(backend, seed=5)
            results.append(pm.run(circuit.copy(), PropertySet()))
        assert results[0].count_ops() == results[1].count_ops()
        assert [i.qubits for i in results[0].data] == [
            i.qubits for i in results[1].data
        ]


class TestMonotonicity:
    @given(seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_hoare_never_grows_circuit(self, seed):
        circuit = random_circuit(4, 25, seed=seed)
        out = run(HoareOptimizer(), circuit)
        assert out.size() <= circuit.size()

    @given(seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_cx_cancellation_never_grows(self, seed):
        circuit = random_circuit(4, 25, seed=seed, gate_set="simple")
        out = run(CXCancellation(), circuit)
        assert out.size() <= circuit.size()
