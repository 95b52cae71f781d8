"""Executor-backend parity and auto-selection tests.

The contract of the pluggable executor layer is absolute: ``serial``,
``thread`` and ``process`` must return *identical* optimized circuits and
equivalent metrics for any batch -- the backends may differ only in
wall-clock.  A hypothesis property test drives random batches through all
three; targeted tests cover ``auto`` selection and worker cache stats
reaching the caller's cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import FakeMelbourne
from repro.circuit import QuantumCircuit
from repro.transpiler import AnalysisCache, TranspilerError, transpile
from repro.transpiler.frontend import (
    _PROCESS_MIN_BATCH,
    _PROCESS_MIN_WIDTH,
    _choose_executor,
)

from tests.helpers import respects_coupling

EXECUTORS = ("serial", "thread", "process")


def _random_circuit(rng: np.random.Generator, num_qubits: int, depth: int):
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(depth):
        kind = rng.integers(0, 6)
        qubit = int(rng.integers(0, num_qubits))
        if kind == 0:
            circuit.h(qubit)
        elif kind == 1:
            circuit.x(qubit)
        elif kind == 2:
            circuit.rz(float(rng.uniform(0, 2 * np.pi)), qubit)
        elif kind == 3:
            circuit.u3(*(float(v) for v in rng.uniform(0, np.pi, size=3)), qubit)
        elif kind == 4 and num_qubits >= 2:
            other = int(rng.integers(0, num_qubits - 1))
            other += other >= qubit
            circuit.cx(qubit, other)
        elif kind == 5 and num_qubits >= 2:
            other = int(rng.integers(0, num_qubits - 1))
            other += other >= qubit
            circuit.swap(qubit, other)
    circuit.measure_all()
    return circuit


def _assert_identical_circuits(a: QuantumCircuit, b: QuantumCircuit):
    assert abs(a.global_phase - b.global_phase) < 1e-9
    assert len(a.data) == len(b.data)
    for inst_a, inst_b in zip(a.data, b.data):
        assert inst_a.operation.name == inst_b.operation.name
        assert inst_a.qubits == inst_b.qubits
        assert inst_a.clbits == inst_b.clbits
        assert np.allclose(inst_a.operation.params, inst_b.operation.params)


def _assert_equivalent_metrics(a, b):
    """Same pass schedule, same circuit-shape trajectory; times may differ."""
    assert [m.name for m in a.metrics] == [m.name for m in b.metrics]
    for metric_a, metric_b in zip(a.metrics, b.metrics):
        assert metric_a.size_after == metric_b.size_after
        assert metric_a.depth_after == metric_b.depth_after
        assert metric_a.rewrites == metric_b.rewrites
    assert [loop.iterations for loop in a.loops] == [
        loop.iterations for loop in b.loops
    ]


@pytest.fixture(scope="module")
def melbourne():
    return FakeMelbourne()


class TestExecutorParity:
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_random_batches_agree_across_executors(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        batch_size = data.draw(st.integers(2, 5))
        pipeline = data.draw(st.sampled_from(["rpo", "level1"]))
        batch = [
            _random_circuit(
                rng,
                num_qubits=int(rng.integers(2, 5)),
                depth=int(rng.integers(3, 12)),
            )
            for _ in range(batch_size)
        ]
        seeds = list(range(batch_size))
        outputs = {}
        for executor in EXECUTORS:
            outputs[executor] = transpile(
                [circuit.copy() for circuit in batch],
                pipeline=pipeline,
                seed=seeds,
                executor=executor,
                full_result=True,
            )
        for executor in ("thread", "process"):
            for reference, candidate in zip(outputs["serial"], outputs[executor]):
                _assert_identical_circuits(reference.circuit, candidate.circuit)
                _assert_equivalent_metrics(reference, candidate)

    def test_table2_workloads_agree_on_backend(self, melbourne):
        from repro.algorithms import quantum_phase_estimation, ry_ansatz

        batch = [
            quantum_phase_estimation(3),
            ry_ansatz(4, depth=2, seed=11),
        ] * 2
        seeds = list(range(len(batch)))
        reference = transpile(
            [c.copy() for c in batch],
            backend=melbourne,
            pipeline="rpo",
            seed=seeds,
            executor="serial",
        )
        for executor in ("thread", "process"):
            candidates = transpile(
                [c.copy() for c in batch],
                backend=melbourne,
                pipeline="rpo",
                seed=seeds,
                executor=executor,
            )
            for expected, got in zip(reference, candidates):
                _assert_identical_circuits(expected, got)

    def test_process_merges_worker_cache_deltas(self, melbourne):
        from repro.algorithms import quantum_phase_estimation

        cache = AnalysisCache()
        transpile(
            [quantum_phase_estimation(3).copy() for _ in range(3)],
            backend=melbourne,
            pipeline="rpo",
            seed=[0, 1, 2],
            executor="process",
            analysis_cache=cache,
        )
        assert cache.stats.get("matrix_misses", 0) > 0  # shipped worker stats

    def test_process_full_results_carry_properties(self, melbourne):
        from repro.algorithms import quantum_phase_estimation

        results = transpile(
            [quantum_phase_estimation(3), quantum_phase_estimation(3)],
            backend=melbourne,
            pipeline="rpo",
            seed=[0, 1],
            executor="process",
            full_result=True,
        )
        for result in results:
            assert result.metrics, "per-pass metrics survive the pool"
            assert result.loops, "loop metrics survive the pool"
            assert "pass_times" in result.properties
            assert result.analysis_cache is not None  # reattached shared cache


class TestHeterogeneousBatches:
    """Satellite acceptance: mixed-target batches under every executor.

    A batch whose circuits are bound for *different* targets must compile
    to exactly what per-target serial runs produce -- whichever executor
    fans it out -- and every output circuit must respect its own target's
    coupling map.
    """

    TARGET_POOL = ("melbourne", "linear:8", "ring:8", "grid:2x4")

    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_mixed_target_batches_match_per_target_serial_runs(self, data):
        from repro.transpiler import Target

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        batch_size = data.draw(st.integers(2, 4))
        pipeline = data.draw(st.sampled_from(["rpo", "level1"]))
        target_names = [
            data.draw(st.sampled_from(self.TARGET_POOL), label=f"target{i}")
            for i in range(batch_size)
        ]
        targets = [Target.preset(name) for name in target_names]
        batch = [
            _random_circuit(
                rng,
                num_qubits=int(rng.integers(2, 5)),
                depth=int(rng.integers(3, 10)),
            )
            for _ in range(batch_size)
        ]
        seeds = list(range(batch_size))

        # the ground truth: each circuit compiled alone against its target
        reference = [
            transpile(
                circuit.copy(),
                target=target,
                pipeline=pipeline,
                seed=seed,
                executor="serial",
            )
            for circuit, target, seed in zip(batch, targets, seeds)
        ]

        for executor in ("serial", "thread", "process", "service"):
            outputs = transpile(
                [circuit.copy() for circuit in batch],
                target=targets,
                pipeline=pipeline,
                seed=seeds,
                executor=executor,
            )
            for expected, got, target in zip(reference, outputs, targets):
                _assert_identical_circuits(expected, got)
                assert respects_coupling(got, target.coupling_map), (
                    f"{executor} output violates {target.name} coupling"
                )

    def test_mixed_targets_through_persistent_service(self):
        from repro.transpiler import CompileService, Target

        targets = [Target.preset("linear:8"), Target.preset("ring:8")] * 2
        batch = [QuantumCircuit(3) for _ in range(4)]
        for circuit in batch:
            circuit.h(0)
            circuit.cx(0, 1)
            circuit.cx(1, 2)
            circuit.cx(0, 2)
        seeds = [0, 1, 2, 3]
        reference = [
            transpile(c.copy(), target=t, pipeline="rpo", seed=s, executor="serial")
            for c, t, s in zip(batch, targets, seeds)
        ]
        with CompileService(mode="process", pipeline="rpo", max_workers=2) as service:
            results = transpile(
                [c.copy() for c in batch],
                target=targets,
                pipeline="rpo",
                seed=seeds,
                service=service,
                full_result=True,
            )
        for expected, result, target in zip(reference, results, targets):
            _assert_identical_circuits(expected, result.circuit)
            assert result.properties["target"] == target
            assert respects_coupling(result.circuit, target.coupling_map)


class TestExecutorSelection:
    def test_unknown_executor_rejected(self):
        with pytest.raises(TranspilerError, match="executor"):
            transpile(QuantumCircuit(1), executor="rocket")

    def test_single_circuit_is_serial(self):
        assert _choose_executor([QuantumCircuit(2)], "auto") == "serial"

    def test_explicit_choice_wins(self):
        batch = [QuantumCircuit(2)] * 2
        assert _choose_executor(batch, "thread") == "thread"
        assert _choose_executor(batch, "process") == "process"

    def test_small_batches_use_threads(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        batch = [QuantumCircuit(_PROCESS_MIN_WIDTH)] * 2
        assert _choose_executor(batch, "auto") == "thread"

    def test_large_wide_batches_use_processes(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        batch = [QuantumCircuit(_PROCESS_MIN_WIDTH)] * _PROCESS_MIN_BATCH
        assert _choose_executor(batch, "auto") == "process"

    def test_narrow_batches_stay_threaded(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        batch = [QuantumCircuit(_PROCESS_MIN_WIDTH - 1)] * _PROCESS_MIN_BATCH
        assert _choose_executor(batch, "auto") == "thread"

    def test_single_core_never_picks_processes(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        batch = [QuantumCircuit(_PROCESS_MIN_WIDTH)] * _PROCESS_MIN_BATCH
        assert _choose_executor(batch, "auto") == "thread"


class TestEmptyBatch:
    """Regression tests: transpile([]) is a valid request whose answer is
    an empty list (and a well-formed zeroed metrics report), on every
    executor path -- nothing may reach a pool, a service or the network."""

    @pytest.mark.parametrize(
        "executor", ["auto", "serial", "thread", "process", "service"]
    )
    def test_empty_batch_returns_empty_list(self, executor):
        assert transpile([], executor=executor) == []
        assert transpile([], executor=executor, full_result=True) == []

    def test_empty_batch_through_persistent_service(self):
        from repro.transpiler import CompileService

        with CompileService(mode="serial") as service:
            assert transpile([], service=service) == []
            assert service.map([]) == []
            assert service.stats()["submitted"] == 0

    def test_empty_batch_still_validates_executor(self):
        with pytest.raises(TranspilerError, match="executor"):
            transpile([], executor="rocket")

    def test_empty_batch_metrics_report_is_zeroed(self):
        from repro.transpiler import aggregate_batch

        report = aggregate_batch([], executor="serial")
        assert report["num_circuits"] == 0
        assert report["time"] == {
            "mean": 0.0, "median": 0.0, "min": 0.0, "max": 0.0, "total": 0.0,
        }
        assert report["gates"]["cx"]["total"] == 0.0
        assert report["by_target"] == {}
        assert report["by_shard"] == {}
        assert report["loops"] == {"count": 0, "iterations": 0, "converged": 0}
        import json

        json.dumps(report)  # must stay JSON-serializable
