"""The one executor story: in-process ``transpile()``, a persistent
``CompileService`` and the compile server.

The contract is absolute: serial ``transpile()`` and a persistent
process-mode :class:`CompileService` must return *identical* optimized
circuits and equivalent metrics for any batch -- they may differ only in
wall-clock.  A hypothesis property test drives random batches through
both.  The per-call pools ``transpile()`` once offered (``"thread"``,
``"process"``, ``"service"``) are rejected with a pointer at
``service=``, and a default ``transpile()`` never starts a pool.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import FakeMelbourne
from repro.circuit import QuantumCircuit
from repro.transpiler import (
    AnalysisCache,
    CompileService,
    ResultCache,
    Target,
    TranspilerError,
    transpile,
)

from tests.helpers import respects_coupling

RETIRED_EXECUTORS = ("thread", "process", "service")


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


@pytest.fixture(scope="module")
def process_service():
    """One persistent process pool for the whole module, result cache off
    so every job really compiles in a worker."""
    with CompileService(mode="process", max_workers=2, result_cache=False) as service:
        yield service


class TestServiceParity:
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_random_batches_agree_with_persistent_service(
        self, data, process_service
    ):
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
        for label, extra in (("serial", {}), ("service", {"service": process_service})):
            outputs[label] = transpile(
                [circuit.copy() for circuit in batch],
                pipeline=pipeline,
                seed=seeds,
                full_result=True,
                **extra,
            )
        for reference, candidate in zip(outputs["serial"], outputs["service"]):
            _assert_identical_circuits(reference.circuit, candidate.circuit)
            _assert_equivalent_metrics(reference, candidate)

    def test_table2_workloads_agree_on_backend(self, melbourne, process_service):
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
        candidates = transpile(
            [c.copy() for c in batch],
            backend=melbourne,
            pipeline="rpo",
            seed=seeds,
            service=process_service,
        )
        for expected, got in zip(reference, candidates):
            _assert_identical_circuits(expected, got)

    def test_service_merges_worker_cache_stats(self, melbourne):
        from repro.algorithms import quantum_phase_estimation

        cache = AnalysisCache()
        with CompileService(
            mode="process", pipeline="rpo", analysis_cache=cache, max_workers=2
        ) as service:
            transpile(
                [quantum_phase_estimation(3).copy() for _ in range(3)],
                backend=melbourne,
                seed=[0, 1, 2],
                service=service,
            )
        assert cache.stats.get("matrix_misses", 0) > 0  # shipped worker stats

    def test_service_full_results_carry_properties(self, melbourne, process_service):
        from repro.algorithms import quantum_phase_estimation

        results = transpile(
            [quantum_phase_estimation(3), quantum_phase_estimation(3)],
            backend=melbourne,
            pipeline="rpo",
            seed=[0, 1],
            service=process_service,
            full_result=True,
        )
        for result in results:
            assert result.metrics, "per-pass metrics survive the pool"
            assert result.loops, "loop metrics survive the pool"
            assert result.pass_times, "pass times derive from the metrics"
            assert result.analysis_cache is process_service.cache
            assert result.properties["target"] == melbourne.target()


class TestInProcess:
    """What the in-process path keeps: shared caches, validation and the
    ``"target"`` result property."""

    def _batch(self, n=4):
        from repro.algorithms import ry_ansatz

        return [ry_ansatz(3, depth=2, seed=s) for s in range(n)]

    def test_auto_and_serial_are_one_path(self, melbourne):
        batch = self._batch()
        auto = transpile(
            [c.copy() for c in batch], backend=melbourne, seed=[0, 1, 2, 3]
        )
        serial = transpile(
            [c.copy() for c in batch],
            backend=melbourne,
            seed=[0, 1, 2, 3],
            executor="serial",
        )
        for expected, got in zip(serial, auto):
            _assert_identical_circuits(expected, got)

    def test_batch_shares_the_callers_analysis_cache(self, melbourne):
        cache = AnalysisCache()
        results = transpile(
            self._batch(),
            backend=melbourne,
            seed=0,
            analysis_cache=cache,
            full_result=True,
        )
        assert all(result.analysis_cache is cache for result in results)
        assert cache.stats["matrix_hits"] > 0

    def test_result_cache_serves_repeat_calls(self, melbourne):
        cache = ResultCache()
        batch = self._batch(2)
        cold = transpile(
            [c.copy() for c in batch],
            backend=melbourne,
            seed=[0, 1],
            result_cache=cache,
            full_result=True,
        )
        warm = transpile(
            [c.copy() for c in batch],
            backend=melbourne,
            seed=[0, 1],
            result_cache=cache,
            full_result=True,
        )
        assert [r.properties.get("result_cache") for r in cold] == [None, None]
        assert [r.properties.get("result_cache") for r in warm] == ["hit", "hit"]
        for first, second in zip(cold, warm):
            _assert_identical_circuits(first.circuit, second.circuit)
            assert second.properties["target"] == melbourne.target()

    @pytest.mark.parametrize("value", [True, "yes"])
    def test_result_cache_must_be_a_cache(self, melbourne, value):
        # True used to reach compile_job and fail there with AttributeError
        with pytest.raises(TranspilerError, match="result_cache must be a ResultCache or None"):
            transpile(self._batch(1)[0], backend=melbourne, result_cache=value)

    def test_validate_runs_qsan_in_process(self, melbourne):
        result = transpile(
            self._batch(1)[0],
            backend=melbourne,
            pipeline="rpo",
            seed=0,
            validate="full",
            full_result=True,
        )
        assert result.violations == []
        assert result.properties["target"] == melbourne.target()

    def test_default_transpile_creates_no_pool(self, monkeypatch):
        """16 circuits of 5 qubits once crossed the ``auto`` threshold for a
        per-call process pool; now they compile in-process."""
        import concurrent.futures

        import repro.transpiler.service as service_module
        from repro.algorithms import ry_ansatz

        def no_pool(*args, **kwargs):
            raise AssertionError("transpile() started a pool")

        monkeypatch.setattr(service_module, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        batch = [ry_ansatz(5, depth=1, seed=s) for s in range(16)]
        results = transpile(batch, pipeline="level1", seed=list(range(16)))
        assert len(results) == 16
        assert all(result.num_qubits == 5 for result in results)


class TestHeterogeneousBatches:
    """Mixed-target batches, in-process and through a persistent service.

    A batch whose circuits are bound for *different* targets must compile
    to exactly what per-target serial runs produce -- whichever path runs
    it -- and every output circuit must respect its own target's coupling
    map.
    """

    TARGET_POOL = ("melbourne", "linear:8", "ring:8", "grid:2x4")

    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_mixed_target_batches_match_per_target_serial_runs(
        self, data, process_service
    ):
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

        for label, extra in (("serial", {}), ("service", {"service": process_service})):
            outputs = transpile(
                [circuit.copy() for circuit in batch],
                target=targets,
                pipeline=pipeline,
                seed=seeds,
                **extra,
            )
            for expected, got, target in zip(reference, outputs, targets):
                _assert_identical_circuits(expected, got)
                assert respects_coupling(got, target.coupling_map), (
                    f"{label} output violates {target.name} coupling"
                )

    def test_mixed_targets_through_persistent_service(self):
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

    @pytest.mark.parametrize("executor", RETIRED_EXECUTORS)
    def test_retired_executor_points_at_service(self, executor):
        with pytest.raises(TranspilerError, match=r"service=CompileService\(") as info:
            transpile([QuantumCircuit(2)] * 2, executor=executor)
        assert repr(executor) in str(info.value)

    @pytest.mark.parametrize("keyword", ["max_workers", "options"])
    def test_removed_keyword_is_a_type_error(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            transpile(QuantumCircuit(1), **{keyword: None})

    def test_service_and_endpoint_are_exclusive(self):
        with CompileService(mode="serial") as service:
            with pytest.raises(TranspilerError, match="not both"):
                transpile(
                    [QuantumCircuit(2)],
                    service=service,
                    endpoint="http://localhost:1",
                )

    def test_endpoint_contradicting_executor_is_an_error(self):
        with pytest.raises(TranspilerError, match="remote"):
            transpile(
                [QuantumCircuit(2)], executor="serial", endpoint="http://localhost:1"
            )


class TestEmptyBatch:
    """Regression tests: transpile([]) is a valid request whose answer is
    an empty list (and a well-formed zeroed metrics report), on every
    path -- nothing may reach a pool, a service or the network."""

    @pytest.mark.parametrize("executor", ["auto", "serial"])
    def test_empty_batch_returns_empty_list(self, executor):
        assert transpile([], executor=executor) == []
        assert transpile([], executor=executor, full_result=True) == []

    @pytest.mark.parametrize("executor", RETIRED_EXECUTORS)
    def test_empty_batch_rejects_retired_executor(self, executor):
        with pytest.raises(TranspilerError, match="service="):
            transpile([], executor=executor)

    def test_empty_batch_through_persistent_service(self):
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
