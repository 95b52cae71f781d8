"""Tests for the long-lived ``CompileService``.

Covers the lifecycle contract (lazy pool, async submit, graceful
shutdown), output parity with plain ``transpile()``, heterogeneous
per-job targets, periodic autosave (and its counted failures) and the
result cache with its disk snapshot.
"""

import numpy as np
import pytest

from repro.algorithms import quantum_phase_estimation, ry_ansatz
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


def _assert_identical(a: QuantumCircuit, b: QuantumCircuit):
    assert abs(a.global_phase - b.global_phase) < 1e-9
    assert len(a.data) == len(b.data)
    for inst_a, inst_b in zip(a.data, b.data):
        assert inst_a.operation.name == inst_b.operation.name
        assert inst_a.qubits == inst_b.qubits
        assert inst_a.clbits == inst_b.clbits
        assert np.allclose(inst_a.operation.params, inst_b.operation.params)


@pytest.fixture(scope="module")
def melbourne():
    return FakeMelbourne()


class TestLifecycle:
    def test_context_manager_round_trip(self, melbourne):
        with CompileService(mode="serial", pipeline="rpo") as service:
            result = service.submit(
                quantum_phase_estimation(3), target=melbourne.target(), seed=0
            ).result()
            assert result.circuit.count_ops()
        stats = service.stats()
        assert stats["submitted"] == stats["completed"] == 1

    def test_submit_after_shutdown_raises(self):
        service = CompileService(mode="serial")
        service.shutdown()
        with pytest.raises(TranspilerError, match="shut down"):
            service.submit(QuantumCircuit(2))

    def test_shutdown_is_idempotent(self):
        service = CompileService(mode="serial")
        service.shutdown()
        service.shutdown()

    def test_unknown_mode_rejected(self):
        with pytest.raises(TranspilerError, match="mode"):
            CompileService(mode="rocket")

    def test_thread_mode_is_gone(self):
        with pytest.raises(TranspilerError, match="choose one of process, serial"):
            CompileService(mode="thread")

    @pytest.mark.parametrize("max_workers", [-1, 0, 1.5, "2", True])
    def test_bad_max_workers_rejected_at_construction(self, max_workers):
        """Regression: -1 used to construct fine and fail at the first
        submit with a bare ValueError, and 0 silently meant cores-1."""
        with pytest.raises(TranspilerError, match="max_workers") as info:
            CompileService(mode="process", max_workers=max_workers)
        assert repr(max_workers) in str(info.value)

    @pytest.mark.parametrize("max_workers", [None, 1, 3])
    def test_good_max_workers_accepted(self, max_workers):
        service = CompileService(mode="process", max_workers=max_workers)
        try:
            assert service.max_workers == max_workers
            assert service._pool is None  # validated without starting a pool
        finally:
            service.shutdown(save=False)

    def test_options_keyword_is_gone(self):
        with pytest.raises(TypeError, match="options"):
            CompileService(mode="serial", options=None)

    def test_pool_is_lazy_and_persistent(self):
        service = CompileService(mode="process", max_workers=2)
        assert service._pool is None
        service.submit(QuantumCircuit(2)).result()
        pool = service._pool
        assert pool is not None
        service.submit(QuantumCircuit(2)).result()
        assert service._pool is pool  # same pool across submissions
        service.shutdown()

    def test_serial_mode_never_starts_a_pool(self):
        with CompileService(mode="serial") as service:
            service.map([QuantumCircuit(2), QuantumCircuit(3)])
            assert service._pool is None

    def test_futures_resolve_out_of_submission_order(self):
        with CompileService(
            mode="process", pipeline="level1", max_workers=2
        ) as service:
            futures = [
                service.submit(ry_ansatz(3, depth=2, seed=s), seed=s)
                for s in range(4)
            ]
            results = [f.result() for f in reversed(futures)]
        assert all(r.circuit.count_ops() for r in results)

    def test_failed_job_propagates_exception(self):
        with CompileService(mode="serial") as service:
            with pytest.raises(TranspilerError):
                service.submit(QuantumCircuit(2), pipeline="warpdrive").result()
        assert service.stats()["failed"] == 1

    def test_map_seed_length_mismatch(self):
        with CompileService(mode="serial") as service:
            with pytest.raises(TranspilerError, match="seeds"):
                service.map([QuantumCircuit(2)], seeds=[0, 1])


class TestParity:
    """Service output must be identical to plain serial transpile()."""

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_modes_match_transpile(self, mode, melbourne):
        batch = [quantum_phase_estimation(3), ry_ansatz(4, depth=2, seed=11)]
        seeds = [0, 1]
        reference = transpile(
            [c.copy() for c in batch],
            target=melbourne,
            pipeline="rpo",
            seed=seeds,
            executor="serial",
        )
        with CompileService(mode=mode, pipeline="rpo") as service:
            results = service.map(
                [c.copy() for c in batch],
                targets=melbourne.target(),
                seeds=seeds,
            )
        for expected, result in zip(reference, results):
            _assert_identical(expected, result.circuit)

    def test_transpile_routes_through_given_service(self, melbourne):
        batch = [quantum_phase_estimation(3) for _ in range(2)]
        with CompileService(mode="serial", pipeline="rpo") as service:
            via_service = transpile(
                [c.copy() for c in batch],
                target=melbourne,
                pipeline="rpo",
                seed=[0, 1],
                service=service,
            )
        assert service.stats()["completed"] == 2
        direct = transpile(
            [c.copy() for c in batch],
            target=melbourne,
            pipeline="rpo",
            seed=[0, 1],
            executor="serial",
        )
        for expected, got in zip(direct, via_service):
            _assert_identical(expected, got)

    def test_service_defaults_apply_through_transpile(self, melbourne):
        """Regression test: transpile(service=...) must not override the
        service's configured pipeline with transpile's own defaults."""
        circuit = quantum_phase_estimation(3)
        rpo_reference = transpile(
            circuit.copy(), target=melbourne, pipeline="rpo", seed=0,
        )
        with CompileService(mode="serial", pipeline="rpo") as service:
            via_service = transpile(
                circuit.copy(), target=melbourne, seed=0, service=service
            )
        _assert_identical(rpo_reference, via_service)

    def test_service_default_target_applies_through_transpile(self, melbourne):
        """Regression test: transpile(service=...) without any hardware
        argument must use the service's configured target, not silently
        fall back to all-to-all connectivity."""
        from tests.helpers import respects_coupling

        circuit = quantum_phase_estimation(3)
        with CompileService(
            mode="serial", pipeline="rpo", target=melbourne.target()
        ) as service:
            result = transpile(circuit.copy(), service=service, full_result=True)
        assert result.properties["target"] == melbourne.target()
        assert result.circuit.num_qubits == 15
        assert respects_coupling(result.circuit, melbourne.coupling_map)

    def test_explicit_pipeline_still_overrides_service_default(self, melbourne):
        circuit = quantum_phase_estimation(3)
        level3_reference = transpile(
            circuit.copy(), target=melbourne, pipeline="level3", seed=0
        )
        with CompileService(mode="serial", pipeline="rpo") as service:
            via_service = transpile(
                circuit.copy(),
                target=melbourne,
                pipeline="level3",
                seed=0,
                service=service,
            )
        _assert_identical(level3_reference, via_service)

    def test_results_carry_target_and_metrics(self, melbourne):
        target = melbourne.target()
        with CompileService(mode="process", pipeline="rpo", max_workers=2) as service:
            result = service.submit(
                quantum_phase_estimation(3), target=target, seed=0
            ).result()
        assert result.properties["target"] == target
        assert result.metrics and result.loops
        assert result.analysis_cache is service.cache

    def test_heterogeneous_targets_through_process_pool(self, melbourne):
        targets = [melbourne.target(), Target.preset("linear:8")]
        batch = [quantum_phase_estimation(3), quantum_phase_estimation(3)]
        with CompileService(mode="process", pipeline="rpo", max_workers=2) as service:
            results = service.map(batch, targets=targets, seeds=[0, 0])
        assert [r.properties["target"] for r in results] == targets
        # each output respects its own device size
        assert results[0].circuit.num_qubits == 15
        assert results[1].circuit.num_qubits == 8


class TestWorkerCaches:
    """Each process worker keeps its own analysis cache; only its
    synthesis stats increments travel back to the service."""

    _SETTINGS = {
        "pipeline": "rpo",
        "optimization_level": 1,
        "seed": 0,
        "initial_layout": None,
    }

    def _chunk(self, melbourne):
        from repro.circuit.serialization import circuit_to_payload

        job = (
            circuit_to_payload(quantum_phase_estimation(3)),
            melbourne.target().to_payload(),
            self._SETTINGS,
        )
        return (job,)

    def test_chunk_returns_plain_counter_increment(self, melbourne, monkeypatch):
        from collections import Counter

        import repro.transpiler.service as service_module

        monkeypatch.setattr(service_module, "_WORKER_STATE", None)
        service_module._service_worker_init()
        outcomes, increment = service_module._service_chunk(self._chunk(melbourne))
        assert [status for status, _ in outcomes] == ["ok"]
        assert type(increment) is Counter
        assert increment["synth_attempts"] > 0
        assert all(isinstance(value, int) for value in increment.values())

    def test_repeat_chunk_increment_counts_only_new_requests(
        self, melbourne, monkeypatch
    ):
        import repro.transpiler.service as service_module

        monkeypatch.setattr(service_module, "_WORKER_STATE", None)
        service_module._service_worker_init()
        _, first = service_module._service_chunk(self._chunk(melbourne))
        _, second = service_module._service_chunk(self._chunk(melbourne))
        # the worker's memo answers the repeat: no new syntheses
        assert second["synth_attempts"] == 0
        assert second["synth_memo_hits"] > 0
        worker_cache = service_module._WORKER_STATE["cache"]
        assert first + second == +worker_cache.stats

    def test_parent_cache_holds_no_worker_entries(self, melbourne):
        cache = AnalysisCache()
        with CompileService(
            mode="process", pipeline="rpo", analysis_cache=cache, max_workers=2
        ) as service:
            service.map(
                [quantum_phase_estimation(3) for _ in range(3)],
                targets=melbourne.target(),
                seeds=[0, 1, 2],
            )
            stats = service.stats()
        assert not cache._syntheses
        assert cache.stats["synth_attempts"] > 0
        assert stats["completed"] == 3

    def test_worker_cache_warms_across_batches(self, melbourne):
        """A worker's cache outlives its jobs: a repeat batch (result
        cache off, so it reaches the pool) synthesizes nothing new."""
        cache = AnalysisCache()
        batch = [quantum_phase_estimation(3), ry_ansatz(4, depth=2, seed=11)]
        with CompileService(
            mode="process",
            pipeline="rpo",
            analysis_cache=cache,
            max_workers=1,
            result_cache=False,
        ) as service:
            service.map(batch, targets=melbourne.target(), seeds=[0, 1])
            cold = cache.stats["synth_attempts"]
            hits = cache.stats["synth_memo_hits"]
            service.map(batch, targets=melbourne.target(), seeds=[0, 1])
            warm = cache.stats["synth_attempts"] - cold
        assert cold > 0
        assert warm == 0
        assert cache.stats["synth_memo_hits"] > hits

    def test_serial_jobs_share_the_service_cache(self, melbourne):
        cache = AnalysisCache()
        with CompileService(
            mode="serial", pipeline="rpo", analysis_cache=cache
        ) as service:
            service.map(
                [quantum_phase_estimation(3) for _ in range(2)],
                targets=melbourne.target(),
                seeds=[0, 1],
            )
        # the memo entries answer more decisions than there are entries
        decisions = (
            "synth_prescan_skips",
            "synth_tie_rejects",
            "synth_memo_hits",
            "synth_attempts",
        )
        assert 0 < len(cache._syntheses) < sum(cache.stats[key] for key in decisions)


class TestStatsSurface:
    def test_stats_report_no_cache_shipping_counters(self):
        with CompileService(mode="serial") as service:
            stats = service.stats()
        for removed in (
            "harvests",
            "syncs_sent",
            "snapshot_entries_loaded",
            "snapshot_skipped",
            "cache_matrices",
            "cache_requests",
            "cache_constructions",
        ):
            assert removed not in stats
        assert stats["autosave_failures"] == 0
        assert stats["autosave_error"] is None
        assert stats["result_entries_loaded"] == 0

    def test_harvest_interval_keyword_is_gone(self):
        with pytest.raises(TypeError):
            CompileService(mode="serial", harvest_interval=1.0)


class TestChunkedDispatch:
    """Chunked job envelopes: several jobs per pool task, same answers."""

    def _batch(self, n=12):
        return [ry_ansatz(3, depth=2, seed=s) for s in range(n)]

    def test_chunked_map_matches_per_job_dispatch(self, melbourne):
        batch = self._batch()
        seeds = list(range(len(batch)))
        with CompileService(mode="serial", pipeline="level1") as service:
            reference = service.map(
                [c.copy() for c in batch], targets=melbourne.target(), seeds=seeds
            )
        with CompileService(
            mode="process", pipeline="level1", max_workers=1
        ) as service:
            assert service.chunk_size_for(len(batch)) == 3
            chunked = service.map(
                [c.copy() for c in batch], targets=melbourne.target(), seeds=seeds
            )
            stats = service.stats()
        assert stats["chunks"] == 4  # 12 jobs / 3 per chunk
        assert stats["submitted"] == stats["completed"] == len(batch)
        for expected, result in zip(reference, chunked):
            _assert_identical(expected.circuit, result.circuit)

    def test_auto_chunking_kicks_in_for_large_batches(self, melbourne):
        batch = self._batch(24)
        with CompileService(
            mode="process", pipeline="level1", max_workers=2
        ) as service:
            service.map(
                [c.copy() for c in batch],
                targets=melbourne.target(),
                seeds=list(range(len(batch))),
            )
            stats = service.stats()
        # auto policy: fewer pool tasks than jobs (chunks amortized)
        assert stats["chunks"] < len(batch)
        assert stats["completed"] == len(batch)

    def test_chunk_size_policy_bounds(self):
        service = CompileService(mode="process", max_workers=2)
        try:
            assert service.chunk_size_for(2) == 1  # pool absorbs it per-job
            assert service.chunk_size_for(200) >= 2
            assert service.chunk_size_for(100_000) <= 64
        finally:
            service.shutdown(save=False)
        serial = CompileService(mode="serial")
        assert serial.chunk_size_for(1000) == 1  # nothing to amortize
        serial.shutdown(save=False)

    def _payload_jobs(self, target, n):
        """``n`` wire-form jobs on one worker's pool: chunks of 2."""
        from repro.circuit.serialization import circuit_to_payload

        return [
            (
                circuit_to_payload(circuit),
                target.to_payload(),
                {"pipeline": None, "optimization_level": None, "seed": seed},
            )
            for seed, circuit in enumerate(self._batch(n))
        ]

    def test_bad_job_fails_alone_inside_chunk(self, melbourne):
        """Regression guard for per-job error isolation: one unknown
        pipeline inside a chunk must fail only its own future."""
        jobs = self._payload_jobs(melbourne.target(), 8)
        jobs[1][2]["pipeline"] = "warpdrive"
        with CompileService(
            mode="process", pipeline="level1", max_workers=1
        ) as service:
            assert service.chunk_size_for(len(jobs)) == 2  # jobs 0 and 1 share
            futures = service.submit_payloads(jobs)
            for index, future in enumerate(futures):
                if index == 1:
                    with pytest.raises(TranspilerError, match="warpdrive"):
                        future.result()
                else:
                    assert future.result().circuit.count_ops()
        stats = service.stats()
        assert stats["chunks"] == 4
        assert stats["failed"] == 1
        assert stats["completed"] == 7

    @pytest.mark.parametrize("cancelled", [0, 1])
    def test_cancelled_future_leaves_chunk_mates_resolved(
        self, melbourne, caplog, cancelled
    ):
        """A caller cancelling one job's future (a good one, or the one
        whose job fails) must not abandon the rest of its chunk, and the
        scatter callback must not raise."""
        import logging

        jobs = self._payload_jobs(melbourne.target(), 8)
        jobs[1][2]["pipeline"] = "warpdrive"
        with CompileService(
            mode="process", pipeline="level1", max_workers=1
        ) as service:
            with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
                futures = service.submit_payloads(jobs)
                assert futures[cancelled].cancel()
                for index, future in enumerate(futures):
                    if index == cancelled:
                        continue
                    if index == 1:
                        with pytest.raises(TranspilerError, match="warpdrive"):
                            future.result(timeout=30)
                    else:
                        assert future.result(timeout=30).circuit.count_ops()
        assert futures[cancelled].cancelled()
        assert not caplog.records  # no "exception calling callback"

    def test_submit_payloads_round_trip(self, melbourne):
        """The compile server's entry point: wire-form jobs in, identical
        results out, on both the process and serial paths."""
        from repro.circuit.serialization import circuit_to_payload

        circuit = quantum_phase_estimation(3)
        target = melbourne.target()
        job = (
            circuit_to_payload(circuit),
            target.to_payload(),
            {
                "pipeline": "rpo",
                "optimization_level": None,
                "seed": 0,
                "initial_layout": None,
            },
        )
        reference = transpile(
            circuit.copy(), target=melbourne, pipeline="rpo", seed=0
        )
        for mode in ("serial", "process"):
            with CompileService(mode=mode, max_workers=2) as service:
                (future,) = service.submit_payloads([job])
                result = future.result()
            _assert_identical(reference, result.circuit)
            assert result.properties["target"] == target
        with CompileService(mode="serial") as service:
            assert service.submit_payloads([]) == []

    @pytest.mark.parametrize("mode", ["process", "serial"])
    def test_malformed_payload_fails_alone(self, melbourne, mode):
        """Decoding is the server's ingress check: a payload naming a qubit
        the circuit does not have fails its own job with append's error,
        and the rest of the batch compiles."""
        from repro.circuit.serialization import circuit_to_payload

        target = melbourne.target()
        settings = {
            "pipeline": "level1",
            "optimization_level": None,
            "seed": 0,
            "initial_layout": None,
        }
        circuits = [ry_ansatz(3, depth=1, seed=s) for s in range(16)]
        payloads = [circuit_to_payload(c) for c in circuits]
        version, name, nq, nc, phase, table, data = payloads[1]
        index, _, clbits = data[0]
        bad_data = ((index, (5,), clbits),) + data[1:]
        payloads[1] = (version, name, nq, nc, phase, table, bad_data)
        jobs = [(payload, target.to_payload(), settings) for payload in payloads]
        with CompileService(mode=mode, max_workers=2, result_cache=False) as service:
            futures = service.submit_payloads(jobs)
            with pytest.raises(IndexError, match=r"qubit 5 out of range \(0\.\.2\)"):
                futures[1].result()
            for future in futures[:1] + futures[2:]:
                assert future.result().circuit.count_ops()
            stats = service.stats()
        if mode == "process":
            # jobs 0 and 1 shared one pool task
            assert stats["chunks"] <= len(jobs) // 2
        assert stats["failed"] == 1
        assert stats["completed"] == len(jobs) - 1


def _float_hex(circuit: QuantumCircuit):
    """A circuit as float.hex strings: equal only when bit-identical."""
    return (
        float(circuit.global_phase).hex(),
        [
            (
                inst.operation.name,
                inst.qubits,
                inst.clbits,
                tuple(float(p).hex() for p in inst.operation.params),
            )
            for inst in circuit.data
        ],
    )


class TestOneJobPath:
    """``submit``, ``map`` and ``submit_payloads`` reach one dispatch
    routine: in both modes they give bit-identical circuits, the same
    counters, cache-served repeats and per-job failures."""

    COUNTERS = ("submitted", "completed", "failed", "chunks", "result_cache_hits")

    def _futures(self, service, front, circuits, target):
        """One future per circuit through ``front`` (``map`` results come
        back wrapped in resolved futures)."""
        from concurrent.futures import Future

        from repro.circuit.serialization import circuit_to_payload

        seeds = list(range(len(circuits)))
        if front == "submit":
            return [
                service.submit(circuit, target=target, seed=seed)
                for circuit, seed in zip(circuits, seeds)
            ]
        if front == "submit_payloads":
            return service.submit_payloads(
                [
                    (circuit_to_payload(circuit), target.to_payload(), {"seed": seed})
                    for circuit, seed in zip(circuits, seeds)
                ]
            )
        futures = []
        for result in service.map(circuits, targets=target, seeds=seeds):
            futures.append(Future())
            futures[-1].set_result(result)
        return futures

    @pytest.mark.parametrize("mode", ["serial", "process"])
    @pytest.mark.parametrize("front", ["submit", "map", "submit_payloads"])
    def test_fronts_share_outputs_counters_and_cache(self, melbourne, front, mode):
        target = melbourne.target()
        circuits = [ry_ansatz(3, depth=1, seed=s) for s in range(12)]
        reference = [
            _float_hex(transpile(c.copy(), target=target, pipeline="level1", seed=s))
            for s, c in enumerate(circuits)
        ]
        with CompileService(mode=mode, pipeline="level1", max_workers=1) as service:
            cold = [f.result() for f in self._futures(service, front, circuits, target)]
            after_cold = service.stats()
            warm = [f.result() for f in self._futures(service, front, circuits, target)]
            after_warm = service.stats()
        n = len(circuits)
        # one pool task per submit; chunk_size_for(12) == 3 on one worker
        chunks = 0 if mode == "serial" else (n if front == "submit" else 4)
        assert [_float_hex(r.circuit) for r in cold] == reference
        assert [_float_hex(r.circuit) for r in warm] == reference
        assert all(r.properties.get("result_cache") is None for r in cold)
        assert all(r.properties["result_cache"] == "hit" for r in warm)
        assert all(r.properties["target"] == target for r in cold + warm)
        assert [after_cold[k] for k in self.COUNTERS] == [n, n, 0, chunks, 0]
        assert [after_warm[k] for k in self.COUNTERS] == [2 * n, 2 * n, 0, chunks, n]

    @pytest.mark.parametrize("mode", ["serial", "process"])
    @pytest.mark.parametrize("front", ["submit", "map", "submit_payloads"])
    def test_failing_job_fails_alone(self, melbourne, front, mode):
        target = melbourne.target()
        circuits = [ry_ansatz(3, depth=1, seed=s) for s in range(12)]
        circuits[1] = QuantumCircuit(16)  # wider than the 15-qubit device
        with CompileService(mode=mode, pipeline="level1", max_workers=1) as service:
            if front == "map":
                with pytest.raises(TranspilerError, match="needs 16 qubits"):
                    self._futures(service, front, circuits, target)
            else:
                futures = self._futures(service, front, circuits, target)
                with pytest.raises(TranspilerError, match="needs 16 qubits"):
                    futures[1].result()
                for future in futures[:1] + futures[2:]:
                    assert future.result().circuit.count_ops()
        stats = service.stats()  # read after shutdown drained the pool
        assert [stats[k] for k in self.COUNTERS[:3]] == [12, 11, 1]


class TestAutosave:
    def test_periodic_autosave_writes_snapshot_before_shutdown(
        self, tmp_path, melbourne
    ):
        import os
        import time

        path = tmp_path / "autosave.snap"
        service = CompileService(
            mode="serial",
            pipeline="level1",
            snapshot_path=path,
            autosave_interval=0.1,
        )
        service.map(
            [quantum_phase_estimation(3)], targets=melbourne.target(), seeds=[0]
        )
        # a tick that fires before the compile lands writes an empty
        # snapshot, and the counter moves only after the file does: wait
        # for a tick after the compile and for its count
        def warm() -> bool:
            return os.path.exists(path) and ResultCache().load_snapshot(path) > 0

        deadline = time.time() + 10
        while not (warm() and service.stats()["autosaves"] >= 1) and time.time() < deadline:
            time.sleep(0.05)
        assert os.path.exists(path)
        assert service.stats()["autosaves"] >= 1
        # the autosaved snapshot is already warm (not just an empty stamp)
        assert ResultCache().load_snapshot(path) > 0
        service.shutdown(save=False)

    def test_autosave_timer_stops_at_shutdown(self, tmp_path):
        service = CompileService(
            mode="serial", snapshot_path=tmp_path / "s.snap", autosave_interval=60.0
        )
        timer = service._autosave_timer
        assert timer is not None
        service.shutdown()
        assert service._autosave_timer is None
        assert not timer.is_alive()

    def test_no_autosave_without_snapshot_path(self):
        service = CompileService(mode="serial", autosave_interval=0.1)
        assert service._autosave_timer is None
        service.shutdown()

    def test_failed_autosave_is_counted_and_serving_continues(
        self, tmp_path, melbourne
    ):
        import time

        path = tmp_path / "no-such-dir" / "autosave.snap"
        service = CompileService(
            mode="serial",
            pipeline="level1",
            snapshot_path=path,
            autosave_interval=0.05,
        )
        try:
            deadline = time.time() + 10
            while (
                service.stats()["autosave_failures"] < 2 and time.time() < deadline
            ):
                time.sleep(0.05)
            stats = service.stats()
            assert stats["autosave_failures"] >= 2  # the timer kept re-arming
            assert stats["autosaves"] == 0
            assert "FileNotFoundError" in stats["autosave_error"]
            result = service.submit(
                quantum_phase_estimation(3), target=melbourne.target(), seed=0
            ).result()
            assert result.circuit.count_ops()
        finally:
            service.shutdown(save=False)

    def test_autosave_recovers_once_path_is_writable(self, tmp_path, melbourne):
        import time

        directory = tmp_path / "late-dir"
        path = directory / "autosave.snap"
        service = CompileService(
            mode="serial",
            pipeline="level1",
            snapshot_path=path,
            autosave_interval=0.05,
        )
        try:
            service.map(
                [quantum_phase_estimation(3)], targets=melbourne.target(), seeds=[0]
            )
            deadline = time.time() + 10
            while service.stats()["autosave_failures"] < 1 and time.time() < deadline:
                time.sleep(0.05)
            assert service.stats()["autosave_failures"] >= 1
            directory.mkdir()
            while service.stats()["autosaves"] < 1 and time.time() < deadline:
                time.sleep(0.05)
            assert service.stats()["autosaves"] >= 1
            assert ResultCache().load_snapshot(path) == 1
        finally:
            service.shutdown(save=False)

    def test_autosave_writes_only_the_snapshot_file(self, tmp_path, melbourne):
        import time

        path = tmp_path / "autosave.snap"
        service = CompileService(
            mode="serial",
            pipeline="level1",
            snapshot_path=path,
            autosave_interval=0.05,
        )
        try:
            service.map(
                [quantum_phase_estimation(3)], targets=melbourne.target(), seeds=[0]
            )
            deadline = time.time() + 10
            while service.stats()["autosaves"] < 1 and time.time() < deadline:
                time.sleep(0.05)
            assert service.stats()["autosaves"] >= 1
        finally:
            service.shutdown(save=False)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["autosave.snap"]


class TestServiceResultCache:
    def _batch(self, n=4):
        rng = np.random.default_rng(5)
        return [
            ry_ansatz(3, depth=2, parameters=rng.uniform(0, 2 * np.pi, (3, 3)))
            for _ in range(n)
        ]

    def test_warm_repeat_batch_is_served_without_pool_jobs(self, melbourne):
        """The acceptance check: a repeated batch through a warm service
        returns bit-identical circuits with zero jobs reaching the pool."""
        batch = self._batch()
        with CompileService(
            mode="process", pipeline="level1", max_workers=2
        ) as service:
            first = service.map(batch, targets=melbourne.target(), seeds=[0] * 4)
            chunks_cold = service.stats()["chunks"]
            second = service.map(batch, targets=melbourne.target(), seeds=[0] * 4)
            stats = service.stats()
        assert stats["chunks"] == chunks_cold  # zero new pool traffic
        assert stats["result_cache_hits"] == 4
        for a, b in zip(first, second):
            assert a.circuit.global_phase == b.circuit.global_phase
            assert len(a.circuit.data) == len(b.circuit.data)
            for inst_a, inst_b in zip(a.circuit.data, b.circuit.data):
                assert inst_a.operation.name == inst_b.operation.name
                assert list(inst_a.operation.params) == list(inst_b.operation.params)

    def test_all_hit_batch_never_creates_the_pool(self, melbourne):
        batch = self._batch()
        cache = None
        with CompileService(mode="serial", pipeline="level1") as warmer:
            warmer.map(batch, targets=melbourne.target(), seeds=[0] * 4)
            cache = warmer.result_cache
        with CompileService(
            mode="process", pipeline="level1", result_cache=cache
        ) as service:
            service.map(batch, targets=melbourne.target(), seeds=[0] * 4)
            stats = service.stats()
            assert stats["result_cache_hits"] == 4
            assert stats["chunks"] == 0
            assert service._pool is None  # never even constructed

    def test_caller_mutation_cannot_corrupt_cached_results(self, melbourne):
        """Regression: ``_run_local`` stores the caller's live result
        objects; a caller mutating its ``metrics``/``loops`` (or a nested
        property value) afterwards must not leak into what later callers
        are served."""
        circuit = self._batch(1)[0]
        with CompileService(mode="serial", pipeline="level1") as service:
            first = service.submit(circuit, target=melbourne.target()).result()
            n_metrics = len(first.metrics)
            first.metrics.append("junk")
            first.loops.append("junk")
            second = service.submit(circuit, target=melbourne.target()).result()
            assert service.stats()["result_cache_hits"] == 1
            assert len(second.metrics) == n_metrics
            assert "junk" not in second.metrics
            assert "junk" not in second.loops
            second.metrics.append("more junk")
            third = service.submit(circuit, target=melbourne.target()).result()
            assert len(third.metrics) == n_metrics

    def test_result_cache_disabled_with_false(self, melbourne):
        batch = self._batch(2)
        with CompileService(
            mode="serial", pipeline="level1", result_cache=False
        ) as service:
            service.map(batch, targets=melbourne.target(), seeds=[0, 0])
            service.map(batch, targets=melbourne.target(), seeds=[0, 0])
            stats = service.stats()
        assert service.result_cache is None
        assert stats["result_cache_hits"] == 0
        assert stats["result_cache"] is None

    def test_result_cache_true_builds_a_fresh_cache(self, melbourne):
        batch = self._batch(2)
        with CompileService(
            mode="serial", pipeline="level1", result_cache=True
        ) as service:
            assert isinstance(service.result_cache, ResultCache)
            first = service.map(batch, targets=melbourne.target(), seeds=[0, 0])
            second = service.map(batch, targets=melbourne.target(), seeds=[0, 0])
            stats = service.stats()
        assert stats["result_cache_hits"] == 2
        for a, b in zip(first, second):
            _assert_identical(a.circuit, b.circuit)
        with CompileService(mode="serial", result_cache=True) as other:
            assert other.result_cache is not service.result_cache

    @pytest.mark.parametrize("value", ["yes", 1, object()])
    def test_result_cache_rejects_other_values(self, value):
        with pytest.raises(TranspilerError, match="result_cache must be a ResultCache"):
            CompileService(mode="serial", result_cache=value)

    def test_initial_layout_jobs_bypass_the_cache(self, melbourne):
        from repro.transpiler import Layout

        batch = self._batch(1)
        layout = Layout({0: 0, 1: 1, 2: 2})
        with CompileService(mode="serial", pipeline="level1") as service:
            service.map(
                batch, targets=melbourne.target(), seeds=[0], initial_layout=layout
            )
            service.map(
                batch, targets=melbourne.target(), seeds=[0], initial_layout=layout
            )
            stats = service.stats()
        assert stats["result_cache_hits"] == 0

    def test_snapshot_path_persists_result_cache_alongside(self, tmp_path, melbourne):
        path = tmp_path / "svc.snap"
        batch = self._batch()
        with CompileService(
            mode="serial", pipeline="level1", snapshot_path=path
        ) as service:
            service.map(batch, targets=melbourne.target(), seeds=[0] * 4)
        assert path.exists()
        assert not (tmp_path / "svc.snap.results").exists()

        reborn = CompileService(mode="serial", pipeline="level1", snapshot_path=path)
        try:
            assert reborn.stats()["result_entries_loaded"] > 0
            reborn.map(batch, targets=melbourne.target(), seeds=[0] * 4)
            assert reborn.stats()["result_cache_hits"] == 4
        finally:
            reborn.shutdown(save=False)

    def test_missing_snapshot_is_cold_boot(self, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service = CompileService(
                mode="serial", snapshot_path=tmp_path / "absent.snap"
            )
        assert service.stats()["result_entries_loaded"] == 0
        service.shutdown(save=False)

    def test_save_snapshot_explicit_path(self, tmp_path, melbourne):
        with CompileService(mode="serial", pipeline="level1") as service:
            service.map(self._batch(2), targets=melbourne.target(), seeds=[0, 0])
            written = service.save_snapshot(tmp_path / "explicit.snap")
        assert written is not None
        assert ResultCache().load_snapshot(written) == 2

    def test_save_snapshot_without_path_is_noop(self):
        service = CompileService(mode="serial")
        assert service.save_snapshot() is None
        service.shutdown()

    def test_warm_restart_serves_bit_identical_results(self, tmp_path, melbourne):
        path = tmp_path / "svc.snap"
        batch = self._batch(2)
        with CompileService(
            mode="serial", pipeline="level1", snapshot_path=path
        ) as service:
            first = service.map(batch, targets=melbourne.target(), seeds=[0, 0])
        with CompileService(
            mode="serial", pipeline="level1", snapshot_path=path
        ) as reborn:
            served = reborn.map(batch, targets=melbourne.target(), seeds=[0, 0])
            assert reborn.stats()["result_cache_hits"] == 2
        for a, b in zip(first, served):
            assert a.circuit.global_phase == b.circuit.global_phase
            assert len(a.circuit.data) == len(b.circuit.data)
            for inst_a, inst_b in zip(a.circuit.data, b.circuit.data):
                assert inst_a.operation.name == inst_b.operation.name
                assert inst_a.qubits == inst_b.qubits
                assert list(inst_a.operation.params) == list(inst_b.operation.params)

    def test_shutdown_without_save_writes_nothing(self, tmp_path, melbourne):
        path = tmp_path / "svc.snap"
        service = CompileService(mode="serial", pipeline="level1", snapshot_path=path)
        service.map(self._batch(1), targets=melbourne.target(), seeds=[0])
        service.shutdown(save=False)
        assert not path.exists()

    def test_snapshot_path_without_result_cache_writes_nothing(
        self, tmp_path, melbourne
    ):
        path = tmp_path / "svc.snap"
        with CompileService(
            mode="serial", pipeline="level1", snapshot_path=path, result_cache=False
        ) as service:
            service.map(self._batch(1), targets=melbourne.target(), seeds=[0])
            assert service.save_snapshot() is None
        assert not path.exists()

    def test_process_map_then_immediate_shutdown_persists_results(
        self, tmp_path, melbourne
    ):
        """Results answered by pool workers are stored in the parent's
        result cache as they arrive, so an immediate shutdown persists
        the whole batch."""
        path = tmp_path / "svc.snap"
        service = CompileService(
            mode="process", pipeline="level1", max_workers=2, snapshot_path=path
        )
        service.map(self._batch(4), targets=melbourne.target(), seeds=[0] * 4)
        service.shutdown()
        assert ResultCache().load_snapshot(path) == 4
