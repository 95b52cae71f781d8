"""The compiled-result cache: exact hits, template re-binding, eviction,
snapshots, and the concurrency contract.

Correctness bar (the PR's acceptance): an exact hit is **bit-identical**
to the compile it replays; a template hit (same ansatz, different
parameters) is gate-exact -- same gate sequence on the same qubits,
rotation angles exact, phase-class angles exact modulo 2*pi.  Global
phase on template hits is best-effort only (the optimizer's Euler folds
move pi in and out of the global phase, which no per-gate record can
reconstruct -- and which no measurement can observe).
"""

import math
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import ry_ansatz
from repro.circuit import QuantumCircuit
from repro.circuit.serialization import circuit_to_payload
from repro.transpiler import CompileService, ResultCache, Target

TWO_PI = 2.0 * math.pi


def _mod_close(a, b, tol=1e-8):
    diff = (float(a) - float(b)) % TWO_PI
    return diff < tol or TWO_PI - diff < tol


def _assert_gate_exact(served: QuantumCircuit, fresh: QuantumCircuit):
    """Template-hit contract: identical structure, angles exact mod 2*pi."""
    assert len(served.data) == len(fresh.data)
    for inst_s, inst_f in zip(served.data, fresh.data):
        assert inst_s.operation.name == inst_f.operation.name
        assert inst_s.qubits == inst_f.qubits
        assert inst_s.clbits == inst_f.clbits
        params_s = inst_s.operation.params
        params_f = inst_f.operation.params
        assert len(params_s) == len(params_f)
        for a, b in zip(params_s, params_f):
            assert _mod_close(a, b), (inst_s.operation.name, a, b)


def _assert_bit_identical(served: QuantumCircuit, fresh: QuantumCircuit):
    assert served.global_phase == fresh.global_phase
    assert len(served.data) == len(fresh.data)
    for inst_s, inst_f in zip(served.data, fresh.data):
        assert inst_s.operation.name == inst_f.operation.name
        assert inst_s.qubits == inst_f.qubits
        assert list(inst_s.operation.params) == list(inst_f.operation.params)


def _ansatz(params):
    return ry_ansatz(4, depth=2, parameters=np.asarray(params).reshape(3, 4))


def _random_params(seed):
    return np.random.default_rng(seed).uniform(0.1, TWO_PI - 0.1, 12)


OPTIONS_KEY = ("preset", 1, None)


def _job(circuit, target):
    return (circuit_to_payload(circuit), target.to_payload(), OPTIONS_KEY)


@pytest.fixture(scope="module")
def target():
    return Target.preset("linear:4")


def _compile_once(circuit, target):
    """One cold compile; returns (service-independent) result payload."""
    with CompileService(
        mode="serial", pipeline="preset", optimization_level=1, result_cache=False
    ) as service:
        return service.submit(circuit, target=target).result()


class TestExactEntries:
    def test_miss_then_hit(self, target):
        cache = ResultCache()
        circuit = _ansatz(_random_params(0))
        assert cache.lookup(*_job(circuit, target)) is None
        with CompileService(
            mode="serial",
            pipeline="preset",
            optimization_level=1,
            result_cache=cache,
        ) as service:
            first = service.submit(circuit, target=target).result()
            second = service.submit(circuit, target=target).result()
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] >= 1
        _assert_bit_identical(second.circuit, first.circuit)

    def test_hit_serves_under_requesters_name(self, target):
        """Content addressing ignores names: an identical circuit under a
        different label hits, and the served result carries *its* label."""
        cache = ResultCache()
        params = _random_params(1)
        original = _ansatz(params)
        renamed = _ansatz(params)
        renamed.name = "somebody-else"
        with CompileService(
            mode="serial",
            pipeline="preset",
            optimization_level=1,
            result_cache=cache,
        ) as service:
            service.submit(original, target=target).result()
            served = service.submit(renamed, target=target).result()
        assert cache.stats()["hits"] == 1
        assert served.circuit.name == "somebody-else"

    def test_options_key_separates_entries(self, target):
        """Same circuit, different optimization level: different entry."""
        cache = ResultCache()
        circuit = _ansatz(_random_params(2))
        payload = circuit_to_payload(circuit)
        tp = target.to_payload()
        result = ("payload-stand-in", {}, {}, 0.0, {})
        cache.store(payload, tp, ("preset", 1, None), result)
        assert cache.lookup(payload, tp, ("preset", 3, None)) is None
        assert cache.lookup(payload, tp, ("preset", 1, 7)) is None
        assert cache.lookup(payload, tp, ("preset", 1, None)) is not None

    def test_cached_entries_share_no_mutable_state_with_callers(self, target):
        """Regression: metrics/loops lists and nested property values
        must be isolated on both the store side (the producer keeps live
        references to what it stored) and the serve side (a caller
        mutating its result must not corrupt what later callers get)."""
        cache = ResultCache()
        circuit = _ansatz(_random_params(4))
        job = _job(circuit, target)
        metrics = [["SomePass", 1.0]]
        loops = [["loop", 2]]
        props = {"nested": [1, 2]}
        cache.store(*job, (("cp", circuit.name), metrics, loops, 0.0, props))
        # producer-side mutation after the store
        metrics.append(["Corrupt", -1.0])
        loops[0].append("corrupt")
        props["nested"].append(99)
        served, kind = cache.lookup(*job)
        assert kind == "hit"
        assert served[1] == [["SomePass", 1.0]]
        assert served[2] == [["loop", 2]]
        assert served[4] == {"nested": [1, 2]}
        # caller-side mutation of the served result
        served[1].append(["AlsoCorrupt", 0.0])
        served[2][0].append("also")
        served[4]["nested"].append(123)
        again, _ = cache.lookup(*job)
        assert again[1] == [["SomePass", 1.0]]
        assert again[2] == [["loop", 2]]
        assert again[4] == {"nested": [1, 2]}

    def test_target_separates_entries(self):
        cache = ResultCache()
        circuit = _ansatz(_random_params(3))
        payload = circuit_to_payload(circuit)
        result = ("payload-stand-in", {}, {}, 0.0, {})
        cache.store(payload, Target.preset("linear:4").to_payload(), OPTIONS_KEY, result)
        assert (
            cache.lookup(payload, Target.preset("ring:4").to_payload(), OPTIONS_KEY)
            is None
        )


class TestTemplateRebinding:
    def test_learns_after_two_samples_then_serves(self, target):
        cache = ResultCache()
        with CompileService(
            mode="serial",
            pipeline="preset",
            optimization_level=1,
            result_cache=cache,
        ) as service:
            for seed in range(5):
                service.submit(_ansatz(_random_params(seed)), target=target).result()
        stats = cache.stats()
        assert stats["template_learned"] == 1
        assert stats["template_hits"] == 3
        assert stats["template_unbindable"] == 0

    def test_template_hit_is_gate_exact_vs_cold_compile(self, target):
        cache = ResultCache()
        with CompileService(
            mode="serial",
            pipeline="preset",
            optimization_level=1,
            result_cache=cache,
        ) as service:
            service.submit(_ansatz(_random_params(10)), target=target).result()
            service.submit(_ansatz(_random_params(11)), target=target).result()
            probe = _ansatz(_random_params(12))
            warm = service.submit(probe, target=target).result()
        assert cache.stats()["template_hits"] == 1
        cold = _compile_once(probe, target)
        _assert_gate_exact(warm.circuit, cold.circuit)

    def test_template_hits_promote_to_exact_entries(self, target):
        """A rebound serve becomes a first-class exact entry, so repeats
        skip the re-binding math and peers can find it by fingerprint."""
        cache = ResultCache()
        probe = _ansatz(_random_params(22))
        with CompileService(
            mode="serial",
            pipeline="preset",
            optimization_level=1,
            result_cache=cache,
        ) as service:
            service.submit(_ansatz(_random_params(20)), target=target).result()
            service.submit(_ansatz(_random_params(21)), target=target).result()
            service.submit(probe, target=target).result()
            service.submit(probe, target=target).result()
        stats = cache.stats()
        assert stats["template_hits"] == 1
        assert stats["hits"] == 1  # the repeat came from the exact table

    def test_partially_varied_pair_defers_learning(self, target):
        """Regression: a sample pair that moves only *some* parameters
        must not learn a map -- the unmoved parameter's value would be
        baked in as a constant, and verification (against a sample where
        it is equally unmoved) could not catch it.  Coordinate-descent
        traffic then asks for the unmoved slot at a new value and must
        get a correct answer, not the baked-in one."""
        cache = ResultCache()
        base = _random_params(30)
        partial = base.copy()
        partial[0] += 0.4  # only one of twelve parameters moves
        probe = base.copy()
        probe[0] += 0.2
        probe[1] += 0.9  # moves a parameter the first pair held fixed
        with CompileService(
            mode="serial",
            pipeline="preset",
            optimization_level=1,
            result_cache=cache,
        ) as service:
            service.submit(_ansatz(base), target=target).result()
            service.submit(_ansatz(partial), target=target).result()
            stats = cache.stats()
            assert stats["template_learned"] == 0
            assert stats["template_unbindable"] == 0
            assert stats["template_deferred"] == 1
            served = service.submit(_ansatz(probe), target=target).result()
            # a fully-varied pair (base vs. all-different) still learns
            service.submit(
                _ansatz(_random_params(31)), target=target
            ).result()
            assert cache.stats()["template_learned"] == 1
        cold = _compile_once(_ansatz(probe), target)
        _assert_gate_exact(served.circuit, cold.circuit)

    def test_different_structure_never_templates(self, target):
        """Depth-2 and depth-3 ansaetze share no template."""
        cache = ResultCache()
        with CompileService(
            mode="serial",
            pipeline="preset",
            optimization_level=1,
            result_cache=cache,
        ) as service:
            service.submit(_ansatz(_random_params(0)), target=target).result()
            deeper = ry_ansatz(
                4, depth=3, parameters=_random_params(1)[:12].reshape(3, 4)[[0, 1, 2, 2]]
            )
            service.submit(deeper, target=target).result()
        assert cache.stats()["template_hits"] == 0


class TestEviction:
    def test_lru_bound_holds(self, target):
        cache = ResultCache(max_entries=2)
        tp = target.to_payload()
        for seed in range(4):
            payload = circuit_to_payload(_ansatz(_random_params(seed)))
            cache.store(payload, tp, OPTIONS_KEY, (f"r{seed}", {}, {}, 0.0, {}))
        stats = cache.stats()
        assert stats["entries"] <= 2
        assert stats["evictions_lru"] >= 2

    def test_ttl_expires_entries(self, target):
        cache = ResultCache(ttl=0.02)
        circuit = _ansatz(_random_params(0))
        job = _job(circuit, target)
        cache.store(*job, ("r", {}, {}, 0.0, {}))
        assert cache.lookup(*job) is not None
        time.sleep(0.05)
        assert cache.lookup(*job) is None
        assert cache.stats()["evictions_ttl"] >= 1


class TestSnapshots:
    def test_roundtrip_preserves_entries_and_templates(self, tmp_path, target):
        cache = ResultCache()
        with CompileService(
            mode="serial",
            pipeline="preset",
            optimization_level=1,
            result_cache=cache,
        ) as service:
            for seed in range(3):
                service.submit(_ansatz(_random_params(seed)), target=target).result()
        path = tmp_path / "results.snap"
        cache.save(path)

        reborn = ResultCache()
        reborn.load_snapshot(path)
        stats = reborn.stats()
        assert stats["entries"] == cache.stats()["entries"]
        assert stats["templates_ready"] == 1
        # the reloaded template still serves parameter-varied circuits
        with CompileService(
            mode="serial",
            pipeline="preset",
            optimization_level=1,
            result_cache=reborn,
        ) as service:
            service.submit(_ansatz(_random_params(99)), target=target).result()
        assert reborn.stats()["template_hits"] == 1

    def test_foreign_version_snapshot_is_skipped_not_fatal(self, tmp_path):
        cache = ResultCache()
        snapshot = cache.export_snapshot()
        snapshot["version"] = 999
        fresh = ResultCache()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fresh.import_snapshot(snapshot)
        assert fresh.snapshot_skipped is not None
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert len(fresh) == 0

    def test_missing_file_is_silent(self, tmp_path):
        """First boot: no snapshot file yet is expected, not warn-worthy."""
        cache = ResultCache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load_snapshot(tmp_path / "nope.snap") == 0
        assert cache.snapshot_skipped is None

    def test_corrupt_file_warns(self, tmp_path):
        path = tmp_path / "corrupt.snap"
        path.write_bytes(b"this is not a pickle")
        cache = ResultCache()
        with pytest.warns(RuntimeWarning, match="could not read"):
            assert cache.load_snapshot(path) == 0
        assert cache.snapshot_skipped is not None

    def test_foreign_library_stamp_warns_with_both_fingerprints(
        self, tmp_path, target
    ):
        import pickle

        from repro.transpiler.result_cache import library_fingerprint

        cache = ResultCache()
        with CompileService(
            mode="serial", pipeline="level1", result_cache=cache
        ) as service:
            service.submit(_ansatz(_random_params(0)), target=target).result()
        path = tmp_path / "results.snap"
        cache.save(path)
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
        assert snapshot["library"] == library_fingerprint()
        snapshot["library"] = "repro-9.9.9/snapshot-2"
        with open(path, "wb") as handle:
            pickle.dump(snapshot, handle)
        fresh = ResultCache()
        with pytest.warns(RuntimeWarning) as caught:
            assert fresh.load_snapshot(path) == 0
        message = str(caught[0].message)
        assert "repro-9.9.9/snapshot-2" in message
        assert library_fingerprint() in message
        assert "repro-9.9.9" in fresh.snapshot_skipped
        assert len(fresh) == 0

    def test_analysis_cache_snapshot_at_path_boots_service_cold(
        self, tmp_path, target
    ):
        """A file written to ``snapshot_path`` by the analysis-cache
        persistence of earlier releases (format 1: matrix, adjacency and
        wire-index tables) is rejected loudly, and the service still
        serves."""
        import pickle

        import repro

        path = tmp_path / "service.snap"
        old = {
            "version": 1,
            "library": f"repro-{repro.__version__}/snapshot-1",
            "matrices": {("u1", 1, (0.5,)): np.eye(2, dtype=complex)},
            "adjacency": {},
            "wire_indices": {},
        }
        with open(path, "wb") as handle:
            pickle.dump(old, handle)
        with pytest.warns(RuntimeWarning, match="format version 1"):
            service = CompileService(
                mode="serial", pipeline="level1", snapshot_path=path
            )
        try:
            assert service.stats()["result_entries_loaded"] == 0
            assert service.result_cache.snapshot_skipped is not None
            circuit = _ansatz(_random_params(3))
            served = service.submit(circuit, target=target).result()
            with CompileService(
                mode="serial", pipeline="level1", result_cache=False
            ) as reference:
                fresh = reference.submit(circuit, target=target).result()
            assert circuit_to_payload(served.circuit) == circuit_to_payload(
                fresh.circuit
            )
        finally:
            service.shutdown(save=False)

    def test_save_stamps_library_fingerprint_and_format_version(
        self, tmp_path, target
    ):
        import pickle

        from repro.transpiler.result_cache import (
            RESULT_SNAPSHOT_VERSION,
            library_fingerprint,
        )

        cache = ResultCache()
        cache.store(*_job(_ansatz(_random_params(5)), target), ("stand-in", {}, {}, 0.0, {}))
        path = tmp_path / "results.snap"
        cache.save(path)
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
        assert snapshot["version"] == RESULT_SNAPSHOT_VERSION == 2
        assert snapshot["library"] == library_fingerprint()
        assert library_fingerprint().endswith(f"/snapshot-{RESULT_SNAPSHOT_VERSION}")
        assert len(snapshot["entries"]) == 1

    def test_garbage_snapshot_is_nonfatal_noop(self):
        cache = ResultCache()
        with pytest.warns(RuntimeWarning, match="not a result snapshot mapping"):
            assert cache.import_snapshot("not a snapshot") == 0
        with pytest.warns(RuntimeWarning, match="format version None"):
            assert cache.import_snapshot({}) == 0
        assert cache._stats["snapshot_rejected"] == 2
        assert len(cache) == 0

    def test_pickled_non_mapping_file_warns(self, tmp_path):
        import pickle

        path = tmp_path / "list.snap"
        with open(path, "wb") as handle:
            pickle.dump(["not", "a", "snapshot"], handle)
        cache = ResultCache()
        with pytest.warns(RuntimeWarning, match="got list"):
            assert cache.load_snapshot(path) == 0
        assert "list" in cache.snapshot_skipped

    def test_version_1_result_snapshot_is_rejected(self, target):
        """Result snapshots of the previous format (written beside an
        analysis-cache snapshot) are not adopted."""
        cache = ResultCache()
        cache.store(*_job(_ansatz(_random_params(6)), target), ("stand-in", {}, {}, 0.0, {}))
        snapshot = cache.export_snapshot()
        snapshot["version"] = 1
        fresh = ResultCache()
        with pytest.warns(RuntimeWarning, match="format version 1"):
            assert fresh.import_snapshot(snapshot) == 0
        assert len(fresh) == 0

    def test_existing_entries_win_on_load(self, target):
        job = _job(_ansatz(_random_params(7)), target)
        source = ResultCache()
        source.store(*job, (("from-snapshot", "c"), [], [], 0.0, {}))
        local = ResultCache()
        local.store(*job, (("local", "c"), [], [], 0.0, {}))
        assert local.import_snapshot(source.export_snapshot()) == 0
        served, kind = local.lookup(*job)
        assert kind == "hit"
        assert served[0][0] == "local"

    def test_expired_entries_are_dropped_on_load(self, target):
        job = _job(_ansatz(_random_params(8)), target)
        source = ResultCache()
        source.store(*job, ("stand-in", {}, {}, 0.0, {}))
        snapshot = source.export_snapshot()
        snapshot["entries"] = [
            (digest, result, time.time() - 1.0)
            for digest, result, _ in snapshot["entries"]
        ]
        fresh = ResultCache()
        assert fresh.import_snapshot(snapshot) == 0
        assert fresh.lookup(*job) is None


class TestConcurrency:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seeds=st.lists(st.integers(min_value=0, max_value=3), min_size=8, max_size=16),
        threads=st.integers(min_value=2, max_value=6),
    )
    def test_hammered_submit_stays_consistent(self, seeds, threads):
        """Many threads, duplicate + parameter-varied circuits: every
        answer matches a cold compile, counters add up, bounds hold.

        Each distinct circuit is warmed once before the hammer -- without
        that, a first wave of threads can all miss before the first store
        lands (compilation is slow, the race window real), which makes
        exact hit counts non-deterministic."""
        target = Target.preset("linear:4")
        cache = ResultCache(max_entries=64)
        circuits = {seed: _ansatz(_random_params(seed)) for seed in set(seeds)}
        with CompileService(
            mode="serial",
            pipeline="preset",
            optimization_level=1,
            result_cache=cache,
        ) as service:
            for circuit in circuits.values():
                service.submit(circuit, target=target).result()

            def one(seed):
                return service.submit(circuits[seed], target=target).result()

            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one, seeds))

        cold = {
            seed: _compile_once(circuit, target)
            for seed, circuit in circuits.items()
        }
        for seed, result in zip(seeds, results):
            _assert_gate_exact(result.circuit, cold[seed].circuit)

        stats = cache.stats()
        assert stats["entries"] <= 64
        # with every distinct circuit warmed first, every hammered
        # submission is served from the cache
        assert stats["hits"] + stats["template_hits"] >= len(seeds)

    def test_concurrent_stores_and_lookups_no_corruption(self, target):
        cache = ResultCache(max_entries=8)
        tp = target.to_payload()
        payloads = [
            circuit_to_payload(_ansatz(_random_params(seed))) for seed in range(16)
        ]
        stop = threading.Event()
        errors = []

        def stormer(offset):
            try:
                i = offset
                while not stop.is_set():
                    payload = payloads[i % len(payloads)]
                    cache.store(payload, tp, OPTIONS_KEY, (f"r{i}", {}, {}, 0.0, {}))
                    cache.lookup(payload, tp, OPTIONS_KEY)
                    i += 1
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=stormer, args=(k,)) for k in range(4)]
        for worker in workers:
            worker.start()
        time.sleep(0.3)
        stop.set()
        for worker in workers:
            worker.join(timeout=5.0)
        assert not errors
        assert cache.stats()["entries"] <= 8
