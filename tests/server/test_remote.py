"""Loopback end-to-end tests: server and remote client.

The acceptance checks of the networked subsystem: results through
``RemoteCompileService`` (and through ``transpile(executor="remote")``)
must be **bit-identical** to ``executor="serial"``; job errors must come
back per job; ``/healthz`` and ``/metrics`` must answer; and the empty
batch must be an empty answer on every path.

Servers here run ``mode="serial"`` (deterministic, no pool start-up per
test) except the one process-mode round-trip; the protocol and HTTP
layers under test are identical in every mode.
"""

import re
import threading
import time

import numpy as np
import pytest

from repro.algorithms import quantum_phase_estimation, ry_ansatz
from repro.circuit import QuantumCircuit
from repro.server import CompileServer, ProtocolError, RemoteCompileService
from repro.transpiler import (
    CompileService,
    Target,
    TranspilerError,
    aggregate_batch,
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


def _batch():
    return [quantum_phase_estimation(3), ry_ansatz(4, depth=2, seed=11)] * 2


@pytest.fixture(scope="module")
def server():
    with CompileServer(mode="serial", pipeline="rpo") as srv:
        yield srv.start()


@pytest.fixture(scope="module")
def remote(server):
    with RemoteCompileService(server.endpoint) as client:
        yield client


class TestRemoteParity:
    def test_map_matches_serial_executor(self, remote):
        batch = _batch()
        seeds = list(range(len(batch)))
        reference = transpile(
            [c.copy() for c in batch],
            target="melbourne",
            pipeline="rpo",
            seed=seeds,
            executor="serial",
        )
        results = remote.map(
            [c.copy() for c in batch],
            targets="melbourne",
            seeds=seeds,
            pipeline="rpo",
        )
        for expected, result in zip(reference, results):
            _assert_identical(expected, result.circuit)
            assert result.metrics and result.loops
            assert result.properties["target"] == Target.preset("melbourne")

    def test_transpile_remote_executor_is_drop_in(self, server):
        batch = _batch()
        seeds = list(range(len(batch)))
        reference = transpile(
            [c.copy() for c in batch],
            target="melbourne",
            pipeline="rpo",
            seed=seeds,
            executor="serial",
        )
        results = transpile(
            [c.copy() for c in batch],
            target="melbourne",
            pipeline="rpo",
            seed=seeds,
            executor="remote",
            endpoint=server.endpoint,
        )
        for expected, got in zip(reference, results):
            _assert_identical(expected, got)

    def test_transpile_routes_through_remote_service_object(self, server):
        circuit = quantum_phase_estimation(3)
        reference = transpile(
            circuit.copy(), target="melbourne", pipeline="rpo", seed=0
        )
        with RemoteCompileService(server.endpoint) as client:
            via_service = transpile(
                circuit.copy(),
                target="melbourne",
                pipeline="rpo",
                seed=0,
                service=client,
            )
        _assert_identical(reference, via_service)

    def test_remote_batch_aggregates_by_target(self, server):
        batch = _batch()
        results = transpile(
            [c.copy() for c in batch],
            target="melbourne",
            pipeline="rpo",
            seed=list(range(len(batch))),
            executor="remote",
            endpoint=server.endpoint,
            full_result=True,
        )
        report = aggregate_batch(results, executor="remote")
        assert report["executor"] == "remote"
        assert report["num_circuits"] == len(batch)
        (entry,) = report["by_target"].values()
        assert entry["num_circuits"] == len(batch)
        assert entry["time"]["total"] >= 0.0
        for result in results:
            assert result.properties["target"] == Target.preset("melbourne")

    def test_submit_single_job(self, remote):
        result = remote.submit(
            quantum_phase_estimation(3), target="melbourne", pipeline="rpo", seed=0
        ).result()
        assert result.circuit.count_ops()

    def test_forced_single_job_chunks_match_auto(self, remote):
        """chunk_size=1 (one request per circuit) and auto chunking must
        produce identical circuits -- chunking is transport, not policy."""
        batch = _batch()
        seeds = list(range(len(batch)))
        fine = remote.map(
            [c.copy() for c in batch],
            targets="melbourne",
            seeds=seeds,
            pipeline="rpo",
            chunk_size=1,
        )
        coarse = remote.map(
            [c.copy() for c in batch],
            targets="melbourne",
            seeds=seeds,
            pipeline="rpo",
            chunk_size=len(batch),
        )
        for a, b in zip(fine, coarse):
            _assert_identical(a.circuit, b.circuit)

    def test_process_mode_server_round_trip(self):
        batch = [quantum_phase_estimation(3) for _ in range(3)]
        reference = transpile(
            [c.copy() for c in batch],
            target="melbourne",
            pipeline="rpo",
            seed=[0, 1, 2],
            executor="serial",
        )
        with CompileServer(
            mode="process", pipeline="rpo", max_workers=2
        ) as srv:
            srv.start()
            with RemoteCompileService(srv.endpoint) as client:
                results = client.map(
                    [c.copy() for c in batch],
                    targets="melbourne",
                    seeds=[0, 1, 2],
                    pipeline="rpo",
                )
        for expected, result in zip(reference, results):
            _assert_identical(expected, result.circuit)


class TestRemoteFailureModes:
    def test_bad_pipeline_raises_per_job(self, remote):
        with pytest.raises(TranspilerError, match="warpdrive"):
            remote.map(
                [QuantumCircuit(2)], targets="linear:2", pipeline="warpdrive"
            )

    def test_bad_job_does_not_poison_chunk_mates(self, remote):
        good = quantum_phase_estimation(3)
        futures = [
            remote.submit(good.copy(), target="melbourne", pipeline="rpo", seed=0),
            remote.submit(good.copy(), target="melbourne", pipeline="warpdrive"),
        ]
        assert futures[0].result().circuit.count_ops()
        with pytest.raises(TranspilerError, match="warpdrive"):
            futures[1].result()

    def test_unreachable_endpoint(self):
        with RemoteCompileService("http://127.0.0.1:9", timeout=2.0) as client:
            with pytest.raises(TranspilerError, match="cannot reach"):
                client.map([QuantumCircuit(1)])

    @pytest.mark.parametrize(
        "name, value",
        [
            ("chunk_size", "bogus"),
            ("chunk_size", 0),
            ("chunk_size", -3),
            ("chunk_size", 2.5),
            ("max_connections", 0),
            ("max_connections", -2),
            ("timeout", 0),
            ("timeout", -1),
        ],
    )
    def test_bad_argument_is_a_typed_error(self, name, value):
        message = re.escape(f"{name} must be") + ".*" + re.escape(repr(value))
        with pytest.raises(TranspilerError, match=message):
            RemoteCompileService("http://127.0.0.1:9", **{name: value})
        if name == "chunk_size":
            with RemoteCompileService("http://127.0.0.1:9") as client:
                with pytest.raises(TranspilerError, match=message):
                    client.map([QuantumCircuit(1)], chunk_size=value)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("chunk_size", "auto"),
            ("chunk_size", 1),
            ("max_connections", 1),
            ("timeout", 2.5),
        ],
    )
    def test_good_argument_is_accepted(self, server, name, value):
        with RemoteCompileService(server.endpoint, **{name: value}) as client:
            (result,) = client.map([QuantumCircuit(1)], targets="linear:2")
        assert result.circuit.num_qubits == 2
        if name == "chunk_size":
            with RemoteCompileService(server.endpoint) as client:
                assert len(client.map([QuantumCircuit(1)] * 2, chunk_size=value)) == 2

    def test_empty_batch_is_empty_answer_without_requests(self, remote):
        before = remote._requests
        assert remote.map([]) == []
        assert remote._requests == before
        assert transpile([], executor="remote", endpoint=remote.endpoint) == []

    def test_closed_client_rejects_work(self, server):
        client = RemoteCompileService(server.endpoint)
        client.close()
        with pytest.raises(TranspilerError, match="closed"):
            client.map([QuantumCircuit(1)])

    def test_remote_executor_without_endpoint(self):
        with pytest.raises(TranspilerError, match="endpoint"):
            transpile([QuantumCircuit(1)], executor="remote")

    def test_endpoint_without_remote_executor(self, server):
        with pytest.raises(TranspilerError, match="remote"):
            transpile(
                [QuantumCircuit(1)], executor="serial", endpoint=server.endpoint
            )

    def test_http_404_surfaces_as_protocol_error(self, remote):
        with pytest.raises(ProtocolError, match="404"):
            remote._post("/no-such-route", b"whatever")


class TestIntrospection:
    def test_healthz(self, remote):
        health = remote.healthz()
        assert health["status"] == "ok"
        assert health["uptime"] >= 0

    def test_metrics_counts_jobs_by_target(self, remote):
        remote.map(
            [quantum_phase_estimation(3)],
            targets="melbourne",
            seeds=[0],
            pipeline="rpo",
        )
        stats = remote.stats()
        assert stats["server"]["jobs"] >= 1
        assert stats["server"]["jobs_by_target"].get("fake_melbourne", 0) >= 1
        assert stats["service"]["completed"] >= 1
        assert stats["client"]["requests"] >= 1

    def test_metrics_cache_section_reports_counters_only(self, remote):
        remote.map(
            [quantum_phase_estimation(3)],
            targets="melbourne",
            seeds=[0],
            pipeline="rpo",
        )
        stats = remote.stats()
        assert set(stats["cache"]) == {"stats"}
        assert stats["cache"]["stats"]["synth_attempts"] > 0
        assert "snapshot_skipped" not in stats["service"]
        assert stats["service"]["autosave_failures"] == 0

    @pytest.mark.parametrize(
        "path", ["/cache/" + "0" * 64, "/nowhere"], ids=["cache", "unknown"]
    )
    def test_unknown_get_path_is_a_404(self, server, path):
        import json
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(server.endpoint + path, timeout=30)
        assert info.value.code == 404
        assert json.loads(info.value.read()) == {"error": f"unknown path {path!r}"}
        info.value.close()


class TestServerLifecycle:
    def test_server_snapshot_autosave_warm_restart(self, tmp_path):
        """The crash-safe loop: a server autosaves its result cache, dies
        without a clean shutdown, and its successor boots warm from the
        autosave and serves the same job from it."""
        import os
        import time

        path = tmp_path / "server.snap"
        with CompileServer(
            mode="serial",
            pipeline="rpo",
            snapshot_path=str(path),
            autosave_interval=0.1,
        ) as srv:
            srv.start()
            with RemoteCompileService(srv.endpoint) as client:
                client.map(
                    [quantum_phase_estimation(3)],
                    targets="melbourne",
                    seeds=[0],
                    pipeline="rpo",
                )
            # a tick may be mid-save while the job's result is stored, and
            # the counter moves only after the file is renamed into place:
            # two more completed ticks guarantee one that began after the
            # store and finished its write
            after_store = srv.service.stats()["autosaves"]
            deadline = time.time() + 10
            while (
                srv.service.stats()["autosaves"] < after_store + 2
                and time.time() < deadline
            ):
                time.sleep(0.05)
            assert os.path.exists(path)  # written by the timer, pre-shutdown
            assert srv.service.stats()["autosaves"] >= 1
            # simulate a crash: no service shutdown, no final save
            srv.service.shutdown = lambda *a, **k: None

        with CompileServer(
            mode="serial", pipeline="rpo", snapshot_path=str(path)
        ) as reborn:
            assert reborn.service.stats()["result_entries_loaded"] > 0
            reborn.start()
            with RemoteCompileService(reborn.endpoint) as client:
                client.map(
                    [quantum_phase_estimation(3)],
                    targets="melbourne",
                    seeds=[0],
                    pipeline="rpo",
                )
            assert reborn.service.stats()["result_cache_hits"] == 1

    def test_shutdown_route_stops_server(self):
        srv = CompileServer(mode="serial", pipeline="rpo")
        srv.start()
        with RemoteCompileService(srv.endpoint) as client:
            ack = client.shutdown_server()
        assert ack["status"] == "shutting down"
        deadline = __import__("time").time() + 10
        while not srv._shutdown and __import__("time").time() < deadline:
            __import__("time").sleep(0.05)
        assert srv._shutdown

    def test_shutdown_before_serve_forever_returns_cleanly(self):
        # the race a SIGTERM right after start-up hits: the stop lands
        # before the serve loop registers the (by then closed) socket
        srv = CompileServer(mode="serial", pipeline="level1")
        srv.shutdown()
        errors = []

        def serve():
            try:
                srv.serve_forever()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert errors == []

    @pytest.mark.parametrize("entry", ["start", "serve_forever"])
    def test_stop_of_a_serving_server_is_prompt(self, entry):
        srv = CompileServer(mode="serial", pipeline="level1")
        if entry == "start":
            srv.start()
        else:
            threading.Thread(target=srv.serve_forever, daemon=True).start()
        with RemoteCompileService(srv.endpoint) as client:
            assert client.healthz()["status"] == "ok"
        began = time.monotonic()
        srv.shutdown()
        assert time.monotonic() - began < 0.2

    def test_owned_service_shuts_down_with_server(self):
        srv = CompileServer(mode="serial", pipeline="level1")
        srv.start()
        srv.shutdown()
        with pytest.raises(TranspilerError, match="shut down"):
            srv.service.submit(QuantumCircuit(1))

    def test_cli_snapshot_flags_and_no_harvest_interval(self, capsys):
        from repro.server.__main__ import build_parser

        args = build_parser().parse_args(
            ["--snapshot-path", "results.snap", "--autosave-interval", "30"]
        )
        assert args.snapshot_path == "results.snap"
        assert args.autosave_interval == 30.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--harvest-interval", "1"])
        assert "--harvest-interval" in capsys.readouterr().err

    def test_cli_rejects_thread_mode(self, capsys):
        from repro.server.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--mode", "thread"])
        err = capsys.readouterr().err
        assert "'thread'" in err and "'process', 'serial'" in err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_cli_rejects_non_positive_max_workers(self, capsys, workers):
        """Regression: ``--max-workers 0`` silently meant cores-1 and -1
        failed only at the first compile; both now stop the CLI before it
        binds a port."""
        from repro.server.__main__ import main

        with pytest.raises(SystemExit) as info:
            main(["--port", "0", "--max-workers", workers])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"max_workers must be None or a positive int, got {workers}" in err

    def test_server_rejects_service_plus_kwargs(self):
        from repro.transpiler import CompileService

        with CompileService(mode="serial") as service:
            with pytest.raises(TranspilerError, match="not both"):
                CompileServer(service, pipeline="rpo")


class TestResultCacheOverWire:
    """Result-cache surfaces over the wire: each result's
    ``properties["result_cache"]`` and the service's ``result_cache``
    section of ``/metrics``."""

    def _fresh_batch(self, n=3):
        rng = np.random.default_rng(23)
        return [
            ry_ansatz(3, depth=2, parameters=rng.uniform(0, 2 * np.pi, (3, 3)))
            for _ in range(n)
        ]

    def test_repeat_batch_reports_hits_per_result_and_in_metrics(self, remote):
        batch = self._fresh_batch()
        seeds = [101] * len(batch)
        first = remote.map(
            [c.copy() for c in batch], targets="melbourne", seeds=seeds,
            pipeline="rpo",
        )
        second = remote.map(
            [c.copy() for c in batch], targets="melbourne", seeds=seeds,
            pipeline="rpo",
        )
        assert [r.properties["result_cache"] for r in second] == ["hit"] * len(batch)
        stats = remote.stats()
        assert "result_cache" not in stats  # reported once, under "service"
        cache_stats = stats["service"]["result_cache"]
        assert cache_stats is not None
        assert cache_stats["hits"] >= len(batch)
        for a, b in zip(first, second):
            _assert_identical(a.circuit, b.circuit)

    def test_reply_reports_cache_disposition_only_in_the_blob(self, remote):
        """A ``POST /compile`` reply carries no cache-hit header and no
        per-entry ``"cached"`` tag; the blob's properties say it all."""
        import urllib.request

        from repro.server.protocol import (
            decode_frame,
            encode_frame,
            encode_jobs,
            unpack_blob,
        )

        (circuit,) = self._fresh_batch(1)
        job, _ = remote._job(circuit, "melbourne", {"pipeline": "rpo", "seed": 202})
        frame = encode_frame(encode_jobs([job]))
        replies = []
        for _ in range(2):
            request = urllib.request.Request(
                remote.endpoint + "/compile", data=frame, method="POST"
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert not any(
                    name.lower().startswith("x-repro") for name in response.headers
                )
                replies.append(decode_frame(response.read()))
        dispositions = []
        for reply in replies:
            (entry,) = reply["results"]
            assert sorted(entry) == ["blob", "ok"]
            dispositions.append(unpack_blob(entry["blob"])[4].get("result_cache"))
        assert dispositions == [None, "hit"]
        assert "jobs_cached" not in remote.stats()["server"]

    def test_unset_client_settings_take_server_defaults(self, server):
        """The client ships settings it was not given as ``None``; the
        server's configured pipeline (``rpo`` here) fills them in."""
        circuit = quantum_phase_estimation(3)
        reference = transpile(
            circuit.copy(), target="melbourne", pipeline="rpo", seed=5
        )
        with RemoteCompileService(server.endpoint) as client:
            results = client.map([circuit.copy()], targets="melbourne", seeds=5)
        _assert_identical(reference, results[0].circuit)

    def test_client_options_keyword_is_gone(self):
        with pytest.raises(TypeError, match="options"):
            RemoteCompileService("http://127.0.0.1:1", options=None)

    def test_endpoint_alone_implies_remote_executor(self, server):
        circuit = quantum_phase_estimation(3)
        reference = transpile(
            circuit.copy(), target="melbourne", pipeline="rpo", seed=0
        )
        via_endpoint = transpile(
            circuit.copy(),
            target="melbourne",
            pipeline="rpo",
            seed=0,
            endpoint=server.endpoint,  # no executor= needed
        )
        _assert_identical(reference, via_endpoint)


@pytest.fixture(scope="module")
def level1_server():
    with CompileServer(mode="serial", pipeline="level1") as srv:
        yield srv.start()


#: Every compile front, built with an optional default target.
FRONTS = {
    "service": lambda server, default: CompileService(
        mode="serial", pipeline="level1", target=default
    ),
    "remote": lambda server, default: RemoteCompileService(
        server.endpoint, target=default
    ),
}


class TestTargetResolution:
    """One target rule and one batch normalizer on every front."""

    @pytest.mark.parametrize("front", sorted(FRONTS))
    @pytest.mark.parametrize(
        "default, targets, expected",
        [
            (None, Target.preset("grid:2x3"), Target.preset("grid:2x3")),
            (None, "ring:5", Target.preset("ring:5")),
            ("linear:6", None, Target.preset("linear:6")),
            (None, None, Target.full(3)),
        ],
        ids=["explicit", "preset-name", "front-default", "all-to-all"],
    )
    def test_resolved_target(self, level1_server, front, default, targets, expected):
        circuit = ry_ansatz(3, depth=1, seed=0)
        with FRONTS[front](level1_server, default) as service:
            (result,) = service.map([circuit], targets=targets, seeds=[0])
        assert result.properties["target"] == expected

    @pytest.mark.parametrize("front", sorted(FRONTS) + ["transpile"])
    @pytest.mark.parametrize("keyword", ["targets", "seeds"])
    def test_wrong_length_list_fails_alike(self, level1_server, front, keyword):
        batch = [ry_ansatz(3, depth=1, seed=s) for s in range(2)]
        wrong = ["linear:5"] if keyword == "targets" else [0]
        with pytest.raises(TranspilerError) as info:
            if front == "transpile":
                transpile(batch, **{keyword[:-1]: wrong})
            else:
                with FRONTS[front](level1_server, None) as service:
                    service.map(batch, **{keyword: wrong})
        assert str(info.value) == f"got 1 {keyword} for 2 circuits"

    @pytest.mark.parametrize(
        "targets, expected",
        [
            (Target.preset("grid:2x3"), Target.preset("grid:2x3")),
            ("ring:5", Target.preset("ring:5")),
            (None, Target.full(3)),
        ],
        ids=["explicit", "preset-name", "all-to-all"],
    )
    def test_transpile_endpoint_resolves_alike(self, level1_server, targets, expected):
        circuit = ry_ansatz(3, depth=1, seed=0)
        (result,) = transpile(
            [circuit],
            target=targets,
            seed=[0],
            executor="remote",
            endpoint=level1_server.endpoint,
            full_result=True,
        )
        assert result.properties["target"] == expected
