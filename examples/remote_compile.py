#!/usr/bin/env python3
"""Remote compilation walkthrough: a client's view of the compile farm.

Compiles a small batch of circuits through a networked
:class:`~repro.server.CompileServer` -- either one you point it at
(``--endpoint``, e.g. one started with ``python -m repro.server``) or,
with no argument, one this script boots itself on a loopback port via
the real ``python -m repro.server`` CLI.

What it shows:

* ``RemoteCompileService`` as a drop-in service: the same ``map()`` call
  (and the same ``transpile(..., service=...)`` front-end) that drives a
  local :class:`~repro.transpiler.CompileService`;
* chunked job envelopes: the whole batch travels in a handful of HTTP
  requests, not one per circuit;
* ``/healthz`` + ``/metrics`` scraping, the operational surface;
* ``--assert-parity``: remote results must be bit-identical to
  ``executor="serial"`` run locally (the CI server-smoke job runs with
  this flag against a real ``python -m repro.server`` process).

Usage::

    python examples/remote_compile.py                      # self-hosted demo
    python examples/remote_compile.py --endpoint http://host:8642
"""

import argparse
import os
import socket
import subprocess
import sys
import time
import urllib.request

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.algorithms import quantum_phase_estimation, ry_ansatz
from repro.server import RemoteCompileService
from repro.transpiler import aggregate_batch, transpile


def build_batch():
    circuits = []
    for width in (3, 4):
        circuits.append(quantum_phase_estimation(width - 1))
        circuits.append(ry_ansatz(width, depth=2, seed=width))
    circuits = circuits * 6  # two dozen jobs: enough for chunking to matter
    return circuits, list(range(len(circuits)))


def boot_local_server() -> tuple[subprocess.Popen, str]:
    """Start ``python -m repro.server`` on a free loopback port."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server",
            "--port",
            str(port),
            "--mode",
            "serial",
            "--pipeline",
            "rpo",
        ],
        env=env,
    )
    endpoint = f"http://127.0.0.1:{port}"
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            with urllib.request.urlopen(endpoint + "/healthz", timeout=1):
                return process, endpoint
        except OSError:
            if process.poll() is not None:
                raise SystemExit("server process died during start-up")
            time.sleep(0.2)
    process.kill()
    raise SystemExit("server did not come up within 30s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--endpoint",
        default=None,
        help="compile-server URL "
        "(default: boot a loopback server via python -m repro.server)",
    )
    parser.add_argument(
        "--assert-parity",
        action="store_true",
        help="fail unless remote results are identical to local serial ones",
    )
    args = parser.parse_args(argv)

    circuits, seeds = build_batch()
    owned_process = None
    endpoint = args.endpoint
    if endpoint is None:
        owned_process, endpoint = boot_local_server()
        print(f"booted python -m repro.server on {endpoint}")

    try:
        with RemoteCompileService(endpoint) as client:
            health = client.healthz()
            print(f"healthz: {health['status']} (uptime {health['uptime']:.1f}s)")

            start = time.perf_counter()
            results = client.map(
                [c.copy() for c in circuits],
                targets="melbourne",
                seeds=seeds,
                pipeline="rpo",
            )
            wall = time.perf_counter() - start
            print(
                f"compiled {len(results)} circuits remotely in {wall:.2f}s "
                f"({len(results) / wall:.1f}/s)"
            )
            for result in results[:3]:
                ops = result.circuit.count_ops()
                print(
                    f"  {result.circuit.name}: {result.circuit.size()} gates "
                    f"(cx={ops.get('cx', 0)})"
                )

            report = aggregate_batch(results, executor="remote")
            for label, entry in report["by_target"].items():
                print(f"by_target[{label}]: {entry['num_circuits']} circuits")

            # the drop-in switch: same batch through the transpile()
            # front-end, remote executor
            via_frontend = transpile(
                [c.copy() for c in circuits],
                target="melbourne",
                pipeline="rpo",
                seed=seeds,
                executor="remote",
                endpoint=endpoint,
            )
            print(f"transpile(executor='remote'): {len(via_frontend)} circuits")

            server_side = client.stats()["server"]
            print(
                f"/metrics: {server_side['requests']} requests carried "
                f"{server_side['jobs']} jobs "
                f"(chunked envelopes amortized "
                f"{server_side['jobs'] - server_side['requests']} dispatches)"
            )

            if args.assert_parity:
                reference = transpile(
                    [c.copy() for c in circuits],
                    target="melbourne",
                    pipeline="rpo",
                    seed=seeds,
                    executor="serial",
                )
                for index, (expected, result) in enumerate(zip(reference, results)):
                    got = result.circuit
                    same = len(expected.data) == len(got.data) and all(
                        a.operation.name == b.operation.name
                        and a.qubits == b.qubits
                        for a, b in zip(expected.data, got.data)
                    )
                    if not same:
                        raise SystemExit(
                            f"parity violated: circuit {index} differs remotely"
                        )
                print("parity: remote results identical to local serial transpile")
    finally:
        if owned_process is not None:
            try:
                RemoteCompileService(endpoint).shutdown_server()
                owned_process.wait(timeout=15)
                print(f"server exited cleanly ({owned_process.returncode})")
            except Exception:
                owned_process.kill()


if __name__ == "__main__":
    main()
