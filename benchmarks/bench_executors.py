#!/usr/bin/env python3
"""Executor and service shoot-out on a batch of Table II circuits.

Two measurements, each an acceptance check for one layer of the
execution stack:

1. **Executor comparison** -- transpiles one batch (32+ circuits by
   default) under each executor backend and reports wall-clock,
   throughput and cache statistics.  The thread pool is GIL-bound on the
   pure-Python RPO passes, so on a multi-core host the process pool
   should win; ``--assert-speedup`` turns that into a hard CI gate.
2. **Service vs per-call pool** -- replays the batch for several rounds
   through (a) a fresh ``transpile(executor="process")`` pool per round
   and (b) one persistent :class:`~repro.transpiler.CompileService`.  The
   service pays pool start-up once, so it must win on total wall-clock;
   ``--assert-service-speedup`` gates CI on it.

All executors must produce gate-identical circuits; the script always
verifies that, whatever else it measures.  A heterogeneous two-target
batch (melbourne + almaden) exercises per-target routing and lands in the
metrics JSON under ``by_target``.

Usage::

    python benchmarks/bench_executors.py [--quick] [--assert-speedup]
                                         [--assert-service-speedup]
                                         [--rounds N]
                                         [--metrics-json PATH]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.algorithms import (
    grover_circuit,
    quantum_phase_estimation,
    quantum_volume_circuit,
    ry_ansatz,
)
from repro.backends import FakeAlmaden, FakeMelbourne
from repro.transpiler import (
    AnalysisCache,
    CompileService,
    Target,
    aggregate_batch,
    transpile,
)

from common import print_table


def build_batch(quick: bool):
    """At least 32 Table II circuits (8 in ``--quick`` mode), with seeds."""
    sizes = [4, 5] if quick else [4, 5, 6, 7]
    repeats = 1 if quick else 2
    circuits = []
    for num_qubits in sizes:
        for _ in range(repeats):
            circuits.append(quantum_phase_estimation(num_qubits - 1))
            circuits.append(ry_ansatz(num_qubits, depth=3, seed=11))
            circuits.append(quantum_volume_circuit(num_qubits, seed=5))
            circuits.append(grover_circuit(num_qubits, design="noancilla"))
    seeds = list(range(len(circuits)))
    return circuits, seeds


def assert_identical(reference, candidates, label):
    for index, (expected, got) in enumerate(zip(reference, candidates)):
        same = (
            len(expected.data) == len(got.data)
            and abs(expected.global_phase - got.global_phase) < 1e-9
            and all(
                a.operation.name == b.operation.name
                and a.qubits == b.qubits
                and a.clbits == b.clbits
                for a, b in zip(expected.data, got.data)
            )
        )
        if not same:
            raise SystemExit(
                f"executor parity violated: circuit {index} differs under "
                f"{label!r}"
            )


def measure_service_vs_per_call(
    circuits, seeds, target: Target, pipeline: str, rounds: int
):
    """Total wall-clock of ``rounds`` batches: per-call pools vs one service.

    Per-call pays ``ProcessPoolExecutor`` start-up every round, and its
    fresh workers start with empty analysis caches; the service pays
    start-up once, its workers' caches stay warm, and its result cache
    serves the repeated rounds.
    """

    def per_call() -> float:
        cache = AnalysisCache()
        start = time.perf_counter()
        for round_index in range(rounds):
            transpile(
                [circuit.copy() for circuit in circuits],
                target=target,
                pipeline=pipeline,
                seed=seeds,
                executor="process",
                analysis_cache=cache,
            )
        return time.perf_counter() - start

    def service() -> float:
        start = time.perf_counter()
        with CompileService(pipeline=pipeline, target=target) as svc:
            for round_index in range(rounds):
                svc.map([circuit.copy() for circuit in circuits], seeds=seeds)
        return time.perf_counter() - start

    return {"process_per_call": per_call(), "service": service()}


def measure_heterogeneous(circuits, seeds, pipeline):
    """One batch against two different targets; per-target metrics report."""
    targets = [
        Target.from_backend(FakeMelbourne())
        if index % 2 == 0
        else Target.from_backend(FakeAlmaden())
        for index in range(len(circuits))
    ]
    cache = AnalysisCache()
    start = time.perf_counter()
    results = transpile(
        [circuit.copy() for circuit in circuits],
        target=targets,
        pipeline=pipeline,
        seed=seeds,
        executor="process",
        analysis_cache=cache,
        full_result=True,
    )
    wall = time.perf_counter() - start
    return aggregate_batch(results, cache=cache, executor="process", wall_time=wall)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="8-circuit batch")
    parser.add_argument(
        "--pipeline", default="rpo", help="pipeline to benchmark (default: rpo)"
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=4,
        help="batch replays in the service-vs-per-call comparison (default 4); "
        "more rounds amortize the persistent pool over more per-call "
        "spin-ups, widening the measured gap",
    )
    parser.add_argument(
        "--assert-speedup",
        action="store_true",
        help="fail unless process beats thread wall-clock (multi-core hosts)",
    )
    parser.add_argument(
        "--assert-service-speedup",
        action="store_true",
        help="fail unless the persistent service beats per-call process "
        "pools over --rounds batches",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write per-executor metrics reports to PATH as JSON",
    )
    args = parser.parse_args(argv)

    backend = FakeMelbourne()
    target = Target.from_backend(backend)
    circuits, seeds = build_batch(args.quick)
    print(
        f"batch: {len(circuits)} circuits, pipeline={args.pipeline!r}, "
        f"host cores: {os.cpu_count()}"
    )

    def measure(executor: str):
        cache = AnalysisCache()
        start = time.perf_counter()
        results = transpile(
            [circuit.copy() for circuit in circuits],
            target=target,
            pipeline=args.pipeline,
            seed=seeds,
            executor=executor,
            analysis_cache=cache,
            full_result=True,
        )
        wall = time.perf_counter() - start
        return wall, results, cache

    wall_times: dict[str, float] = {}
    outputs: dict[str, list] = {}
    reports: dict[str, dict] = {}
    rows = []
    for executor in ("serial", "thread", "process"):
        wall, results, cache = measure(executor)
        wall_times[executor] = wall
        outputs[executor] = [result.circuit for result in results]
        reports[executor] = aggregate_batch(
            results, cache=cache, executor=executor, wall_time=wall
        )
        rows.append(
            [
                executor,
                f"{wall:.2f}s",
                f"{len(circuits) / wall:.1f}/s",
                f"{sum(r.time for r in results):.2f}s",
                f"{reports[executor]['cache']['matrix_hit_rate']:.1%}",
            ]
        )

    print_table(
        "Executor comparison",
        ["executor", "wall", "throughput", "cpu-time", "matrix hit rate"],
        rows,
    )

    for executor in ("thread", "process"):
        assert_identical(outputs["serial"], outputs[executor], executor)
    print("parity: all executors produced gate-identical circuits")

    # -- persistent service vs per-call pools -------------------------------
    service_walls = measure_service_vs_per_call(
        circuits, seeds, target, args.pipeline, args.rounds
    )
    if args.assert_service_speedup and (
        service_walls["service"] >= service_walls["process_per_call"]
    ):
        # shared CI runners are noisy: best-of-two before failing the gate
        print("service did not beat per-call pools on the first run; re-measuring")
        rerun = measure_service_vs_per_call(
            circuits, seeds, target, args.pipeline, args.rounds
        )
        service_walls = {
            key: min(service_walls[key], rerun[key]) for key in service_walls
        }
    wall_times.update(service_walls)
    print_table(
        f"Service vs per-call process pools ({args.rounds} rounds)",
        ["strategy", "total wall", "throughput"],
        [
            [
                name,
                f"{wall:.2f}s",
                f"{args.rounds * len(circuits) / wall:.1f}/s",
            ]
            for name, wall in service_walls.items()
        ],
    )

    # -- heterogeneous two-target batch ------------------------------------
    hetero = measure_heterogeneous(circuits, seeds, args.pipeline)
    print_table(
        "Heterogeneous batch (two targets, one call)",
        ["target", "circuits", "median cx", "median time"],
        [
            [
                label,
                entry["num_circuits"],
                int(entry["cx"]["median"]),
                f"{entry['time']['median'] * 1000:.1f}ms",
            ]
            for label, entry in sorted(hetero["by_target"].items())
        ],
    )

    if args.metrics_json:
        from repro.transpiler import write_metrics_json

        write_metrics_json(
            args.metrics_json,
            {
                "suite": "executors",
                "num_circuits": len(circuits),
                "pipeline": args.pipeline,
                "cpu_count": os.cpu_count(),
                "rounds": args.rounds,
                "wall_times": wall_times,
                "heterogeneous": hetero,
                "reports": reports,
            },
        )
        print(f"metrics written to {args.metrics_json}")

    if args.assert_service_speedup:
        if wall_times["service"] >= wall_times["process_per_call"]:
            raise SystemExit(
                f"persistent service ({wall_times['service']:.2f}s) did not "
                f"beat per-call process pools "
                f"({wall_times['process_per_call']:.2f}s) over "
                f"{args.rounds} rounds"
            )
        speedup = wall_times["process_per_call"] / wall_times["service"]
        print(f"service beats per-call pools: {speedup:.2f}x")

    if args.assert_speedup:
        if (os.cpu_count() or 1) < 2:
            print("single-core host: skipping the speedup assertion")
            return
        # timings on shared CI runners are noisy: before failing the gate,
        # re-measure both contenders once (best-of-two per executor)
        if wall_times["process"] >= wall_times["thread"]:
            print("process did not beat thread on the first run; re-measuring")
            for executor in ("thread", "process"):
                wall, _, _ = measure(executor)
                wall_times[executor] = min(wall_times[executor], wall)
        if wall_times["process"] >= wall_times["thread"]:
            raise SystemExit(
                f"process executor ({wall_times['process']:.2f}s) did not beat "
                f"thread executor ({wall_times['thread']:.2f}s)"
            )
        speedup = wall_times["thread"] / wall_times["process"]
        print(f"process beats thread: {speedup:.2f}x")


if __name__ == "__main__":
    main()
