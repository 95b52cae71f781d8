#!/usr/bin/env python3
"""Serial ``transpile()`` against a persistent ``CompileService`` on a batch
of Table II circuits.

``transpile()`` compiles in-process, one circuit after another; cores and
a warm result cache come from a persistent
:class:`~repro.transpiler.CompileService`.  Two measurements, each an
acceptance check for that story:

1. **Parity** -- the batch compiled by serial ``transpile()`` and by a
   persistent process-mode service must be gate-identical.  The script
   always checks this, whatever else it measures.
2. **Service vs serial over rounds** -- replays the batch for
   ``--rounds`` rounds through (a) serial ``transpile()`` and (b) one
   persistent service.  The service pays pool start-up once, its
   workers' caches stay warm and its result cache serves the repeated
   rounds, so it must win on total wall-clock.  The two sides are timed
   :data:`REPEATS` times in alternation and compared as medians;
   ``--assert-service-speedup`` gates CI on it.

A heterogeneous two-target batch (melbourne + almaden) exercises
per-target routing and lands in the metrics JSON under ``by_target``.

Usage::

    python benchmarks/bench_executors.py [--quick] [--assert-service-speedup]
                                         [--rounds N] [--metrics-json PATH]
"""

from __future__ import annotations

import argparse
import os
import statistics
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

#: Alternating timings of each side in the service-vs-serial comparison;
#: the gate compares medians, so one noisy run cannot flip it.
REPEATS = 5


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
                f"parity violated: circuit {index} differs under {label!r}"
            )


def measure_parity(circuits, seeds, target: Target, pipeline: str):
    """One batch through serial ``transpile()`` and through a fresh
    persistent service; returns per-path wall times and metrics reports."""
    walls, outputs, reports = {}, {}, {}
    for label in ("serial", "service"):
        cache = AnalysisCache()
        start = time.perf_counter()
        if label == "serial":
            results = transpile(
                [circuit.copy() for circuit in circuits],
                target=target,
                pipeline=pipeline,
                seed=seeds,
                analysis_cache=cache,
                full_result=True,
            )
        else:
            with CompileService(
                pipeline=pipeline, target=target, analysis_cache=cache
            ) as service:
                results = service.map(
                    [circuit.copy() for circuit in circuits], seeds=seeds
                )
        walls[label] = time.perf_counter() - start
        outputs[label] = [result.circuit for result in results]
        reports[label] = aggregate_batch(
            results, cache=cache, executor=label, wall_time=walls[label]
        )
    assert_identical(outputs["serial"], outputs["service"], "service")
    return walls, reports


def measure_service_vs_serial(
    circuits, seeds, target: Target, pipeline: str, rounds: int
) -> dict:
    """Total wall-clock of ``rounds`` batches: serial ``transpile()`` vs
    one persistent service (pool start-up included)."""

    def serial() -> float:
        start = time.perf_counter()
        for _ in range(rounds):
            transpile(
                [circuit.copy() for circuit in circuits],
                target=target,
                pipeline=pipeline,
                seed=seeds,
            )
        return time.perf_counter() - start

    def service() -> float:
        start = time.perf_counter()
        with CompileService(pipeline=pipeline, target=target) as svc:
            for _ in range(rounds):
                svc.map([circuit.copy() for circuit in circuits], seeds=seeds)
        return time.perf_counter() - start

    return {"transpile_serial": serial(), "service": service()}


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
        analysis_cache=cache,
        full_result=True,
    )
    wall = time.perf_counter() - start
    return aggregate_batch(results, cache=cache, executor="serial", wall_time=wall)


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
        help="batch replays in the service-vs-serial comparison (default 4)",
    )
    parser.add_argument(
        "--assert-service-speedup",
        action="store_true",
        help="fail unless the persistent service's median wall beats serial "
        "transpile()'s over --rounds batches",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write wall times and metrics reports to PATH as JSON",
    )
    args = parser.parse_args(argv)

    backend = FakeMelbourne()
    target = Target.from_backend(backend)
    circuits, seeds = build_batch(args.quick)
    print(
        f"batch: {len(circuits)} circuits, pipeline={args.pipeline!r}, "
        f"host cores: {os.cpu_count()}"
    )

    walls, reports = measure_parity(circuits, seeds, target, args.pipeline)
    print_table(
        "One batch, both paths",
        ["path", "wall", "throughput", "synthesis memo hits"],
        [
            [
                label,
                f"{wall:.2f}s",
                f"{len(circuits) / wall:.1f}/s",
                str(reports[label]["cache"]["stats"].get("synth_memo_hits", 0)),
            ]
            for label, wall in walls.items()
        ],
    )
    print("parity: serial transpile() and the service produced gate-identical circuits")

    # -- persistent service vs serial transpile(), medians of repeats --------
    samples: dict[str, list[float]] = {"transpile_serial": [], "service": []}
    for _ in range(REPEATS):
        for key, wall in measure_service_vs_serial(
            circuits, seeds, target, args.pipeline, args.rounds
        ).items():
            samples[key].append(wall)
    medians = {key: statistics.median(values) for key, values in samples.items()}
    print_table(
        f"Service vs serial transpile() ({args.rounds} rounds, "
        f"median of {REPEATS})",
        ["path", "median wall", "min", "max", "throughput"],
        [
            [
                key,
                f"{medians[key]:.2f}s",
                f"{min(values):.2f}s",
                f"{max(values):.2f}s",
                f"{args.rounds * len(circuits) / medians[key]:.1f}/s",
            ]
            for key, values in samples.items()
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
                "repeats": REPEATS,
                "wall_times": medians,
                "wall_time_samples": samples,
                "parity_wall_times": walls,
                "heterogeneous": hetero,
                "reports": reports,
            },
        )
        print(f"metrics written to {args.metrics_json}")

    if args.assert_service_speedup:
        if medians["service"] >= medians["transpile_serial"]:
            raise SystemExit(
                f"persistent service (median {medians['service']:.2f}s) did "
                f"not beat serial transpile() (median "
                f"{medians['transpile_serial']:.2f}s) over {args.rounds} rounds"
            )
        speedup = medians["transpile_serial"] / medians["service"]
        print(f"service beats serial transpile(): {speedup:.2f}x (medians)")


if __name__ == "__main__":
    main()
