"""Shared benchmark harness.

Provides the paper's measurement protocol (Sec. VII-B): transpile each
circuit under several pipeline configurations over multiple routing seeds
and report medians of CNOT count, single-qubit gate count, depth and
transpile time.

All transpilation goes through the public front-end
(:func:`repro.transpiler.transpile`): one entry point routes the preset
levels, the RPO pipelines and the Hoare baseline.  The per-seed runs of
:func:`transpile_stats` stay independent and cold (fresh
:class:`~repro.transpiler.AnalysisCache` each) to preserve the paper's
timing protocol; warm-cache serving throughput is exercised by
``tests/transpiler/test_cache.py`` instead.

Set ``REPRO_FULL=1`` in the environment to run paper-scale sizes and seed
counts (the default is a fast configuration suitable for CI).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.backends import FakeAlmaden, FakeMelbourne, FakeRochester
from repro.transpiler import AnalysisCache, aggregate_batch, transpile

FULL = os.environ.get("REPRO_FULL", "0") == "1"

#: median over this many seeded transpilations (paper: 25)
NUM_SEEDS = 25 if FULL else 3

#: benchmark configuration name -> front-end pipeline name
CONFIGS = {
    "level3": "level3",
    "hoare": "hoare",
    "rpo": "rpo",
    "rpo_ext": "rpo_ext",
}

BACKENDS = {
    "melbourne": FakeMelbourne,
    "almaden": FakeAlmaden,
    "rochester": FakeRochester,
}

ONE_QUBIT_GATES = ("u1", "u2", "u3", "id", "x", "h", "z", "s", "sdg", "t", "tdg")


def transpile_stats(config: str, circuit, backend, num_seeds: int = None) -> dict:
    """Median CNOT count / 1q count / depth / time over seeds.

    Each seeded run is an independent, cold ``transpile()`` call with its
    own fresh :class:`~repro.transpiler.AnalysisCache` -- the paper's
    protocol times cold transpilations, so sharing a warm cache across the
    seeds would skew the level3/hoare/rpo time comparison.  Per-run wall
    time comes from each run's :class:`TranspileResult`.
    """
    num_seeds = num_seeds or NUM_SEEDS
    results = [
        transpile(
            circuit.copy(),
            target=backend,
            pipeline=CONFIGS[config],
            seed=seed,
            full_result=True,
        )
        for seed in range(num_seeds)
    ]
    cx, one_q, depth, times = [], [], [], []
    for result in results:
        ops = result.circuit.count_ops()
        cx.append(ops.get("cx", 0))
        one_q.append(sum(ops.get(name, 0) for name in ONE_QUBIT_GATES))
        depth.append(result.circuit.depth())
        times.append(result.time)
    return {
        "cx": int(np.median(cx)),
        "1q": int(np.median(one_q)),
        "depth": int(np.median(depth)),
        "time": float(np.median(times)),
    }


def alternating_times(circuit, backend, configs, repeats: int, seed: int = 0) -> dict:
    """Median transpile time of ``circuit`` per config, without order bias.

    The first compile of a circuit object pays one-time costs that later
    compiles of its copies skip, so one untimed compile per config warms
    the circuit first.  Then each of ``repeats`` rounds times every config
    once, reversing the config order every other round, so no config
    always runs first.  Times come from each run's
    :class:`~repro.transpiler.TranspileResult`, as in
    :func:`transpile_stats`.
    """
    times: dict[str, list[float]] = {config: [] for config in configs}
    for config in configs:
        run_once(config, circuit, backend, seed)
    for round_index in range(repeats):
        order = configs if round_index % 2 == 0 else configs[::-1]
        for config in order:
            result = transpile(
                circuit.copy(),
                target=backend,
                pipeline=CONFIGS[config],
                seed=seed,
                full_result=True,
            )
            times[config].append(result.time)
    return {config: float(np.median(values)) for config, values in times.items()}


def batch_metrics_report(
    config: str,
    circuits,
    backend,
    num_seeds: int = 1,
    service=None,
) -> dict:
    """One *batched* transpile over a shared cache, rolled up into a
    JSON-ready metrics report (:func:`repro.transpiler.aggregate_batch`).

    This is the serving-shaped measurement the per-seed cold runs of
    :func:`transpile_stats` deliberately avoid: the whole batch shares one
    :class:`~repro.transpiler.AnalysisCache`, and the report records batch
    wall-clock, per-pass and per-target aggregates and cache hit rates.
    The batch compiles in-process, or -- given a persistent
    :class:`~repro.transpiler.CompileService` as ``service`` -- through
    that service's pool (whose workers count into the service's cache).
    """
    batch, seeds = [], []
    for circuit in circuits:
        for seed in range(num_seeds):
            batch.append(circuit.copy())
            seeds.append(seed)
    cache = service.cache if service is not None else AnalysisCache()
    start = time.perf_counter()
    results = transpile(
        batch,
        target=backend,
        pipeline=CONFIGS[config],
        seed=seeds,
        analysis_cache=cache,
        full_result=True,
        service=service,
    )
    wall_time = time.perf_counter() - start
    label = "serial" if service is None else "service"
    return aggregate_batch(
        results, cache=cache, executor=label, wall_time=wall_time
    )


def mean_time_by_config(rows) -> dict:
    """Per-config mean of the ``time`` cells of benchmark row dicts.

    The regression gate (:func:`repro.transpiler.compare_metrics`) compares
    these *normalized by the run's own level3 mean*, so machine speed
    cancels out of CI comparisons.
    """
    totals: dict[str, list[float]] = {}
    for row in rows:
        totals.setdefault(row["config"], []).append(row["time"])
    return {
        config: float(np.mean(times)) for config, times in sorted(totals.items())
    }


def run_once(config: str, circuit, backend, seed: int = 0):
    """Single transpilation (the unit timed by pytest-benchmark)."""
    return transpile(
        circuit.copy(),
        target=backend,
        pipeline=CONFIGS[config],
        seed=seed,
    )


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
