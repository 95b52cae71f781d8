"""Batch metrics aggregation and JSON export.

Every :class:`~repro.transpiler.passmanager.TranspileResult` already carries
structured per-pass and per-loop metrics; this module rolls a *batch* of
results up into one JSON-serializable report: per-pass run, time and
rewrite aggregates, batch-level wall-time and gate-count statistics,
per-:class:`~repro.transpiler.target.Target` breakdowns (``by_target`` --
heterogeneous multi-backend batches report each device separately), and
the shared :class:`~repro.transpiler.cache.AnalysisCache` synthesis counters.
Benchmarks write these reports to disk (``bench_table2_main.py --quick
--metrics-json``) and CI diffs them against a checked-in baseline
(``benchmarks/check_regression.py``), which is how compile-time regressions
are caught automatically.

The report is a plain ``dict`` of primitives -- ``json.dump`` ready, stable
under ``schema`` versioning, and cheap to ship from worker processes.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from repro.transpiler.cache import AnalysisCache
from repro.transpiler.passmanager import TranspileResult

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "aggregate_batch",
    "write_metrics_json",
    "load_metrics_json",
    "compare_metrics",
]

METRICS_SCHEMA_VERSION = 1

#: Gates counted as "one-qubit" in summaries (mirrors benchmarks/common.py).
ONE_QUBIT_GATES = ("u1", "u2", "u3", "id", "x", "h", "z", "s", "sdg", "t", "tdg")


def _stats(values: Sequence[float]) -> dict:
    if not values:
        return {"mean": 0.0, "median": 0.0, "min": 0.0, "max": 0.0, "total": 0.0}
    ordered = sorted(values)
    n = len(ordered)
    median = (
        ordered[n // 2]
        if n % 2
        else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    )
    return {
        "mean": sum(ordered) / n,
        "median": median,
        "min": ordered[0],
        "max": ordered[-1],
        "total": sum(ordered),
    }


def aggregate_batch(
    results: Iterable[TranspileResult],
    cache: AnalysisCache | None = None,
    executor: str | None = None,
    wall_time: float | None = None,
) -> dict:
    """Aggregate a batch of transpile results into one metrics report.

    Args:
        results: the batch's :class:`TranspileResult` objects.
        cache: the batch's shared analysis cache; adds its ``stats``.
            Defaults to the cache found on the first result, if any.
        executor: label of the path that compiled the batch (``"serial"``,
            ``"service"``, ``"remote"``, ...), recorded as given.
        wall_time: end-to-end batch wall-clock, if the caller measured one
            (the sum of per-result times over-counts under parallelism).
    """
    results = list(results)
    passes: dict[str, dict] = {}
    times, sizes, depths, cx_counts, one_q_counts = [], [], [], [], []
    by_target: dict = {}  # Target (or None) -> running aggregates
    loop_iterations = 0
    loops_converged = 0
    loops_total = 0
    for result in results:
        times.append(result.time)
        sizes.append(result.circuit.size())
        depths.append(result.circuit.depth())
        ops = result.circuit.count_ops()
        cx_counts.append(ops.get("cx", 0))
        one_q_counts.append(sum(ops.get(name, 0) for name in ONE_QUBIT_GATES))
        # grouped by the Target *value* (hashable by design), not its
        # display label -- distinct same-named targets must not merge
        target = result.properties.get("target")
        entry = by_target.setdefault(
            target,
            {
                "num_circuits": 0,
                "time": [],
                "cx": [],
                "size": [],
                "depth": [],
                "num_qubits": getattr(target, "num_qubits", None),
                "basis": list(getattr(target, "basis", ()) or ()),
            },
        )
        entry["num_circuits"] += 1
        entry["time"].append(result.time)
        entry["cx"].append(float(ops.get("cx", 0)))
        entry["size"].append(float(result.circuit.size()))
        entry["depth"].append(float(result.circuit.depth()))
        for metric in result.metrics:
            entry = passes.setdefault(
                metric.name,
                {
                    "runs": 0,
                    "total_time": 0.0,
                    "max_time": 0.0,
                    "rewrites": 0,
                },
            )
            entry["runs"] += 1
            entry["total_time"] += metric.time
            entry["max_time"] = max(entry["max_time"], metric.time)
            entry["rewrites"] += metric.rewrites
        for loop in result.loops:
            loops_total += 1
            loop_iterations += loop.iterations
            loops_converged += loop.converged
    for entry in passes.values():
        entry["mean_time"] = entry["total_time"] / entry["runs"]
    target_report: dict[str, dict] = {}
    for target, entry in by_target.items():
        for field in ("time", "cx", "size", "depth"):
            entry[field] = _stats(entry.pop(field))
        label = getattr(target, "label", None) or "untargeted"
        suffix = 2
        while label in target_report:  # same label, different target value
            label = f"{getattr(target, 'label', 'untargeted')}#{suffix}"
            suffix += 1
        target_report[label] = entry

    if cache is None:
        for result in results:
            cache = result.analysis_cache
            if cache is not None:
                break
    cache_report = None
    if cache is not None:
        cache_report = {"stats": dict(cache.stats)}

    report = {
        "schema": METRICS_SCHEMA_VERSION,
        "num_circuits": len(results),
        "executor": executor,
        "time": _stats(times),
        "wall_time": wall_time,
        "gates": {
            "size": _stats([float(s) for s in sizes]),
            "depth": _stats([float(d) for d in depths]),
            "cx": _stats([float(c) for c in cx_counts]),
            "one_qubit": _stats([float(c) for c in one_q_counts]),
        },
        "loops": {
            "count": loops_total,
            "iterations": loop_iterations,
            "converged": loops_converged,
        },
        "passes": passes,
        "by_target": target_report,
        "cache": cache_report,
    }
    return report


def write_metrics_json(path, report: dict) -> None:
    """Serialize a metrics report (or any JSON-ready dict) to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_metrics_json(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _row_key(row: dict) -> tuple:
    return (row.get("workload"), row.get("qubits"), row.get("config"))


def compare_metrics(
    current: dict,
    baseline: dict,
    gate_tolerance: float = 0.20,
    time_tolerance: float = 0.20,
) -> list[str]:
    """Regressions of ``current`` against ``baseline``; empty list = pass.

    Two families of checks, mirroring the CI gate's contract:

    * **gate counts** -- for every benchmark row present in both reports
      (keyed by workload/qubits/config), the optimized ``cx`` and ``1q``
      counts may not exceed baseline by more than ``gate_tolerance``
      (with an absolute slack of one gate so tiny counts don't flap);
    * **transpile time** -- per-config mean times are compared *normalized
      by the same run's* ``level3`` *mean time*, so a faster or slower CI
      machine cancels out and only genuine pipeline slowdowns (RPO/Hoare
      growing relative to the baseline compiler) trip the gate.  Absolute
      times are still recorded in the report for humans.
    """
    failures: list[str] = []

    baseline_rows = {_row_key(r): r for r in baseline.get("rows", [])}
    for row in current.get("rows", []):
        base = baseline_rows.get(_row_key(row))
        if base is None:
            continue
        label = "/".join(str(part) for part in _row_key(row))
        for field in ("cx", "1q"):
            if field not in row or field not in base:
                continue
            allowed = max(base[field] * (1.0 + gate_tolerance), base[field] + 1)
            if row[field] > allowed:
                failures.append(
                    f"{label}: {field} count {row[field]} exceeds baseline "
                    f"{base[field]} by more than {gate_tolerance:.0%}"
                )

    current_times = current.get("mean_time_by_config", {})
    baseline_times = baseline.get("mean_time_by_config", {})
    reference = "level3"
    cur_ref = current_times.get(reference)
    base_ref = baseline_times.get(reference)
    if cur_ref and base_ref:
        for config, cur_time in current_times.items():
            if config == reference:
                continue
            base_time = baseline_times.get(config)
            if not base_time:
                continue
            cur_ratio = cur_time / cur_ref
            base_ratio = base_time / base_ref
            if cur_ratio > base_ratio * (1.0 + time_tolerance):
                failures.append(
                    f"time: {config} mean transpile time is {cur_ratio:.2f}x "
                    f"level3 (baseline {base_ratio:.2f}x, tolerance "
                    f"{time_tolerance:.0%})"
                )
    return failures
