"""Per-layer metrics computed from the spans of a traced run.

Busy times are *self* times: a span's duration minus the part of it that
its child spans cover, so the layers' busy times add up instead of
counting nested work twice (``ConsolidateBlocks`` excludes the
resynthesis it calls, ``server.handle_compile`` excludes the jobs it
waits on).  Counts and busy times are per pass over the workload's
seeded input set, so they compare across runs of different length;
ratios and percentiles are over the whole traced phase.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

#: shipped passes outside the RPO package, traced as ``passes.<name>``
PASSES = (
    "ApplyLayout",
    "CXCancellation",
    "CheckMap",
    "CommutativeCancellation",
    "ConsolidateBlocks",
    "CountOps",
    "DenseLayout",
    "Depth",
    "FixedPoint",
    "Optimize1qGates",
    "RemoveAnnotations",
    "RemoveBarriers",
    "RemoveDiagonalGatesBeforeMeasure",
    "SetLayout",
    "Size",
    "StochasticSwap",
    "TrivialLayout",
    "Unroller",
)

#: the paper's passes, traced as ``rpo.<name>``
RPO_PASSES = ("QBOPass", "QPOPass", "HoareOptimizer")


def _metric_specs() -> list[tuple[str, str, str]]:
    specs = [
        ("linalg.synth_calls", "count", "lower"),
        ("linalg.synth_busy_ms", "ms", "lower"),
        ("linalg.synth_distinct", "count", "lower"),
        ("linalg.synth_kept_ratio", "ratio", "higher"),
        ("linalg.synth_share_pct", "%", "lower"),
    ]
    for name in PASSES:
        specs.append((f"passes.{name}.busy_ms", "ms", "lower"))
        specs.append((f"passes.{name}.calls", "count", "lower"))
    specs.append(("passes.fixed_point_iterations", "count", "lower"))
    for name in RPO_PASSES:
        specs.append((f"rpo.{name}.busy_ms", "ms", "lower"))
        specs.append((f"rpo.{name}.calls", "count", "lower"))
    specs += [
        ("rpo.gates_removed", "count", "higher"),
        ("frontend.overhead_ms", "ms", "lower"),
        ("result_cache.lookups", "count", "lower"),
        ("result_cache.stores", "count", "lower"),
        ("result_cache.busy_ms", "ms", "lower"),
        ("result_cache.hit_ratio", "ratio", "higher"),
        ("result_cache.template_ratio", "ratio", "higher"),
        ("hit.latency_ms_p50", "ms", "lower"),
        ("template.latency_ms_p50", "ms", "lower"),
        ("client.requests", "count", "higher"),
        ("protocol.busy_ms", "ms", "lower"),
        ("protocol.bytes_in", "bytes", "lower"),
        ("protocol.bytes_out", "bytes", "lower"),
        ("serialization.calls", "count", "lower"),
        ("serialization.busy_ms", "ms", "lower"),
        ("server.busy_ms", "ms", "lower"),
        ("wire.ms_p50", "ms", "lower"),
        ("service.jobs", "count", "lower"),
        ("service.queue_wait_ms_p50", "ms", "lower"),
        ("simulators.calls", "count", "lower"),
        ("simulators.busy_ms", "ms", "lower"),
        ("analysis.checks", "count", "lower"),
        ("analysis.busy_ms", "ms", "lower"),
        ("analysis.violations", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return specs


#: ``(name, unit, better)`` of every per-layer metric, in report order
METRICS = _metric_specs()
UNITS = {name: unit for name, unit, _ in METRICS}


def p50(values) -> float:
    return float(np.percentile(values, 50)) if len(values) else 0.0


def _union_length(intervals, low: float, high: float) -> float:
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def with_self_times(spans: list[dict]) -> list[dict]:
    """Annotate each span with ``dur`` and ``self`` (seconds)."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(span)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        covered = _union_length(
            [(c["start"], c["end"]) for c in children[(span["pid"], span["id"])]],
            span["start"],
            span["end"],
        )
        span["self"] = span["dur"] - covered
    return spans


def per_layer(spans: list[dict], passes: int, client: dict) -> dict[str, float]:
    """Every per-layer metric from the traced phase's spans.

    ``passes`` is how many times the traced phase went through the input
    set; ``client`` carries what the load generator measured itself:
    ``latencies_by_kind`` (s) and ``overhead_pct``.
    """
    spans = with_self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    by_id = {(span["pid"], span["id"]): span for span in spans}

    def count(name) -> float:
        return len(by_name[name]) / passes

    def busy_ms(*names) -> float:
        return sum(s["self"] for n in names for s in by_name[n]) * 1e3 / passes

    def attr_sum(name, key) -> float:
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name[name])

    out: dict[str, float] = {}
    synth = by_name["synth"]
    out["linalg.synth_calls"] = count("synth")
    out["linalg.synth_busy_ms"] = busy_ms("synth")
    out["linalg.synth_distinct"] = float(len({s["attrs"]["unitary"] for s in synth}))
    attempts = sum(
        1
        for s in synth
        if by_id.get((s["pid"], s["parent"]), {}).get("name") == "pass:ConsolidateBlocks"
    )
    kept = attr_sum("pass:ConsolidateBlocks", "kept")
    out["linalg.synth_kept_ratio"] = kept / attempts if attempts else 0.0
    compile_s = sum(s["dur"] for s in by_name["transpile"]) or sum(
        s["dur"] for s in by_name["run_with_result"]
    )
    synth_s = sum(s["self"] for s in synth)
    out["linalg.synth_share_pct"] = 100.0 * synth_s / compile_s if compile_s else 0.0

    for name in PASSES:
        out[f"passes.{name}.busy_ms"] = busy_ms(f"pass:{name}")
        out[f"passes.{name}.calls"] = count(f"pass:{name}")
    out["passes.fixed_point_iterations"] = count("pass:FixedPoint")
    for name in RPO_PASSES:
        out[f"rpo.{name}.busy_ms"] = busy_ms(f"pass:{name}")
        out[f"rpo.{name}.calls"] = count(f"pass:{name}")
    out["rpo.gates_removed"] = (
        sum(attr_sum(f"pass:{name}", "removed") for name in RPO_PASSES) / passes
    )

    run_by_parent = defaultdict(float)
    for s in by_name["run_with_result"]:
        run_by_parent[(s["pid"], s["parent"])] += s["dur"]
    out["frontend.overhead_ms"] = 1e3 * p50(
        [s["dur"] - run_by_parent[(s["pid"], s["id"])] for s in by_name["transpile"]]
    )

    lookups = by_name["result_cache.lookup"]
    kinds = [s["attrs"]["kind"] for s in lookups]
    out["result_cache.lookups"] = count("result_cache.lookup")
    out["result_cache.stores"] = count("result_cache.store")
    out["result_cache.busy_ms"] = busy_ms("result_cache.lookup", "result_cache.store")
    out["result_cache.hit_ratio"] = kinds.count("hit") / len(kinds) if kinds else 0.0
    out["result_cache.template_ratio"] = (
        kinds.count("template") / len(kinds) if kinds else 0.0
    )
    by_kind = client.get("latencies_by_kind", {})
    out["hit.latency_ms_p50"] = 1e3 * p50(by_kind.get("hit", []))
    out["template.latency_ms_p50"] = 1e3 * p50(by_kind.get("template", []))

    out["client.requests"] = count("client.request")
    out["protocol.busy_ms"] = busy_ms("protocol")
    out["protocol.bytes_in"] = attr_sum("server.handle_compile", "bytes_in") / passes
    out["protocol.bytes_out"] = attr_sum("server.reply", "bytes_out") / passes
    out["serialization.calls"] = count("serialization")
    out["serialization.busy_ms"] = busy_ms("serialization")
    out["server.busy_ms"] = busy_ms("server.handle_compile")

    served = defaultdict(list)
    for s in by_name["server.handle_compile"]:
        served[s["request"]].append(s)
    wire = []
    for s in by_name["client.request"]:
        for inner in served.get(s["request"], []):
            if s["start"] <= inner["start"] and inner["end"] <= s["end"]:
                wire.append(s["dur"] - inner["dur"])
                break
    out["wire.ms_p50"] = 1e3 * p50(wire)

    jobs = by_name["service.job"]
    out["service.jobs"] = count("service.job")
    out["service.queue_wait_ms_p50"] = 1e3 * p50(
        [s["dur"] - s["attrs"]["compile_s"] for s in jobs if "compile_s" in s.get("attrs", {})]
    )

    out["simulators.calls"] = count("sim")
    out["simulators.busy_ms"] = busy_ms("sim")
    out["analysis.checks"] = count("qsan.check")
    out["analysis.busy_ms"] = busy_ms("qsan.check")
    out["analysis.violations"] = attr_sum("qsan.check", "violations") / passes
    out["trace.overhead_pct"] = client.get("overhead_pct", 0.0)
    return out
