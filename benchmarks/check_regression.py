#!/usr/bin/env python3
"""CI regression gate: diff a metrics report against the checked-in baseline.

Compares the report written by ``bench_table2_main.py --quick --metrics-json``
against ``benchmarks/baseline_quick.json`` and exits non-zero when either

* an optimized gate count (``cx`` / ``1q``) of any benchmark row regresses
  more than the tolerance (default 20%), or
* a pipeline's mean transpile time, *normalized by the same run's level3
  mean* so machine speed cancels out, regresses more than the tolerance.

With ``--executors REPORT.json`` (the report written by
``bench_executors.py --metrics-json``) the gate additionally checks
**service-mode throughput**: the persistent ``CompileService``'s median
wall over repeated rounds must not fall behind serial ``transpile()``'s
by more than ``--service-tolerance``.

With ``--server REPORT.json`` (the report written by
``bench_server.py --metrics-json``) the gate checks the **networked
path**: loopback-remote chunked throughput must stay within
``--server-wire-tolerance`` (default 1.0, i.e. within 2x) of the
in-process service, and chunked dispatch must beat
one-request-per-circuit.

With ``--kernels REPORT.json`` (the report written by
``bench_kernels.py --metrics-json``) the gate checks the **batched
numeric kernels**: stacked-operand block consolidation must beat the
per-block serial path by at least ``--kernels-min-speedup`` (default
1.5x).

With ``--result-cache REPORT.json`` (the report written by
``bench_result_cache.py --metrics-json``) the gate checks the
**compiled-result cache**: a warm repeat of a batch must beat the cold
compile by at least ``--result-cache-min-speedup`` (default 5x), every
warm job must actually hit, and the template path must have learned and
re-bound.

With ``--sim REPORT.json`` (the report written by
``bench_sim.py --metrics-json``) the gate checks the **simulation
lane**: the fused statevector simulator must beat the naive per-gate
host loop by at least ``--sim-min-speedup`` (default 2x)
and agree with it to 1e-10.

Any report flag may be used without the positional table report (the
server-smoke CI job gates on the server report alone).

Refreshing the baseline after an intentional change::

    python benchmarks/bench_table2_main.py --quick \
        --metrics-json benchmarks/baseline_quick.json

Usage::

    python benchmarks/check_regression.py CURRENT.json [BASELINE.json] \
        [--executors EXECUTORS.json]
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.transpiler import compare_metrics, load_metrics_json

DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__), "baseline_quick.json")


def check_service_throughput(report: dict, tolerance: float) -> list[str]:
    """Service-mode gate over a ``bench_executors.py`` metrics report.

    The persistent service's median wall over the report's rounds must be
    <= serial ``transpile()``'s median wall * (1 + tolerance) -- i.e.
    service throughput must be at least serial throughput, modulo timing
    noise.
    """
    failures: list[str] = []
    walls = report.get("wall_times", {})
    service = walls.get("service")
    serial = walls.get("transpile_serial")
    if service is None or serial is None:
        failures.append(
            "executors report lacks service/transpile_serial wall times; "
            "run bench_executors.py with --metrics-json"
        )
    elif service > serial * (1.0 + tolerance):
        failures.append(
            f"service wall {service:.2f}s exceeds serial transpile() "
            f"{serial:.2f}s by more than {tolerance:.0%}"
        )
    return failures


def check_server_throughput(report: dict, wire_tolerance: float) -> list[str]:
    """Networked-path gates over a ``bench_server.py`` metrics report.

    * chunked dispatch must beat one-request-per-circuit (the whole point
      of chunked job envelopes);
    * loopback-remote chunked wall must be <= in-process service wall *
      (1 + wire_tolerance) -- the wire tax is bounded (2x by default).
    """
    failures: list[str] = []
    walls = report.get("wall_times", {})
    inprocess = walls.get("inprocess")
    chunked = walls.get("remote_chunked")
    per_circuit = walls.get("remote_per_circuit")
    if inprocess is None or chunked is None or per_circuit is None:
        return [
            "server report lacks inprocess/remote_chunked/remote_per_circuit "
            "wall times; run bench_server.py with --metrics-json"
        ]
    if chunked >= per_circuit:
        failures.append(
            f"chunked remote dispatch ({chunked:.2f}s) did not beat "
            f"one-request-per-circuit ({per_circuit:.2f}s)"
        )
    if chunked > inprocess * (1.0 + wire_tolerance):
        failures.append(
            f"loopback-remote chunked wall {chunked:.2f}s exceeds in-process "
            f"service {inprocess:.2f}s by more than {wire_tolerance:.0%}"
        )
    return failures


def check_kernel_speedup(report: dict, min_speedup: float) -> list[str]:
    """Batched-kernel gate over a ``bench_kernels.py`` metrics report.

    The batched block-consolidation stage (all block unitaries in one
    stacked reduction) must beat the serial per-block accumulation by at
    least ``min_speedup``; the 1q-run stage must at least not be slower.
    """
    failures: list[str] = []
    kernels = report.get("kernels", {})
    consolidation = kernels.get("consolidation", {})
    speedup = consolidation.get("speedup")
    if speedup is None:
        return [
            "kernels report lacks the consolidation speedup; run "
            "bench_kernels.py with --metrics-json"
        ]
    if speedup < min_speedup:
        failures.append(
            f"batched block consolidation speedup {speedup:.2f}x fell below "
            f"the required {min_speedup:.2f}x"
        )
    runs1q = kernels.get("runs1q", {}).get("speedup")
    if runs1q is not None and runs1q < 1.0:
        failures.append(
            f"batched 1q-run merging ({runs1q:.2f}x) is slower than the "
            f"serial path"
        )
    return failures


def check_result_cache(report: dict, min_speedup: float) -> list[str]:
    """Result-cache gates over a ``bench_result_cache.py`` metrics report.

    * warm exact hits must beat cold compilation by >= ``min_speedup``;
    * every warm job must have been served from the cache;
    * the template path must have learned a template and re-bound with it.
    """
    failures: list[str] = []
    cache = report.get("result_cache", {})
    exact = cache.get("exact", {})
    speedup = exact.get("speedup")
    if speedup is None:
        return [
            "result-cache report lacks the warm-hit speedup; run "
            "bench_result_cache.py with --metrics-json"
        ]
    if speedup < min_speedup:
        failures.append(
            f"warm result-cache hits ({speedup:.2f}x) fell below the "
            f"required {min_speedup:.2f}x over cold compiles"
        )
    if exact.get("hits", 0) < exact.get("jobs", 0):
        failures.append(
            f"warm repeat served only {exact.get('hits', 0)} cache hits "
            f"for {exact.get('jobs', 0)} jobs"
        )
    template = cache.get("template", {})
    if template.get("templates_learned", 0) < 1:
        failures.append("result cache never learned a parameterized template")
    elif template.get("template_hits", 0) < 1:
        failures.append(
            "result cache learned a template but served no template hits"
        )
    return failures


def check_sim(report: dict, min_speedup: float) -> list[str]:
    """Simulation-lane gates over a ``bench_sim.py`` metrics report: the
    fused statevector simulator must beat the naive per-gate host loop
    by >= ``min_speedup`` and agree with it to 1e-10."""
    failures: list[str] = []
    sim = report.get("sim", {})
    statevector = sim.get("statevector", {})
    speedup = statevector.get("speedup")
    if speedup is None:
        return [
            "sim report lacks the statevector speedup; run bench_sim.py "
            "with --metrics-json"
        ]
    if speedup < min_speedup:
        failures.append(
            f"fused statevector speedup {speedup:.2f}x fell "
            f"below the required {min_speedup:.2f}x"
        )
    max_error = statevector.get("max_error")
    if max_error is None or max_error > 1e-10:
        failures.append(
            f"fused statevector drifted from the naive per-gate loop "
            f"(max error {max_error})"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "current",
        nargs="?",
        default=None,
        help="metrics JSON produced by this run (optional when only "
        "--executors / --server gates are requested)",
    )
    parser.add_argument(
        "baseline",
        nargs="?",
        default=DEFAULT_BASELINE,
        help=f"baseline metrics JSON (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--gate-tolerance",
        type=float,
        default=0.20,
        help="allowed relative growth of optimized gate counts (default 0.20)",
    )
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=0.20,
        help="allowed relative growth of normalized mean transpile time "
        "(default 0.20)",
    )
    parser.add_argument(
        "--executors",
        metavar="PATH",
        help="bench_executors.py metrics report; enables the service-mode "
        "throughput gate",
    )
    parser.add_argument(
        "--service-tolerance",
        type=float,
        default=0.10,
        help="allowed service wall-clock excess over serial transpile() "
        "(default 0.10)",
    )
    parser.add_argument(
        "--server",
        metavar="PATH",
        help="bench_server.py metrics report; enables the networked-path "
        "gates (chunked beats per-circuit, wire tax within tolerance)",
    )
    parser.add_argument(
        "--server-wire-tolerance",
        type=float,
        default=1.0,
        help="allowed loopback-remote wall-clock excess over the in-process "
        "service (default 1.0 = within 2x)",
    )
    parser.add_argument(
        "--kernels",
        metavar="PATH",
        help="bench_kernels.py metrics report; enables the batched-kernel "
        "speedup gate",
    )
    parser.add_argument(
        "--kernels-min-speedup",
        type=float,
        default=1.5,
        help="required batched-vs-serial block consolidation speedup "
        "(default 1.5)",
    )
    parser.add_argument(
        "--result-cache",
        metavar="PATH",
        help="bench_result_cache.py metrics report; enables the warm-hit "
        "speedup and template-learning gates",
    )
    parser.add_argument(
        "--result-cache-min-speedup",
        type=float,
        default=5.0,
        help="required warm-hit speedup over cold compilation (default 5.0)",
    )
    parser.add_argument(
        "--sim",
        metavar="PATH",
        help="bench_sim.py metrics report; enables the fused-"
        "simulation speedup and accuracy gates",
    )
    parser.add_argument(
        "--sim-min-speedup",
        type=float,
        default=2.0,
        help="required fused statevector speedup over the naive "
        "per-gate host loop (default 2.0)",
    )
    args = parser.parse_args(argv)
    if args.current is None and not (
        args.executors or args.server or args.kernels or args.result_cache or args.sim
    ):
        parser.error(
            "need a metrics report (positional) or "
            "--executors/--server/--kernels/--result-cache/--sim"
        )

    failures: list[str] = []
    rows = 0
    if args.current is not None:
        current = load_metrics_json(args.current)
        baseline = load_metrics_json(args.baseline)
        failures += compare_metrics(
            current,
            baseline,
            gate_tolerance=args.gate_tolerance,
            time_tolerance=args.time_tolerance,
        )
        rows = len(current.get("rows", []))
    if args.executors:
        failures += check_service_throughput(
            load_metrics_json(args.executors), args.service_tolerance
        )
    if args.server:
        failures += check_server_throughput(
            load_metrics_json(args.server), args.server_wire_tolerance
        )
    if args.kernels:
        failures += check_kernel_speedup(
            load_metrics_json(args.kernels), args.kernels_min_speedup
        )
    if args.result_cache:
        failures += check_result_cache(
            load_metrics_json(args.result_cache), args.result_cache_min_speedup
        )
    if args.sim:
        failures += check_sim(load_metrics_json(args.sim), args.sim_min_speedup)
    if failures:
        print(f"REGRESSIONS vs {args.baseline}:")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    checked = ""
    if args.executors:
        checked += " (+ service throughput)"
    if args.server:
        checked += " (+ server loopback throughput)"
    if args.kernels:
        checked += " (+ batched-kernel speedup)"
    if args.result_cache:
        checked += " (+ result-cache warm-hit speedup)"
    if args.sim:
        checked += " (+ fused simulation speedup)"
    print(
        f"regression gate passed: {rows} rows within tolerance of baseline"
        f"{checked}"
    )


if __name__ == "__main__":
    main()
