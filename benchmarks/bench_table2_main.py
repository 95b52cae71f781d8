"""Table II: CNOT count and transpile time of the four benchmark algorithms
on FakeMelbourne, level 3 vs Hoare vs RPO (paper Sec. VIII-B).

The timed unit is one full transpilation; CNOT/1q/depth medians are attached
as ``extra_info``.  Run ``python benchmarks/run_paper_tables.py`` for the
paper-formatted rows.
"""

import pytest

from repro.algorithms import (
    grover_circuit,
    quantum_phase_estimation,
    quantum_volume_circuit,
    ry_ansatz,
)
from repro.backends import FakeMelbourne

try:
    from .common import (
        FULL,
        alternating_times,
        batch_metrics_report,
        mean_time_by_config,
        print_table,
        run_once,
        transpile_stats,
    )
except ImportError:  # executed as a script: benchmarks/ is on sys.path
    from common import (
        FULL,
        alternating_times,
        batch_metrics_report,
        mean_time_by_config,
        print_table,
        run_once,
        transpile_stats,
    )

SIZES = [4, 6, 8, 10, 12, 14] if FULL else [4, 6, 8]
CONFIG_NAMES = ["level3", "hoare", "rpo"]
#: ``--quick`` times each cell as the median of this many warm repeats in
#: alternating config order (``common.alternating_times``).  One cold
#: compile per cell is biased by order: rpo/level3 reads ~1.0 when level3
#: compiles a circuit first and ~1.5 when rpo does.
QUICK_TIME_REPEATS = 15


def make_workload(name: str, num_qubits: int):
    if name == "qpe":
        return quantum_phase_estimation(num_qubits - 1)
    if name == "vqe":
        return ry_ansatz(num_qubits, depth=3, seed=11)
    if name == "qv":
        return quantum_volume_circuit(num_qubits, seed=5)
    if name == "grover":
        return grover_circuit(num_qubits, design="noancilla")
    raise ValueError(name)


@pytest.fixture(scope="module")
def melbourne():
    return FakeMelbourne()


@pytest.mark.parametrize("config", CONFIG_NAMES)
@pytest.mark.parametrize("workload", ["qpe", "vqe", "qv", "grover"])
@pytest.mark.parametrize("num_qubits", SIZES)
def test_table2(benchmark, melbourne, workload, num_qubits, config):
    if workload == "grover" and num_qubits > 8 and not FULL:
        pytest.skip("large Grover circuits only in REPRO_FULL mode")
    circuit = make_workload(workload, num_qubits)
    benchmark.pedantic(
        run_once, args=(config, circuit, melbourne), rounds=2, iterations=1
    )
    stats = transpile_stats(config, circuit, melbourne)
    benchmark.extra_info.update(
        {"workload": workload, "qubits": num_qubits, "config": config, **stats}
    )


def main(argv=None):
    """Script entry point; ``--quick`` runs a CI smoke subset (one size,
    one seed per configuration, each cell's time the median of
    :data:`QUICK_TIME_REPEATS` warm repeats in alternating config order).
    ``--metrics-json PATH`` additionally writes a machine-readable report:
    the per-row stats, per-config mean times, and the batched
    (shared-cache) metrics the CI regression gate
    (``benchmarks/check_regression.py``) diffs against
    ``benchmarks/baseline_quick.json``."""
    import argparse

    from repro.transpiler import write_metrics_json
    from repro.transpiler.metrics import METRICS_SCHEMA_VERSION

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: 4-qubit workloads, a single routing seed",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the aggregated metrics report to PATH as JSON",
    )
    parser.add_argument(
        "--executor",
        choices=("serial", "service"),
        default="serial",
        help="how the batched (shared-cache) measurement compiles: "
        "in-process, or through one persistent CompileService",
    )
    args = parser.parse_args(argv)

    sizes = [4] if args.quick else SIZES
    num_seeds = 1 if args.quick else None
    backend = FakeMelbourne()
    rows = []
    display_rows = []
    for workload in ("qpe", "vqe", "qv", "grover"):
        for num_qubits in sizes:
            circuit = make_workload(workload, num_qubits)
            times = None
            if args.quick:
                times = alternating_times(
                    circuit, backend, CONFIG_NAMES, QUICK_TIME_REPEATS
                )
            for config in CONFIG_NAMES:
                stats = transpile_stats(config, circuit, backend, num_seeds=num_seeds)
                if times is not None:
                    stats["time"] = times[config]
                rows.append(
                    {
                        "workload": workload,
                        "qubits": num_qubits,
                        "config": config,
                        **stats,
                    }
                )
                display_rows.append(
                    [
                        workload,
                        num_qubits,
                        config,
                        stats["cx"],
                        stats["1q"],
                        stats["depth"],
                        f"{stats['time'] * 1000:.1f}ms",
                    ]
                )
    print_table(
        "Table II (melbourne)",
        ["workload", "qubits", "config", "cx", "1q", "depth", "time"],
        display_rows,
    )

    if args.metrics_json:
        circuits = [
            make_workload(workload, num_qubits)
            for workload in ("qpe", "vqe", "qv", "grover")
            for num_qubits in sizes
        ]
        # under --executor service, all three configs share one persistent
        # CompileService (and its warm pool + cache)
        service = None
        if args.executor == "service":
            from repro.transpiler import CompileService

            service = CompileService(target=backend.target())
        try:
            batched = {
                config: batch_metrics_report(
                    config,
                    circuits,
                    backend,
                    service=service,
                )
                for config in CONFIG_NAMES
            }
        finally:
            if service is not None:
                service.shutdown()
        report = {
            "schema": METRICS_SCHEMA_VERSION,
            "suite": "table2_quick" if args.quick else "table2",
            "quick": args.quick,
            "rows": rows,
            "mean_time_by_config": mean_time_by_config(rows),
            "batched": batched,
        }
        write_metrics_json(args.metrics_json, report)
        print(f"\nmetrics written to {args.metrics_json}")


if __name__ == "__main__":
    main()
