"""Tests for per-pass rewrite counts, batch metrics aggregation, JSON export
and the regression gate."""

import os
from collections import Counter

import pytest

from repro.algorithms import quantum_phase_estimation
from repro.backends import FakeMelbourne
from repro.transpiler import (
    AnalysisCache,
    aggregate_batch,
    compare_metrics,
    load_metrics_json,
    transpile,
    write_metrics_json,
)
from repro.circuit.quantumcircuit import SPLICE_LOG
from repro.transpiler.metrics import METRICS_SCHEMA_VERSION
from repro.transpiler.passmanager import PassManager


@pytest.fixture(scope="module")
def batch_report():
    backend = FakeMelbourne()
    cache = AnalysisCache()
    results = transpile(
        [quantum_phase_estimation(3).copy() for _ in range(4)],
        target=backend,
        pipeline="rpo",
        seed=[0, 1, 2, 3],
        executor="serial",
        analysis_cache=cache,
        full_result=True,
    )
    return aggregate_batch(results, cache=cache, executor="serial"), results


class TestRewriteCounts:
    def test_seed_1_table_ii_rewrites_are_the_removing_edits(self, monkeypatch):
        """Every pass run of the seed-1 Table II compiles, under each of
        level3, hoare, rpo and rpo_ext, reports as its rewrites exactly
        the edits that removed records among the splices it made."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        monkeypatch.syspath_prepend(os.path.join(root, "e2e_bench"))
        from workloads import TARGET, table2_jobs

        run_pass = PassManager._run_pass
        removing = Counter()  # pass name -> removing edits over all runs

        def logged(self, pass_, circuit, state):
            log = []
            token = SPLICE_LOG.set(log)
            try:
                result = run_pass(self, pass_, circuit, state)
            finally:
                SPLICE_LOG.reset(token)
            edits = sum(1 for *_, made in log for removed, *_ in made if removed)
            assert state.metrics[-1].rewrites == edits, pass_.name
            removing[pass_.name] += edits
            return result

        monkeypatch.setattr(PassManager, "_run_pass", logged)
        for job in table2_jobs(1, pipelines=("level3", "hoare", "rpo", "rpo_ext")):
            transpile(
                job.circuit.copy(),
                target=TARGET,
                pipeline=job.pipeline,
                seed=job.seed,
                executor="serial",
                analysis_cache=AnalysisCache(),
                validate="off",  # the sanitizer keeps its own splice log
            )
        # the passes whose runs removed records, each counted by the above
        assert {name for name, edits in removing.items() if edits} == {
            "Unroller(cx,id,u1,u2,u3)",
            "Unroller(cx,id,swap,swapz,u1,u2,u3)",
            "Optimize1qGates",
            "ConsolidateBlocks",
            "CommutativeCancellation",
            "RemoveDiagonalGatesBeforeMeasure",
            "QBO",
            "QPO",
            "HoareOptimizer",
        }


class TestAggregateBatch:
    def test_schema_and_shape(self, batch_report):
        report, results = batch_report
        assert report["schema"] == METRICS_SCHEMA_VERSION
        assert report["num_circuits"] == len(results)
        assert report["executor"] == "serial"
        assert report["time"]["total"] == pytest.approx(
            sum(result.time for result in results)
        )
        assert report["gates"]["cx"]["mean"] >= 0

    def test_per_pass_aggregates(self, batch_report):
        report, results = batch_report
        passes = report["passes"]
        executed = {m.name for r in results for m in r.metrics}
        assert executed == set(passes)
        for entry in passes.values():
            assert entry["runs"] > 0
            assert entry["mean_time"] == pytest.approx(
                entry["total_time"] / entry["runs"]
            )
        total_rewrites = sum(entry["rewrites"] for entry in passes.values())
        assert total_rewrites == sum(m.rewrites for r in results for m in r.metrics)

    def test_runs_count_every_scheduled_pass_run(self, batch_report):
        report, results = batch_report
        for name, entry in report["passes"].items():
            runs = sum(m.name == name for r in results for m in r.metrics)
            assert entry["runs"] == runs
            assert set(entry) == {
                "runs", "total_time", "max_time", "mean_time", "rewrites",
            }

    def test_cache_report(self, batch_report):
        report, _ = batch_report
        cache = report["cache"]
        assert set(cache) == {"stats"}
        assert cache["stats"]["synth_attempts"] > 0

    def test_loop_report(self, batch_report):
        report, results = batch_report
        assert report["loops"]["count"] == sum(len(r.loops) for r in results)
        assert report["loops"]["iterations"] >= report["loops"]["count"]

    def test_empty_batch(self):
        report = aggregate_batch([])
        assert report["num_circuits"] == 0
        assert report["time"]["mean"] == 0.0

    def test_json_round_trip(self, batch_report, tmp_path):
        report, _ = batch_report
        path = tmp_path / "metrics.json"
        write_metrics_json(path, report)
        assert load_metrics_json(path) == report


def _bench_report(rows, times):
    return {
        "schema": 1,
        "rows": rows,
        "mean_time_by_config": times,
    }


class TestCompareMetrics:
    BASE_ROWS = [
        {"workload": "qpe", "qubits": 4, "config": "rpo", "cx": 20, "1q": 30},
        {"workload": "qpe", "qubits": 4, "config": "level3", "cx": 30, "1q": 40},
    ]
    BASE_TIMES = {"level3": 0.10, "hoare": 0.12, "rpo": 0.08}

    def test_identical_reports_pass(self):
        base = _bench_report(self.BASE_ROWS, self.BASE_TIMES)
        assert compare_metrics(base, base) == []

    def test_gate_regression_detected(self):
        current_rows = [dict(self.BASE_ROWS[0], cx=30), self.BASE_ROWS[1]]
        failures = compare_metrics(
            _bench_report(current_rows, self.BASE_TIMES),
            _bench_report(self.BASE_ROWS, self.BASE_TIMES),
        )
        assert len(failures) == 1
        assert "cx" in failures[0]

    def test_small_gate_drift_tolerated(self):
        current_rows = [dict(self.BASE_ROWS[0], cx=22), self.BASE_ROWS[1]]
        assert (
            compare_metrics(
                _bench_report(current_rows, self.BASE_TIMES),
                _bench_report(self.BASE_ROWS, self.BASE_TIMES),
            )
            == []
        )

    def test_absolute_slack_for_tiny_counts(self):
        base_rows = [{"workload": "w", "qubits": 2, "config": "rpo", "cx": 1, "1q": 2}]
        current_rows = [
            {"workload": "w", "qubits": 2, "config": "rpo", "cx": 2, "1q": 2}
        ]
        assert (
            compare_metrics(
                _bench_report(current_rows, {}), _bench_report(base_rows, {})
            )
            == []
        )

    def test_machine_speed_cancels_out(self):
        # a uniformly 3x slower machine must not trip the time gate
        slow = {config: t * 3 for config, t in self.BASE_TIMES.items()}
        assert (
            compare_metrics(
                _bench_report(self.BASE_ROWS, slow),
                _bench_report(self.BASE_ROWS, self.BASE_TIMES),
            )
            == []
        )

    def test_pipeline_slowdown_detected(self):
        slow_rpo = dict(self.BASE_TIMES, rpo=self.BASE_TIMES["rpo"] * 2)
        failures = compare_metrics(
            _bench_report(self.BASE_ROWS, slow_rpo),
            _bench_report(self.BASE_ROWS, self.BASE_TIMES),
        )
        assert len(failures) == 1
        assert "rpo" in failures[0]

    def test_unmatched_rows_ignored(self):
        extra = self.BASE_ROWS + [
            {"workload": "new", "qubits": 9, "config": "rpo", "cx": 999, "1q": 999}
        ]
        assert (
            compare_metrics(
                _bench_report(extra, self.BASE_TIMES),
                _bench_report(self.BASE_ROWS, self.BASE_TIMES),
            )
            == []
        )
