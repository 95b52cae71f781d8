"""Fast smoke tests of the benchmark harness at tiny sizes.

Traced runs replace functions of the compile stack, so they run in a
child interpreter and leave this test process untouched.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import ROUTING_SEEDS  # noqa: E402


def _child(code: str) -> dict:
    """Run ``code`` with the harness importable; it prints one JSON line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, run.SRC]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(spec_) for spec_ in layers.METRICS
    ]


def test_every_shipped_pass_is_traced():
    import pkgutil
    import importlib

    import repro
    from repro.transpiler.passmanager import AnalysisPass, BasePass, TransformationPass

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    shipped = {
        cls.__name__
        for cls in subclasses(BasePass)
        if cls.__module__.startswith("repro.")
        and cls not in (AnalysisPass, TransformationPass)
    }
    assert shipped == set(layers.PASSES) | set(layers.RPO_PASSES)


def test_check_catches_a_wrong_circuit():
    from checks import check_result
    from repro.algorithms import quantum_phase_estimation
    from repro.transpiler import transpile

    circuit = quantum_phase_estimation(2)
    result = transpile(circuit, target="melbourne", pipeline="rpo", full_result=True)
    assert check_result(circuit, result) is None
    result.circuit.x(result.properties["layout"].physical(0))
    assert check_result(circuit, result) is not None


CLOSED = """
import json, run
from tracing import Recorder, install_compile
from layers import per_layer
from workloads import table2_jobs
recorder = Recorder()
install_compile(recorder)
recorder.enabled = True
jobs = table2_jobs(3, {"qpe": (3,), "qv": (3,)}, ("level3", "rpo"))
outcome = run.closed_loop(jobs, 0.0, "full", recorder)
recorder.enabled = False
totals = run.check_outputs(outcome)
metrics = per_layer(recorder.spans, outcome.passes, {})
print(json.dumps({"failures": outcome.failures, "totals": totals, "metrics": metrics}))
"""


def test_tiny_traced_closed_loop():
    report = _child(CLOSED)
    assert report["failures"] == []
    assert report["totals"]["cx_total"] > 0
    metrics = report["metrics"]
    assert set(metrics) == set(layers.UNITS)
    assert metrics["linalg.synth_calls"] > 0
    assert metrics["analysis.checks"] > 0
    assert metrics["analysis.violations"] == 0
    assert metrics["passes.StochasticSwap.calls"] == len(ROUTING_SEEDS) * 4


FARM = """
import glob, json, os, shutil, run
from tracing import Recorder, install_client, load_spans
from layers import per_layer
from workloads import farm_requests
recorder = Recorder()
install_client(recorder)
trace_dir = os.path.join(run.OUT, "smoke-%d" % os.getpid())
os.makedirs(trace_dir)
requests = farm_requests(5, 24)
server = run.Server(trace_dir)
try:
    recorder.enabled = True
    outcome = run.request_loop(requests, server)
    recorder.enabled = False
finally:
    server.stop()
spans = recorder.spans + load_spans(glob.glob(os.path.join(trace_dir, "*.jsonl")))
shutil.rmtree(trace_dir)
run.check_outputs(outcome)
metrics = per_layer(spans, 1, {})
print(json.dumps({"failures": outcome.failures, "kinds": outcome.kinds, "metrics": metrics}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_tiny_traced_farm_stream():
    report = _child(FARM)
    assert report["failures"] == []
    assert "hit" in report["kinds"] and "miss" in report["kinds"]
    metrics = report["metrics"]
    assert metrics["client.requests"] == 24
    assert metrics["service.jobs"] == 24
    assert metrics["result_cache.lookups"] == 24
    assert metrics["linalg.synth_calls"] > 0  # traced inside the pool worker
    assert metrics["wire.ms_p50"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2e_bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2e_bench/run.py", "--workload", "table2-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
