"""Smoke test of ``benchmarks/table2_digest.py``, the bit-identity check of
the Table II outputs, and the seed-1 set's CX and depth totals."""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import table2_digest  # noqa: E402
from workloads import TARGET, table2_jobs  # noqa: E402

from repro.circuit import QuantumCircuit  # noqa: E402
from repro.transpiler import AnalysisCache, transpile  # noqa: E402

from tests.helpers import exact_form  # noqa: E402


def test_digest_hashes_the_exact_form():
    circuit = QuantumCircuit(2, global_phase=-0.0)
    circuit.u3(0.1, -0.0, 0.3, 0).cx(0, 1)
    expected = hashlib.sha256(repr(exact_form(circuit)).encode()).hexdigest()
    assert table2_digest.digest(circuit) == expected
    # the sign of a zero is part of the digest
    other = circuit.copy()
    other.global_phase = 0.0
    assert table2_digest.digest(other) != expected


def test_a_few_jobs_digest_the_same_twice():
    first = table2_digest.seed_digests(1, limit=3)
    assert [label for label, _ in first] == sorted(label for label, _ in first)
    assert len(first) == 3
    assert all(len(value) == 64 for _, value in first)
    assert table2_digest.seed_digests(1, limit=3) == first


def test_the_command_prints_one_line_per_job_and_a_total():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "benchmarks/table2_digest.py", "--seeds", "1", "--limit", "2"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("seed 1 ") for line in lines)
    values = [line.split()[-1] for line in lines[:2]]
    assert lines[2] == "seed 1 ALL " + hashlib.sha256("".join(values).encode()).hexdigest()
    assert values == [value for _, value in table2_digest.seed_digests(1, limit=2)]


def test_seed_1_cx_and_depth_totals():
    """The seed-1 Table II set compiles to exactly these totals: a change
    that moves outputs must leave the counts alone, or say why."""
    sys.path.insert(0, os.path.join(ROOT, "e2e_bench"))
    from workloads import TARGET, table2_jobs

    from repro.transpiler import AnalysisCache, transpile

    cx = depth = 0
    for job in table2_jobs(1):
        circuit = transpile(
            job.circuit.copy(),
            target=TARGET,
            pipeline=job.pipeline,
            seed=job.seed,
            executor="serial",
            analysis_cache=AnalysisCache(),
        )
        cx += circuit.count_ops().get("cx", 0)
        depth += circuit.depth()
    assert (cx, depth) == (5370, 5721)
