"""Smoke test of ``benchmarks/table2_digest.py``, the bit-identity check of
the Table II outputs and of the synthesis work behind them, and the seed-1
set's CX, depth, size and u-gate totals."""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import table2_digest  # noqa: E402

from repro.circuit import QuantumCircuit  # noqa: E402

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
    labels = [label for label, _, _ in first]
    assert labels == sorted(labels)
    assert len(first) == 3
    assert all(len(value) == 64 for _, value, _ in first)
    assert all(len(counts) == len(table2_digest.COUNTED) for _, _, counts in first)
    assert table2_digest.seed_digests(1, limit=3) == first


def test_counts_are_cx_depth_size_and_u_gates():
    circuit = QuantumCircuit(2)
    circuit.u1(0.1, 0).u2(0.2, 0.3, 1).u3(0.4, 0.5, 0.6, 0).cx(0, 1).u1(0.7, 1).h(0)
    assert table2_digest.counts(circuit) == (1, 4, 6, 2, 1, 1)
    rows = [(1, 2, 3, 4, 5, 6), (10, 20, 30, 40, 50, 60)]
    assert table2_digest.totals(rows) == "CX 11 DEPTH 22 SIZE 33 U1 44 U2 55 U3 66"


def test_work_counts_the_kernel_items_and_restores_the_kernels():
    kernels = [getattr(module, name) for _, module, name in table2_digest.KERNELS]
    with table2_digest.counting_work() as work:
        table2_digest.seed_digests(1, limit=3)
    assert [getattr(module, name) for _, module, name in table2_digest.KERNELS] == kernels
    assert set(work) <= {label for label, _, _ in table2_digest.KERNELS}
    assert work["BUDGET"] > 0
    assert table2_digest.work_line(work) == (
        f"BUDGET {work['BUDGET']} BOUND {work['BOUND']} PLAN {work['PLAN']} SYNTH {work['SYNTH']}"
    )


def test_the_command_prints_one_line_per_job_and_totals():
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
    assert len(lines) == 5
    # every line, the totals included, starts with the seed, so a diff of
    # one seed's lines covers them all
    assert all(line.startswith("seed 1 ") for line in lines)
    with table2_digest.counting_work() as work:
        jobs = table2_digest.seed_digests(1, limit=2)
    values = [line.split()[-1] for line in lines[:2]]
    assert values == [value for _, value, _ in jobs]
    assert lines[2] == "seed 1 TOTALS " + table2_digest.totals([job[2] for job in jobs])
    assert lines[3] == "seed 1 WORK " + table2_digest.work_line(work)
    assert lines[4] == "seed 1 ALL " + hashlib.sha256("".join(values).encode()).hexdigest()


def test_seed_1_totals():
    """The seed-1 Table II set compiles to exactly these totals: a change
    that moves outputs must leave the CX, depth and size counts alone, or
    say why.  The u-gate split is pinned too, so a change that moves it
    says so."""
    rows = [counts for _, _, counts in table2_digest.seed_digests(1)]
    assert table2_digest.totals(rows) == "CX 5370 DEPTH 5721 SIZE 11352 U1 1557 U2 2285 U3 1990"
