"""Smoke test of ``benchmarks/table34_digest.py``, the bit-identity check
of the Table III and Table IV outputs, and their CX, depth, size and
u-gate totals."""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import table34_digest  # noqa: E402

from repro.circuit import QuantumCircuit  # noqa: E402


def test_inputs_cover_both_tables():
    grover = table34_digest.table_inputs(3)
    qpe = table34_digest.table_inputs(4)
    assert [label for label, _, _ in grover] == [
        f"grover6-vchain-it{iterations}-{mode}"
        for iterations in (2, 4, 6)
        for mode in ("plain", "annot")
    ]
    assert {target for _, target, _ in grover} == {"melbourne"}
    assert [(label, target) for label, target, _ in qpe] == [
        (f"qpe{qubits}-{target}", target)
        for target in ("almaden", "rochester")
        for qubits in (4, 6, 8)
    ]
    assert [circuit.num_qubits for _, _, circuit in qpe] == [4, 6, 8] * 2
    annotated = [circuit for label, _, circuit in grover if label.endswith("annot")]
    assert all(
        any(instruction.operation.name == "annot" for instruction in circuit.data)
        for circuit in annotated
    )
    assert all(isinstance(circuit, QuantumCircuit) for _, _, circuit in grover + qpe)


def test_a_few_jobs_digest_the_same_twice():
    first = table34_digest.table_digests(4, limit=3)
    assert [label for label, _, _ in first] == [
        "qpe4-almaden-level3-s0",
        "qpe4-almaden-level3-s1",
        "qpe4-almaden-rpo-s0",
    ]
    assert all(len(value) == 64 for _, value, _ in first)
    assert all(cx > 0 and depth > 0 for _, _, (cx, depth, *_) in first)
    assert table34_digest.table_digests(4, limit=3) == first


def test_the_command_prints_jobs_totals_and_an_all_line():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "benchmarks/table34_digest.py", "--tables", "4", "--limit", "2"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 4
    jobs = table34_digest.table_digests(4, limit=2)
    assert lines[:2] == [f"table 4 {label} {value}" for label, value, _ in jobs]
    cx, depth = (sum(job[2][index] for job in jobs) for index in (0, 1))
    assert lines[2].startswith(f"table 4 CX {cx} DEPTH {depth} SIZE ")
    assert lines[2] == "table 4 " + table34_digest.totals([job[2] for job in jobs])
    total = hashlib.sha256("".join(job[1] for job in jobs).encode()).hexdigest()
    assert lines[3] == f"table 4 ALL {total}"


def test_totals():
    """Tables III and IV compile to exactly these totals: a change that
    moves outputs must leave the CX and depth counts alone, or say why.
    Size and the u-gate split are pinned too, so a change that moves them
    says so."""
    totals = {
        table: table34_digest.totals([job[2] for job in table34_digest.table_digests(table)])
        for table in (3, 4)
    }
    assert totals == {
        3: "CX 12834 DEPTH 16890 SIZE 27180 U1 8198 U2 5876 U3 128",
        4: "CX 1659 DEPTH 1884 SIZE 3154 U1 561 U2 653 U3 161",
    }
