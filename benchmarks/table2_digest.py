"""Bit-exact digests of every Table II output.

Compiles the ``table2-cold`` job set of ``e2e_bench`` (one fresh
:class:`~repro.transpiler.AnalysisCache` per compile, serial, no result
cache) and prints one sha256 per job: the hash of
:func:`tests.helpers.exact_form` -- every operation's name, wires and
``float.hex`` parameters, in record order, plus the global phase.  Two
commits compile identical circuits exactly when their outputs match line
for line::

    PYTHONPATH=src python benchmarks/table2_digest.py --seeds 1 2 9001

Each seed ends with a ``TOTALS`` line -- the set's CX, depth, size and
``u1``/``u2``/``u3`` totals -- and an ``ALL`` line, the hash of its job
lines, so a parent/change comparison is one ``diff`` of the two outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "e2e_bench"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.transpiler import AnalysisCache, transpile  # noqa: E402
from workloads import TARGET, table2_jobs  # noqa: E402

from tests.helpers import exact_form  # noqa: E402


#: what a totals line sums, in print order
COUNTED = ("CX", "DEPTH", "SIZE", "U1", "U2", "U3")


def digest(circuit) -> str:
    """sha256 of the circuit's exact form."""
    return hashlib.sha256(repr(exact_form(circuit)).encode()).hexdigest()


def counts(circuit) -> tuple[int, ...]:
    """The circuit's :data:`COUNTED` values."""
    ops = circuit.count_ops()
    return (
        ops.get("cx", 0),
        circuit.depth(),
        circuit.size(),
        *(ops.get(name, 0) for name in ("u1", "u2", "u3")),
    )


def totals(rows) -> str:
    """``CX .. DEPTH .. SIZE .. U1 .. U2 .. U3 ..``: the column sums of
    :func:`counts` rows."""
    sums = [sum(row[index] for row in rows) for index in range(len(COUNTED))]
    return " ".join(f"{name} {value}" for name, value in zip(COUNTED, sums))


def seed_digests(seed: int, limit: int | None = None) -> list[tuple[str, str, tuple]]:
    """``(job label, digest, counts)`` of the seed's Table II outputs,
    sorted by label; ``limit`` keeps only the first jobs in label order."""
    jobs = sorted(table2_jobs(seed), key=lambda job: job.label)[:limit]
    lines = []
    for job in jobs:
        circuit = transpile(
            job.circuit.copy(),
            target=TARGET,
            pipeline=job.pipeline,
            seed=job.seed,
            executor="serial",
            analysis_cache=AnalysisCache(),
        )
        lines.append((job.label, digest(circuit), counts(circuit)))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--limit", type=int, default=None, help="first N jobs by label")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        lines = seed_digests(seed, args.limit)
        for label, value, _ in lines:
            print(f"seed {seed} {label} {value}")
        print(f"seed {seed} TOTALS {totals([line[2] for line in lines])}")
        total = hashlib.sha256("".join(line[1] for line in lines).encode()).hexdigest()
        print(f"seed {seed} ALL {total}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
