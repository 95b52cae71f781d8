"""Bit-exact digests of the Table III and Table IV outputs.

The companion of ``table2_digest.py`` for the two tables whose paper
claims live in their outputs: annotations (Table III, Sec. VIII-C) and
connectivity (Table IV, Sec. VIII-D).  Every job compiles with a fresh
:class:`~repro.transpiler.AnalysisCache`, serially, under ``level3`` and
``rpo`` with routing seeds 0 and 1:

* Table III -- 6-qubit Grover with a clean-ancilla V-chain oracle at 2, 4
  and 6 iterations, with and without ``ANNOT`` annotations, on Melbourne;
* Table IV -- QPE on 4, 6 and 8 qubits on Almaden and Rochester.

It prints one sha256 per output (of :func:`tests.helpers.exact_form`, as
``table2_digest.py`` does), then per table the CX, depth, size and
``u1``/``u2``/``u3`` totals and an ``ALL`` hash of the table's job lines,
so a parent/change comparison is one ``diff`` of the two outputs::

    PYTHONPATH=src python benchmarks/table34_digest.py
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.algorithms import grover_circuit, quantum_phase_estimation  # noqa: E402
from repro.transpiler import AnalysisCache, transpile  # noqa: E402
from table2_digest import counts, digest, totals  # noqa: E402

PIPELINES = ("level3", "rpo")
SEEDS = (0, 1)


def table_inputs(table: int) -> list[tuple[str, str, object]]:
    """``(label, target, circuit)`` of every input of Table III or IV."""
    if table == 3:
        return [
            (
                f"grover6-vchain-it{iterations}-{'annot' if annotate else 'plain'}",
                "melbourne",
                grover_circuit(6, iterations=iterations, design="vchain", annotate=annotate),
            )
            for iterations in (2, 4, 6)
            for annotate in (False, True)
        ]
    if table == 4:
        return [
            (f"qpe{qubits}-{target}", target, quantum_phase_estimation(qubits - 1))
            for target in ("almaden", "rochester")
            for qubits in (4, 6, 8)
        ]
    raise ValueError(f"no digest for table {table}")


def table_digests(table: int, limit: int | None = None) -> list[tuple[str, str, tuple]]:
    """``(job label, digest, counts)`` of the table's outputs in job order
    (``counts`` as :func:`table2_digest.counts` gives them); ``limit``
    keeps only the first jobs."""
    jobs = [
        (f"{label}-{pipeline}-s{seed}", target, circuit, pipeline, seed)
        for label, target, circuit in table_inputs(table)
        for pipeline in PIPELINES
        for seed in SEEDS
    ][:limit]
    lines = []
    for label, target, circuit, pipeline, seed in jobs:
        output = transpile(
            circuit.copy(),
            target=target,
            pipeline=pipeline,
            seed=seed,
            executor="serial",
            analysis_cache=AnalysisCache(),
        )
        lines.append((label, digest(output), counts(output)))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tables", type=int, nargs="+", default=[3, 4], choices=[3, 4])
    parser.add_argument("--limit", type=int, default=None, help="first N jobs per table")
    args = parser.parse_args(argv)
    for table in args.tables:
        lines = table_digests(table, args.limit)
        for label, value, _ in lines:
            print(f"table {table} {label} {value}")
        total = hashlib.sha256("".join(line[1] for line in lines).encode()).hexdigest()
        print(f"table {table} {totals([line[2] for line in lines])}")
        print(f"table {table} ALL {total}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
