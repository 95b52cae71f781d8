"""No pass moves a record it keeps.

Every :meth:`~repro.circuit.QuantumCircuit.splice` edit a pipeline pass
makes either changes only the phase (it removes and inserts nothing) or
puts its replacement at the last record it removes.  So every record a
pass keeps stays where it was among its neighbours, and a rewrite sits in
the window it came from.  Checked on every pass run of the seed-1 Table II
compiles under each paper pipeline.
"""

import os
import sys
from collections import Counter

import pytest

from repro.circuit.quantumcircuit import SPLICE_LOG
from repro.transpiler import AnalysisCache, transpile
from repro.transpiler.passmanager import TransformationPass

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "e2e_bench"))
from workloads import TARGET, table2_jobs  # noqa: E402


def in_place(edit) -> bool:
    removed, at, replacement, _ = edit
    if not removed:
        return not replacement
    return at == max(removed)


def pipeline_edits(pipeline: str, monkeypatch) -> list[tuple[str, tuple]]:
    """``(pass name, edit)`` of every splice edit of the seed-1 Table II
    compiles under ``pipeline``."""
    edits = []
    run = TransformationPass.run

    def logged(self, circuit, property_set):
        log = []
        token = SPLICE_LOG.set(log)
        try:
            return run(self, circuit, property_set)
        finally:
            SPLICE_LOG.reset(token)
            edits.extend((self.name, edit) for _, _, splice in log for edit in splice)

    monkeypatch.setattr(TransformationPass, "run", logged)
    for job in table2_jobs(1, pipelines=(pipeline,)):
        transpile(
            job.circuit.copy(),
            target=TARGET,
            pipeline=job.pipeline,
            seed=job.seed,
            executor="serial",
            analysis_cache=AnalysisCache(),
        )
    return edits


@pytest.mark.parametrize("pipeline", ["level3", "hoare", "rpo", "rpo_ext"])
def test_every_edit_inserts_at_its_last_removed_record(pipeline, monkeypatch):
    edits = pipeline_edits(pipeline, monkeypatch)
    assert [(name, edit[:2]) for name, edit in edits if not in_place(edit)] == []
    # the passes that merge records did: the check is not vacuous
    merging = Counter(name for name, (removed, *_) in edits if len(removed) > 1)
    assert merging["ConsolidateBlocks"] > 0
    assert merging["Optimize1qGates"] > 0
    if pipeline == "rpo_ext":  # QPO's block phase
        assert merging["QPO"] > 0


@pytest.mark.parametrize(
    "edit, expected",
    [
        (((), 3, (), 0.5), True),
        (((2, 5), 5, (), 0.0), True),
        (((5, 2), 5, ((None, (0,), ()),), 0.0), True),
        (((2, 5), 2, (), 0.0), False),
        (((2, 5), 6, ((None, (0,), ()),), 0.0), False),
        (((), 3, ((None, (0,), ()),), 0.0), False),
    ],
)
def test_in_place(edit, expected):
    assert in_place(edit) is expected
