"""Shared two-qubit synthesis memo for the pass manager.

One :class:`AnalysisCache` instance rides along a pipeline run (stored in
the property set under :attr:`AnalysisCache.PROPERTY_KEY`) and memoizes
the two-qubit syntheses ``ConsolidateBlocks`` would otherwise redo:
keyed by a block unitary's exact bytes, each record holds the unitary's
minimal CNOT count, a proven lower bound on its budget plan's size and,
once the pass has synthesized it, the replacement circuit (or the
failure).  Repeat unitaries from the fixed-point loop and
from repeated blocks cost one synthesis.  Lookups come in bulk
(:meth:`AnalysisCache.syntheses`): the CNOT counts of all new unitaries of
a request are one stacked kernel call.

Gate matrices are not cached here: every gate memoizes its own, read-only
matrix on first use (:attr:`repro.circuit.instruction.Gate.matrix`), and
the passes carry the same gate objects from pass to pass.

Every entry is keyed by the unitary it was computed from, so no entry can
go stale and the cache is safe to share across pipeline runs (see
``tests/transpiler/test_cache.py``).

``stats`` counts the synthesis decisions (``synth_*``, see
:mod:`repro.transpiler.passes.consolidate`).  Per-pass rewrite counts
deliberately do NOT live here: the cache may be shared by concurrent runs,
so they go into the per-run property set instead (see
:func:`rewrite_counter`), which the pass manager snapshots around each
pass to attach rewrite counts to its metrics.

The entry count is bounded (FIFO eviction) so a cache shared by a
long-lived service cannot grow without limit.  The cache is a plain
in-process memo: every entry is a pure function of its key, so nothing in
it needs to outlive the process -- each pool worker of a
:class:`~repro.transpiler.service.CompileService` keeps its own.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from repro.linalg.two_qubit_synthesis import plan_size_floor
from repro.linalg.weyl import cnot_budgets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuit.quantumcircuit import QuantumCircuit

__all__ = ["AnalysisCache", "rewrite_counter"]


#: FIFO cap: a synthesis entry holds a replacement circuit (~5 KB); one
#: Table II compile has well under 100 distinct block unitaries, and a
#: cache shared across many runs stays bounded.
_MAX_SYNTHESES = 1024


def rewrite_counter(property_set) -> Counter:
    """The per-run rewrite counter, stored in the property set.

    Lives on the property set (one per run) rather than on the shared
    :class:`AnalysisCache` so concurrent runs never see each other's
    counts; the pass manager diffs it around each pass execution.
    """
    counter = None
    if property_set is not None:
        counter = property_set.get("rewrite_counts")
    if not isinstance(counter, Counter):
        counter = Counter()
        if property_set is not None:
            property_set["rewrite_counts"] = counter
    return counter


class SynthesisMemo:
    """One block unitary's synthesis record.

    ``budget`` is :func:`~repro.linalg.weyl.num_cnots_required` of the
    unitary (made in bulk by :meth:`AnalysisCache.syntheses`) -- a lower
    bound on the CNOT count of any re-synthesis.  ``floor`` is a proven
    lower bound on the gate count of the unitary's budget plan: it starts
    at :func:`~repro.linalg.two_qubit_synthesis.plan_size_floor` (a budget
    below 2, which no CX-count tie has, starts at the budget), a
    :func:`~repro.linalg.two_qubit_synthesis.plan_size_bounds` bound
    raises it, and once the plan is made it is ``plan_size``, the plan's
    gate count (``math.inf`` when no plan matches; ``None`` before).  A
    CX-count tie no larger than the floor is rejected.  Once
    ``synthesized`` is set, ``replacement`` holds the synthesized circuit,
    or ``None`` if planning or synthesis failed.  Replacements are shared
    read-only.
    """

    __slots__ = ("budget", "floor", "plan_size", "synthesized", "replacement")

    def __init__(self, budget: int):
        self.budget = budget
        self.floor = plan_size_floor(budget) if budget >= 2 else budget
        self.plan_size: "int | float | None" = None
        self.synthesized = False
        self.replacement: "QuantumCircuit | None" = None


class AnalysisCache:
    """Two-qubit synthesis memo shared by the runs of a pipeline."""

    #: Key under which the pass manager stores the cache in the property set.
    PROPERTY_KEY = "analysis_cache"

    def __init__(self):
        self._syntheses: dict = {}
        self.stats: Counter = Counter()

    @classmethod
    def ensure(cls, property_set) -> "AnalysisCache":
        """The run's cache; installs a fresh one into the property set if
        missing, so directly-invoked passes still share within a run."""
        cache = None
        if property_set is not None:
            cache = property_set.get(cls.PROPERTY_KEY)
        if not isinstance(cache, AnalysisCache):
            cache = cls()
            if property_set is not None:
                property_set[cls.PROPERTY_KEY] = cache
        return cache

    # -- two-qubit syntheses -----------------------------------------------

    def syntheses(self, unitaries) -> list[SynthesisMemo]:
        """The memo records of 4x4 block unitaries, in order, each created
        on first sight.

        The budgets of every unitary not yet memoized come from one stacked
        :func:`~repro.linalg.weyl.cnot_budgets` call (none when every
        unitary is known), with the tolerance
        ``synthesize_two_qubit_unitary`` applies by default, so each equals
        the CNOT count synthesis starts from.  Repeats within the request
        share one record.
        """
        keys = [unitary.tobytes() for unitary in unitaries]
        memos = [self._syntheses.get(key) for key in keys]
        fresh: dict[bytes, int] = {}  # unseen key -> its first position
        for index, memo in enumerate(memos):
            if memo is None:
                fresh.setdefault(keys[index], index)
        if not fresh:
            return memos
        budgets = cnot_budgets([unitaries[index] for index in fresh.values()], atol=1e-7)
        created = {}
        for key, budget in zip(fresh, budgets):
            if len(self._syntheses) >= _MAX_SYNTHESES:  # FIFO eviction
                self._syntheses.pop(next(iter(self._syntheses)))
            created[key] = self._syntheses[key] = SynthesisMemo(budget)
        return [created[key] if memo is None else memo for key, memo in zip(keys, memos)]

    def synthesis(self, unitary: np.ndarray) -> SynthesisMemo:
        """The memo record of one 4x4 block unitary: :meth:`syntheses` of
        one item."""
        return self.syntheses([unitary])[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AnalysisCache syntheses={len(self._syntheses)}>"
