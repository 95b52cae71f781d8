"""Shared analysis cache for the pass manager.

One :class:`AnalysisCache` instance rides along a pipeline run (stored in
the property set under :attr:`AnalysisCache.PROPERTY_KEY`) and memoizes the
derived data every pass otherwise recomputes from scratch:

* **gate matrices** -- keyed by gate identity (name, parameters, control
  state), so the thousands of ``to_matrix()`` requests the state trackers,
  1q fusion and block consolidation issue per transpilation collapse to one
  construction per distinct gate.  Parameter-free standard gates resolve
  through the immutable module-level table in
  :mod:`repro.gates.matrices` and never count as constructions at all.
* **two-qubit syntheses** -- keyed by a block unitary's exact bytes: its
  minimal CNOT count and, once ``ConsolidateBlocks`` has synthesized it,
  the replacement circuit (or the failure).  Repeat unitaries from the
  fixed-point loop and from repeated blocks cost one synthesis.  Lookups
  come in bulk (:meth:`AnalysisCache.syntheses`): the CNOT counts of all
  new unitaries of a request are one stacked kernel call.

Every entry is keyed by the content it was computed from (a gate's
identity, a unitary's bytes), so no entry can go stale and the cache is
safe to share across pipeline runs -- that sharing is exactly what makes
a second run of the paper's Table II workloads construct far fewer
matrices (see ``tests/transpiler/test_cache.py``).

``stats`` counts hits/misses/uncached requests per family.  Per-pass
rewrite counts deliberately do NOT live here: the cache may be shared by
concurrent runs, so they go into the per-run property set instead (see
:func:`rewrite_counter`), which the pass manager snapshots around each
pass to attach rewrite counts to its metrics.

Entry counts are bounded (FIFO eviction) so a cache shared by a long-lived
service cannot grow without limit.  The cache is a plain in-process memo:
every entry is a pure function of its key, so nothing in it needs to
outlive the process -- each pool worker of a
:class:`~repro.transpiler.service.CompileService` keeps its own.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from repro.circuit.instruction import ControlledGate, Instruction
from repro.linalg.weyl import cnot_budgets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuit.quantumcircuit import QuantumCircuit

__all__ = ["AnalysisCache", "rewrite_counter"]


#: FIFO caps per cache family -- far above any single pipeline's working
#: set, low enough that a cache shared across many runs stays bounded.
_MAX_MATRICES = 4096
#: a synthesis entry holds a replacement circuit (~5 KB); one Table II
#: compile has well under 100 distinct block unitaries
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


def _bounded_insert(table: dict, key, value, limit: int) -> None:
    """Insert with FIFO eviction once ``limit`` entries are reached."""
    if len(table) >= limit:
        table.pop(next(iter(table)))
    table[key] = value

#: Gates whose matrix is fully determined by ``(name, num_qubits, params)``.
#: Anything else (e.g. ``UnitaryGate``, ad-hoc inverses) is left uncached --
#: caching by name would be unsound for gates carrying hidden state.
_CACHEABLE_NAMES = frozenset(
    {
        "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx",
        "u1", "u2", "u3", "rx", "ry", "rz",
        "cx", "cy", "cz", "ch", "cp", "crx", "cry", "crz", "cu3",
        "swap", "swapz", "iswap",
        "ccx", "ccz", "cswap", "mcx", "mcz", "mcu1", "mcx_vchain",
    }
)


def _matrix_key(operation: Instruction):
    """Hashable identity of a gate's unitary, or ``None`` if uncacheable."""
    params = []
    for param in operation.params:
        if isinstance(param, (int, float)) and not isinstance(param, bool):
            params.append(float(param))
        else:
            return None  # matrices, symbols, ... -- not value-keyable
    if isinstance(operation, ControlledGate):
        base_key = _matrix_key(operation.base_gate)
        if base_key is None:
            return None
        return (
            operation.name,
            operation.num_qubits,
            tuple(params),
            operation.ctrl_state,
            base_key,
        )
    if operation.name not in _CACHEABLE_NAMES:
        return None
    return (operation.name, operation.num_qubits, tuple(params))


class SynthesisMemo:
    """One block unitary's synthesis record.

    ``budget`` is :func:`~repro.linalg.weyl.num_cnots_required` of the
    unitary (made in bulk by :meth:`AnalysisCache.syntheses`) -- a lower
    bound on the CNOT count of any re-synthesis.
    ``plan_size`` is ``None`` until the budget plan has been made, then the
    plan's gate count (``math.inf`` when no plan matches).  Once
    ``synthesized`` is set, ``replacement`` holds the synthesized circuit,
    or ``None`` if planning or synthesis failed.  Replacements are shared
    read-only.
    """

    __slots__ = ("budget", "plan_size", "synthesized", "replacement")

    def __init__(self, budget: int):
        self.budget = budget
        self.plan_size: "int | float | None" = None
        self.synthesized = False
        self.replacement: "QuantumCircuit | None" = None


class AnalysisCache:
    """Memoized analysis results shared by the passes of a pipeline run."""

    #: Key under which the pass manager stores the cache in the property set.
    PROPERTY_KEY = "analysis_cache"

    def __init__(self):
        self._matrices: dict = {}
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

    # -- gate matrices -----------------------------------------------------

    def matrix(self, operation: Instruction) -> np.ndarray:
        """Memoized ``operation.to_matrix()``.

        Returned arrays are read-only and shared -- callers must not mutate
        them (compose into fresh arrays instead, as all passes already do).
        """
        if not operation.params and not isinstance(operation, ControlledGate):
            from repro.gates.matrices import standard_gate_matrix

            shared = standard_gate_matrix(operation.name)
            if shared is not None and shared.shape == (2**operation.num_qubits,) * 2:
                self.stats["matrix_table"] += 1
                return shared
        key = _matrix_key(operation)
        if key is None:
            self.stats["matrix_uncached"] += 1
            return operation.to_matrix()
        cached = self._matrices.get(key)
        if cached is not None:
            self.stats["matrix_hits"] += 1
            return cached
        self.stats["matrix_misses"] += 1
        matrix = operation.to_matrix()
        if matrix.flags.writeable:
            matrix.setflags(write=False)
        _bounded_insert(self._matrices, key, matrix, _MAX_MATRICES)
        return matrix

    def matrices(self, operations) -> list[np.ndarray]:
        """Bulk memoized lookup: one matrix per operation, in order.

        The batched passes (block consolidation, 1q-run merging, simulator
        gate fusion) gather *all* their operand matrices up front before one
        stacked reduction; this entry point keeps that gather cheap by
        resolving repeats of the same gate within the request against a
        local memo (one shared-cache probe per distinct gate instead of one
        per occurrence).
        """
        local: dict = {}
        out: list[np.ndarray] = []
        for operation in operations:
            key = _matrix_key(operation)
            if key is None:
                out.append(self.matrix(operation))
                continue
            hit = local.get(key)
            if hit is None:
                hit = self.matrix(operation)
                local[key] = hit
            else:
                self.stats["matrix_hits"] += 1
            out.append(hit)
        return out

    @property
    def matrix_constructions(self) -> int:
        """Matrices actually built on behalf of callers (miss + uncached).

        The seed code path built one matrix per request, i.e. this would
        equal ``matrix_requests``; the gap is the cache's saving.
        """
        return self.stats["matrix_misses"] + self.stats["matrix_uncached"]

    @property
    def matrix_requests(self) -> int:
        return (
            self.stats["matrix_hits"]
            + self.stats["matrix_misses"]
            + self.stats["matrix_uncached"]
            + self.stats["matrix_table"]
        )

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
            created[key] = SynthesisMemo(budget)
            _bounded_insert(self._syntheses, key, created[key], _MAX_SYNTHESES)
        return [created[key] if memo is None else memo for key, memo in zip(keys, memos)]

    def synthesis(self, unitary: np.ndarray) -> SynthesisMemo:
        """The memo record of one 4x4 block unitary: :meth:`syntheses` of
        one item."""
        return self.syntheses([unitary])[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AnalysisCache matrices={len(self._matrices)} "
            f"requests={self.matrix_requests} "
            f"constructions={self.matrix_constructions}>"
        )
