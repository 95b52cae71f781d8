"""Pass-manager framework.

Passes are small objects with a ``run`` method; transformation passes return
a new circuit, analysis passes only write to the shared
:class:`PropertySet`.  A :class:`PassManager` runs its schedule of passes
and flow controllers in order, every scheduled pass once
(``DoWhileController`` implements the fixed-point loop of optimization
level 3, paper Fig. 8 lines 9-10, and runs its passes once per iteration).
All passes share one :class:`~repro.transpiler.cache.AnalysisCache`
(two-qubit syntheses), installed in the property set; pass a cache into
:meth:`PassManager.run` to share it across runs.

Each run produces a :class:`TranspileResult` carrying the output circuit,
the property set, structured per-pass metrics (:class:`PassMetrics`: time,
gate/depth delta, rewrites applied) and per-loop metrics
(:class:`LoopMetrics`: iteration count, per-iteration times, convergence).

Runs can execute under the QSAN translation-validation sanitizer
(:mod:`repro.analysis.qsan`): pass ``validate="full"`` to
:meth:`PassManager.run_with_result` (or export ``REPRO_QSAN=1``) and every
pass is checked -- a transformation pass for semantic equivalence of its
input and output under its ``equivalence`` contract, an analysis pass for
leaving the circuit alone; a violating pass raises a structured
:class:`~repro.analysis.qsan.ContractViolation`.
``PassManager.run`` is side-effect free with respect to the manager --
concurrent runs of one manager do not race; a run's properties live only
on the :class:`TranspileResult` it returns.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.circuit.quantumcircuit import NO_PHASE, QuantumCircuit
from repro.transpiler.cache import AnalysisCache, rewrite_counter
from repro.transpiler.exceptions import TranspilerError

__all__ = [
    "PropertySet",
    "run_scratch",
    "BasePass",
    "AnalysisPass",
    "TransformationPass",
    "RecordEdits",
    "DoWhileController",
    "PassManager",
    "PassMetrics",
    "LoopMetrics",
    "TranspileResult",
]


def qsan_mode(validate: str | None = None) -> str:
    """The QSAN mode of one run: ``"off"`` or ``"full"``.

    An explicit ``validate`` wins; ``None`` reads ``REPRO_QSAN``
    (``1``/``full`` -> full, unset/``0``/``off`` -> off).  Any other
    value raises :class:`TranspilerError`.
    """
    mode = validate
    if mode is None:
        raw = os.environ.get("REPRO_QSAN", "").strip().lower()
        mode = {"": "off", "0": "off", "1": "full"}.get(raw, raw)
    if mode not in ("off", "full"):
        raise TranspilerError(
            f"unrecognized QSAN mode {mode!r}; expected 'off' or 'full'"
        )
    return mode


class PropertySet(dict):
    """Shared key-value store that passes use to communicate."""


#: property-set key of :func:`run_scratch`
SCRATCH_KEY = "run_scratch"


def run_scratch(property_set: PropertySet) -> dict:
    """What passes keep between their own runs within one pipeline run.

    It lives on the run's property set: never on a pass, whose manager may
    run concurrently, nor on the analysis cache, which runs may share and
    which must not change outputs.  :meth:`PassManager.run_with_result`
    drops it when the run ends, so it never reaches a result.
    """
    return property_set.setdefault(SCRATCH_KEY, {})


@dataclass
class PassMetrics:
    """Structured record of one pass execution."""

    name: str
    time: float
    size_before: int
    size_after: int
    depth_before: int
    depth_after: int
    rewrites: int = 0
    #: contract/equivalence violations QSAN attributed to this execution
    #: (always 0 when the sanitizer is off)
    violations: int = 0

    @property
    def size_delta(self) -> int:
        return self.size_after - self.size_before

    @property
    def depth_delta(self) -> int:
        return self.depth_after - self.depth_before


@dataclass
class LoopMetrics:
    """Cost profile of one ``DoWhileController`` execution.

    The fixed-point loop is the paper's transpile-time mechanism: RPO's
    early rewrites shrink the circuit every iteration sees, so the loop's
    per-iteration times are the first place its speed-up shows up.
    """

    name: str
    iterations: int
    converged: bool
    iteration_times: list[float] = field(default_factory=list)
    time: float = 0.0


@dataclass
class TranspileResult:
    """Everything a pipeline run produced."""

    circuit: QuantumCircuit
    properties: PropertySet
    metrics: list[PassMetrics] = field(default_factory=list)
    loops: list[LoopMetrics] = field(default_factory=list)
    time: float = 0.0
    #: QSAN findings (:class:`repro.analysis.qsan.ContractViolation`),
    #: populated only in report mode -- strict mode raises instead
    violations: list = field(default_factory=list)

    @property
    def analysis_cache(self) -> AnalysisCache | None:
        cache = self.properties.get(AnalysisCache.PROPERTY_KEY)
        return cache if isinstance(cache, AnalysisCache) else None


class BasePass:
    """Common base class for transpiler passes.

    ``equivalence`` names the semantic contract QSAN holds the pass to:
    ``"unitary"`` (exact unitary equivalence up to global phase, the
    default), ``"state"`` (equivalence from the all-zeros initial state
    only -- the paper's relaxed-precondition passes), ``"permutation"``
    (equivalent up to the wire relabeling in ``final_permutation``),
    ``"layout"`` (equivalent up to embedding per the ``layout`` property),
    ``"measurement"`` (measurement-outcome distributions match) or
    ``"none"`` (no semantic check).
    """

    equivalence: str = "unitary"

    @property
    def name(self) -> str:
        return type(self).__name__

    def run(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.name}>"


class AnalysisPass(BasePass):
    """A pass that computes properties but leaves the circuit unchanged."""

    equivalence = "identity"

    def analyze(self, circuit: QuantumCircuit, property_set: PropertySet) -> None:
        raise NotImplementedError

    def run(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        self.analyze(circuit, property_set)
        return circuit


class TransformationPass(BasePass):
    """A pass that rewrites the circuit."""

    def transform(
        self, circuit: QuantumCircuit, property_set: PropertySet
    ) -> QuantumCircuit:
        raise NotImplementedError

    def run(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        return self.transform(circuit, property_set)


class RecordEdits:
    """The :meth:`QuantumCircuit.splice` edits of a pass that rewrites its
    input one record at a time: :meth:`visit` opens a record, and
    :meth:`append` and :meth:`add_phase` take what it becomes.  Appending
    the open record's own operation on its own wires carries that record,
    and a record that becomes just itself makes no edit."""

    def __init__(self):
        self.edits: list = []
        self._index = self._record = None
        self._items: list = []  # what the open record becomes
        self._terms: list = []  # and its phase terms, in order

    def visit(self, index: int | None, record) -> None:
        last, items, terms = self._index, self._items, self._terms
        if terms or len(items) != 1 or items[0] != last:
            if last is not None:
                self.edits.append(((last,), last, items, terms[0] if terms else NO_PHASE))
                self.edits.extend(((), last, (), term) for term in terms[1:])
            self._items, self._terms = [], []
        else:
            items.clear()  # the record stayed itself: no edit
        self._index, self._record = index, record

    def append(self, operation, qubits, clbits=()) -> None:
        record = self._record
        if operation is record.operation and qubits == record.qubits and clbits == record.clbits:
            self._items.append(self._index)
        else:
            self._items.append((operation, qubits, clbits))

    def add_phase(self, term: float) -> None:
        self._terms.append(term)

    def close(self) -> list:
        self.visit(None, None)
        return self.edits

    @property
    def rewrites(self) -> int:
        """The visited records not carried as themselves: one edit each."""
        return sum(1 for removed, *_ in self.edits if removed)


class DoWhileController:
    """Repeats a pass sequence while ``condition(property_set)`` holds."""

    def __init__(
        self,
        passes: Sequence[BasePass],
        do_while: Callable[[PropertySet], bool],
        max_iterations: int = 100,
    ):
        self.passes = list(passes)
        self.do_while = do_while
        self.max_iterations = max_iterations

    @property
    def name(self) -> str:
        inner = ",".join(p.name for p in self.passes)
        return f"DoWhile[{inner}]"


class _RunState:
    """Book-keeping for one pipeline run (never stored on the manager)."""

    __slots__ = (
        "properties",
        "metrics",
        "loops",
        "size",
        "depth",
        "validator",
        "violations",
    )

    def __init__(self, properties: PropertySet, validator=None):
        self.properties = properties
        self.metrics: list[PassMetrics] = []
        self.loops: list[LoopMetrics] = []
        self.size: int | None = None  # memoized metrics of the live circuit
        self.depth: int | None = None
        self.validator = validator  # QsanValidator or None
        self.violations: list = []


def _unchanged(before: QuantumCircuit, after: QuantumCircuit) -> bool:
    """True when ``after`` is structurally identical to ``before``."""
    if after is before:
        return True
    if (
        after.num_qubits != before.num_qubits
        or after.num_clbits != before.num_clbits
        or len(after.data) != len(before.data)
        or abs(after.global_phase - before.global_phase) > 1e-12
    ):
        return False
    return after.data == before.data


class PassManager:
    """Runs a schedule of passes over a circuit."""

    def __init__(self, passes: Iterable[BasePass | DoWhileController] | None = None):
        self._schedule: list[BasePass | DoWhileController] = list(passes or [])

    def append(self, item: BasePass | DoWhileController | Sequence[BasePass]) -> None:
        if isinstance(item, (BasePass, DoWhileController)):
            self._schedule.append(item)
        else:
            self._schedule.extend(item)

    @property
    def passes(self) -> list[BasePass | DoWhileController]:
        return list(self._schedule)

    def run(
        self,
        circuit: QuantumCircuit,
        property_set: PropertySet | None = None,
        analysis_cache: AnalysisCache | None = None,
    ) -> QuantumCircuit:
        """Execute the schedule; returns the transformed circuit.

        A convenience front over :meth:`run_with_result` -- metrics and
        properties live on the returned result object there.
        """
        return self.run_with_result(
            circuit, property_set=property_set, analysis_cache=analysis_cache
        ).circuit

    def run_with_result(
        self,
        circuit: QuantumCircuit,
        property_set: PropertySet | None = None,
        analysis_cache: AnalysisCache | None = None,
        validate: str | None = None,
    ) -> TranspileResult:
        """Execute the schedule and return the full :class:`TranspileResult`.

        ``analysis_cache`` may be shared across runs (and across managers):
        repeated workloads then skip most matrix constructions and circuit
        analyses.  All run state is local to the call.

        ``validate`` turns on the QSAN sanitizer for this run: ``"full"``
        (every pass checked) or ``"off"``.  ``None`` defers to the
        ``REPRO_QSAN`` environment variable (see :mod:`repro.analysis.qsan`).
        """
        properties = property_set if property_set is not None else PropertySet()
        cache = analysis_cache
        if cache is None:
            existing = properties.get(AnalysisCache.PROPERTY_KEY)
            cache = existing if isinstance(existing, AnalysisCache) else AnalysisCache()
        properties[AnalysisCache.PROPERTY_KEY] = cache
        validator = None
        if qsan_mode(validate) == "full":
            # lazy import: the sanitizer is opt-in and pulls the simulators
            from repro.analysis.qsan import QsanConfig, QsanValidator

            validator = QsanValidator(QsanConfig.resolve("full"))
        state = _RunState(properties, validator=validator)
        start = time.perf_counter()
        try:
            for item in self._schedule:
                circuit = self._run_item(item, circuit, state)
        finally:
            properties.pop(SCRATCH_KEY, None)
        return TranspileResult(
            circuit=circuit,
            properties=properties,
            metrics=state.metrics,
            loops=state.loops,
            time=time.perf_counter() - start,
            violations=state.violations,
        )

    # ------------------------------------------------------------------

    def _run_item(self, item, circuit, state: _RunState):
        if isinstance(item, DoWhileController):
            loop_start = time.perf_counter()
            iteration_times: list[float] = []
            converged = False
            for _ in range(item.max_iterations):
                iteration_start = time.perf_counter()
                for inner in item.passes:
                    circuit = self._run_pass(inner, circuit, state)
                iteration_times.append(time.perf_counter() - iteration_start)
                if not item.do_while(state.properties):
                    converged = True
                    break
            loop = LoopMetrics(
                name=item.name,
                iterations=len(iteration_times),
                converged=converged,
                iteration_times=iteration_times,
                time=time.perf_counter() - loop_start,
            )
            state.loops.append(loop)
            return circuit
        return self._run_pass(item, circuit, state)

    def _run_pass(self, pass_, circuit, state: _RunState):
        properties = state.properties
        if state.size is None:
            state.size = circuit.size()
            state.depth = circuit.depth()
        size_before, depth_before = state.size, state.depth

        rewrites_before = rewrite_counter(properties)[pass_.name]
        start = time.perf_counter()
        if state.validator is None:
            result = pass_.run(circuit, properties)
        else:
            with state.validator.watch():
                result = pass_.run(circuit, properties)
        elapsed = time.perf_counter() - start
        if result is None:
            raise TranspilerError(
                f"pass {pass_.name} returned None instead of a circuit"
            )

        changed = not _unchanged(circuit, result)
        if changed:
            state.size = result.size()
            state.depth = result.depth()

        found = []
        if state.validator is not None:
            found = state.validator.check_pass(pass_, circuit, result, properties, changed)
            state.violations.extend(found)
        state.metrics.append(
            PassMetrics(
                name=pass_.name,
                time=elapsed,
                size_before=size_before,
                size_after=state.size,
                depth_before=depth_before,
                depth_after=state.depth,
                rewrites=rewrite_counter(properties)[pass_.name] - rewrites_before,
                violations=len(found),
            )
        )
        if found and not state.validator.config.report_only:
            raise found[0]
        return result
