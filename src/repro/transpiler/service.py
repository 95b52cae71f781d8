"""A long-lived compile service with a persistent worker pool.

:class:`CompileService` is the parallel and serving-shaped way to
compile: :func:`repro.transpiler.frontend.transpile` compiles in-process,
one circuit after another, and a caller that wants cores or a warm
result cache hands it a service (``transpile(..., service=...)``) or
submits to one directly.  A service owns its pool for its whole lifetime
and amortizes pool start-up and interpreter imports across every batch
submitted to it:

* **persistent pool** -- worker processes are created once, lazily on
  first submission, and reused until :meth:`CompileService.shutdown`.
  Each worker process keeps its own long-lived
  :class:`~repro.transpiler.cache.AnalysisCache`, a plain in-process memo
  that warms with every job the worker compiles; only its synthesis
  ``stats`` travel back (with each chunk's results), so the service
  cache's counters cover every worker;
* **async submission queue** -- :meth:`CompileService.submit` returns a
  :class:`concurrent.futures.Future` immediately; :meth:`CompileService.map`
  is the batch convenience that preserves input order.  Work from many
  callers interleaves on one pool;
* **compiled-result cache** -- every cacheable job is looked up in a
  :class:`~repro.transpiler.result_cache.ResultCache` before it reaches
  the pool; give the service a ``snapshot_path`` and that cache is
  restored from the file at construction and persisted there on
  shutdown.  Snapshots are fingerprint-versioned: a file written by a
  different library version (or by an older snapshot format) is skipped
  with a :class:`RuntimeWarning` and the service starts cold;
* **per-job targets** -- every submission carries its own
  :class:`~repro.transpiler.target.Target`, so one service (and one batch)
  compiles circuits for many different devices; job envelopes ship compact
  circuit/target payloads (:mod:`repro.circuit.serialization`), and
  workers memoize rebuilt targets so a coupling map's derived data is
  computed once per distinct target per worker.

Two modes produce identical circuits: ``"process"`` (the default,
compilation scales with cores) and ``"serial"`` (inline execution in the
submitting thread, no pool at all).

Every submission takes **one job path**.  :meth:`CompileService.submit`,
:meth:`CompileService.map` and :meth:`CompileService.submit_payloads`
resolve their jobs the same way (the batch normalized by
:func:`~repro.transpiler.target.normalize_batch`, the target resolved by
:func:`resolve_target`, the settings merged over the service defaults)
and hand them to one dispatch routine.  Serial mode compiles each job
inline through :func:`compile_job`, which serves it from the result cache
when it can; process mode serves every job it can from the result cache,
then ships the misses to the pool as chunked job envelopes (several jobs
per pool task, sized by :meth:`CompileService.chunk_size_for`) so huge
batches of cheap circuits amortize per-task envelope overhead.  Each job
inside a chunk still gets its own future and its own error, so one bad
circuit never poisons its chunk-mates.  :func:`resolve_target` is the one
target rule: ``transpile()`` applies it to in-process batches, and the
remote client (:mod:`repro.server`) resolves with it too and rebuilds
results with the same :func:`result_from_payload`.

Services can also keep their result cache **crash-safe**: pass
``autosave_interval=N`` (seconds) together with ``snapshot_path`` and a
daemon timer periodically persists the snapshot atomically
(write-then-rename), instead of only at shutdown.  A failed autosave is
counted (``stats()["autosave_failures"]``, with the last reason) and the
timer keeps re-arming.  The HTTP compile server (:mod:`repro.server`)
relies on this for warm restarts after a crash.

Typical lifecycle::

    from repro.transpiler import CompileService, Target

    with CompileService(pipeline="rpo", snapshot_path="results.snap") as service:
        futures = [service.submit(c, target="melbourne") for c in circuits]
        results = [f.result() for f in futures]
        # ... more batches; the pool and caches stay warm ...
    # __exit__ drains the pool and persists the result-cache snapshot
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from collections import Counter
from concurrent.futures import Future, InvalidStateError, ProcessPoolExecutor
from typing import Sequence

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.circuit.serialization import circuit_from_payload, circuit_to_payload
from repro.transpiler.cache import AnalysisCache
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.passmanager import PropertySet, TranspileResult
from repro.transpiler.result_cache import ResultCache
from repro.transpiler.target import Target, normalize_batch

__all__ = [
    "CompileService",
    "SERVICE_MODES",
    "compile_job",
    "resolve_target",
    "result_from_payload",
    "result_payload",
]

SERVICE_MODES = ("process", "serial")

#: Key under which the job's target is recorded in result properties.
TARGET_PROPERTY = "target"

#: Result-property key marking a job served from the compiled-result
#: cache: ``"hit"`` (exact key) or ``"template"`` (parameter re-binding).
#: Absent on freshly-compiled results.
CACHE_PROPERTY = "result_cache"

#: FIFO cap on rebuilt Target objects memoized per worker -- bounded like
#: every other cache in the codebase, so a long-lived service cannot grow
#: without limit.
_WORKER_TARGET_MEMO_MAX = 64

#: Upper bound on jobs per chunked envelope -- large enough to amortize
#: dispatch, small enough that one chunk never monopolizes a worker.
_CHUNK_MAX_JOBS = 64


def default_workers(max_workers: int | None) -> int:
    """Pool width: caller's choice, else one worker per core but one."""
    if max_workers is not None:
        return max_workers
    return max(1, (os.cpu_count() or 2) - 1)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------------
# worker side
#
# Each worker process owns one long-lived AnalysisCache and a memo of
# rebuilt targets; each job ships a compact circuit payload, a compact
# target payload and the per-job pipeline settings.  Results come back as
# payloads plus the worker cache's stats increment since its last chunk.
# ---------------------------------------------------------------------------

_WORKER_STATE: dict | None = None


def _service_worker_init() -> None:
    global _WORKER_STATE
    _WORKER_STATE = {"cache": AnalysisCache(), "stats_sent": Counter(), "targets": {}}


def _sanitize_properties(properties: PropertySet) -> dict:
    """A picklable copy of a run's property set.

    The analysis cache is stripped (it stays with the process that owns
    it); any other unpicklable value is dropped and recorded under
    ``"_dropped_properties"`` so callers can tell the set is partial.
    """
    sanitized: dict = {}
    dropped: list[str] = []
    for key, value in properties.items():
        if key == AnalysisCache.PROPERTY_KEY:
            continue
        try:
            pickle.dumps(value)
        except Exception:
            dropped.append(key)
        else:
            sanitized[key] = value
    if dropped:
        sanitized["_dropped_properties"] = dropped
    return sanitized


def _run_job(circuit: QuantumCircuit, target: Target, settings: dict, cache):
    """Compile one circuit for one target; shared by every mode."""
    from repro.transpiler.frontend import pass_manager_for

    manager = pass_manager_for(
        settings["pipeline"],
        target,
        optimization_level=settings["optimization_level"],
        seed=settings["seed"],
        initial_layout=settings["initial_layout"],
    )
    return manager.run_with_result(
        circuit,
        PropertySet(),
        analysis_cache=cache,
        validate=settings.get("validate"),
    )


def resolve_target(circuit, target, default: Target | None) -> Target:
    """The target one job compiles for, on every compile front.

    An explicit ``target`` (anything :meth:`Target.coerce` accepts) wins,
    then the front's configured ``default``, then the shared all-to-all
    preset of the circuit's width.  ``transpile()``, :class:`CompileService`
    and the remote client (:mod:`repro.server`) all resolve through it.
    """
    if not isinstance(circuit, QuantumCircuit):
        raise TranspilerError(
            f"compile jobs take QuantumCircuit inputs, got {type(circuit).__name__}"
        )
    if target is not None:
        return Target.coerce(target)
    if default is not None:
        return default
    return Target.preset(f"full:{circuit.num_qubits}")


def result_payload(result: TranspileResult) -> tuple:
    """A result's compact, picklable form: what a pool worker ships back,
    what the result cache stores and what the compile server replies."""
    return (
        circuit_to_payload(result.circuit),
        result.metrics,
        result.loops,
        result.time,
        _sanitize_properties(result.properties),
    )


def result_from_payload(
    value: tuple, target: Target, extra: dict | None = None
) -> TranspileResult:
    """A :class:`TranspileResult` from its compact form (see
    :func:`result_payload`).

    The one rebuild every front shares: the service (pool answers and
    result-cache serves) and the remote client (wire replies).  The job's
    ``target`` is re-attached, and ``extra`` adds the properties the
    caller owns: its analysis cache or the cache disposition.
    """
    payload, metrics, loops, elapsed, props = value
    properties = PropertySet(props)
    properties[TARGET_PROPERTY] = target
    if extra:
        properties.update(extra)
    return TranspileResult(
        circuit=circuit_from_payload(payload),
        properties=properties,
        metrics=metrics,
        loops=loops,
        time=elapsed,
    )


def _cache_address(result_cache, circuit_payload, target_payload, settings):
    """The result-cache address of one job, or ``None`` if uncacheable.

    Only the settings that change what circuit comes out -- pipeline,
    optimization level and seed -- take part in the address.  Jobs
    carrying an ``initial_layout`` bypass the cache entirely (layouts are
    mutable objects with no canonical content form).
    """
    if result_cache is None or settings.get("initial_layout") is not None:
        return None
    options = (
        settings.get("pipeline"),
        settings.get("optimization_level"),
        settings.get("seed"),
    )
    return (circuit_payload, target_payload, options)


def compile_job(
    circuit: QuantumCircuit,
    target: Target,
    settings: dict,
    cache: AnalysisCache,
    result_cache: ResultCache | None = None,
) -> TranspileResult:
    """Compile one job in the calling thread, result-cache aware.

    The in-process path of :func:`~repro.transpiler.frontend.transpile`
    and of a serial-mode :class:`CompileService`.  With a
    ``result_cache``, a cacheable job pays one payload conversion to
    consult it: on a hit the pipeline never runs (the result carries
    :data:`CACHE_PROPERTY`), on a miss the compiled answer is stored for
    the next identical (or parameter-varied) request.
    """
    address = None
    if result_cache is not None:
        address = _cache_address(
            result_cache, circuit_to_payload(circuit), target.to_payload(), settings
        )
        if address is not None:
            found = result_cache.lookup(*address)
            if found is not None:
                value, kind = found
                return result_from_payload(
                    value,
                    target,
                    {AnalysisCache.PROPERTY_KEY: cache, CACHE_PROPERTY: kind},
                )
    result = _run_job(circuit, target, settings, cache)
    if address is not None:
        result_cache.store(*address, result_payload(result))
    result.properties[TARGET_PROPERTY] = target
    return result


def _worker_target(state: dict, target_payload: tuple) -> Target:
    """Rebuild (or recall) the job's target, memoized per worker."""
    targets = state["targets"]
    target = targets.get(target_payload)
    if target is None:
        target = Target.from_payload(target_payload)
        if len(targets) >= _WORKER_TARGET_MEMO_MAX:
            targets.pop(next(iter(targets)))
        targets[target_payload] = target
    return target


def _picklable_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a faithful stand-in.

    Chunk results travel back through the pool's pickle channel; an
    unpicklable exception there would fail the *transport* and take the
    whole chunk's futures down with it, so it is replaced before
    shipping."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return TranspilerError(f"job failed: {type(exc).__name__}: {exc}")
    return exc


def _service_chunk(jobs: tuple) -> tuple:
    """Process-pool entry point: a chunk of job payloads in, per-job
    outcomes + the worker cache's stats increment out.

    Each job's outcome is ``("ok", result_payloads)`` or
    ``("error", exception)`` -- a failing job only fails itself, never its
    chunk-mates.  The stats increment is a plain :class:`Counter` of the
    cache's synthesis counters accrued since the worker's previous chunk;
    cache entries never leave the worker.
    """
    state = _WORKER_STATE
    assert state is not None, "service worker was not initialized"
    cache = state["cache"]
    outcomes = []
    for circuit_payload, target_payload, settings in jobs:
        try:
            target = _worker_target(state, target_payload)
            circuit = circuit_from_payload(circuit_payload)
            result = _run_job(circuit, target, settings, cache)
            outcomes.append(("ok", result_payload(result)))
        except Exception as exc:  # noqa: BLE001 - relayed to the caller
            outcomes.append(("error", _picklable_exception(exc)))
    increment = cache.stats - state["stats_sent"]
    state["stats_sent"] = Counter(cache.stats)
    return outcomes, increment


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------


class CompileService:
    """A long-lived compile service owning a persistent worker pool."""

    def __init__(
        self,
        *,
        mode: str = "process",
        max_workers: int | None = None,
        pipeline: str | None = None,
        optimization_level: int | None = None,
        target: Target | str | None = None,
        initial_layout=None,
        analysis_cache: AnalysisCache | None = None,
        result_cache: ResultCache | None | bool = None,
        validate: str | None = None,
        snapshot_path=None,
        autosave_interval: float = 0.0,
    ):
        """Args:
            mode: ``"process"`` (default) or ``"serial"``.
            max_workers: pool width, a positive int (default: CPU count - 1).
            pipeline / optimization_level / target / initial_layout /
                validate: defaults applied to submissions that do not
                override them (``"preset"`` / level 1 when left unset);
                ``target`` accepts anything :meth:`Target.coerce` does (a
                :class:`Target`, a preset name like ``"melbourne"``, a
                backend or a :class:`CouplingMap`).
            analysis_cache: the cache serial jobs run against and whose
                ``stats`` also count process workers' hits and misses;
                defaults to a fresh one.
            result_cache: the content-addressed compiled-result cache
                consulted before any job reaches the pool
                (:class:`~repro.transpiler.result_cache.ResultCache`).
                ``None`` (the default) or ``True`` creates a fresh one -- the
                service caches answers out of the box; pass ``False`` to
                disable result caching entirely, or share one cache object
                across services.  Any other value raises
                :class:`TranspilerError`.
            snapshot_path: the result cache's snapshot file -- loaded (if
                present and version-compatible) at construction, written
                back on :meth:`shutdown`.
            autosave_interval: seconds between periodic background saves
                of the result-cache snapshot to ``snapshot_path`` (a daemon
                timer; each save writes atomically).  0 (the default)
                saves at shutdown only.
        """
        if mode not in SERVICE_MODES:
            raise TranspilerError(
                f"unknown service mode {mode!r}; choose one of "
                f"{', '.join(SERVICE_MODES)}"
            )
        if max_workers is not None and (
            isinstance(max_workers, bool)
            or not isinstance(max_workers, int)
            or max_workers < 1
        ):
            raise TranspilerError(
                f"max_workers must be None or a positive int, got {max_workers!r}"
            )
        self.mode = mode
        self.max_workers = max_workers
        self.snapshot_path = snapshot_path
        self.cache = analysis_cache if analysis_cache is not None else AnalysisCache()
        if result_cache is None or result_cache is True:
            self.result_cache: ResultCache | None = ResultCache()
        elif result_cache is False:
            self.result_cache = None
        elif isinstance(result_cache, ResultCache):
            self.result_cache = result_cache
        else:
            raise TranspilerError(
                "result_cache must be a ResultCache, True, False or None, "
                f"got {type(result_cache).__name__}"
            )
        self._defaults = {
            "pipeline": pipeline if pipeline is not None else "preset",
            "optimization_level": (
                optimization_level if optimization_level is not None else 1
            ),
            "initial_layout": initial_layout,
            "seed": None,
            "validate": validate,
        }
        self._default_target = Target.coerce(target) if target is not None else None
        self._pool = None
        self._pool_workers = 0
        self._lock = threading.RLock()
        self._shutdown = False
        self._started = time.monotonic()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._chunks = 0
        self._autosaves = 0
        self._autosave_failures = 0
        self._autosave_error: str | None = None
        self._autosave_timer: threading.Timer | None = None
        self._cache_hits = 0
        self._cache_template_hits = 0
        self._result_entries_loaded = 0
        if snapshot_path is not None and self.result_cache is not None:
            self._result_entries_loaded = self.result_cache.load_snapshot(
                snapshot_path
            )
        self.autosave_interval = float(autosave_interval)
        if snapshot_path is not None and self.autosave_interval > 0:
            self._schedule_autosave()

    @property
    def default_target(self) -> Target | None:
        """The target applied to submissions that name none."""
        return self._default_target

    # -- pool management ---------------------------------------------------

    def _ensure_pool(self):
        with self._lock:
            if self._shutdown:
                raise TranspilerError("CompileService has been shut down")
            if self._pool is None and self.mode == "process":
                workers = default_workers(self.max_workers)
                self._pool_workers = workers
                self._pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=_mp_context(),
                    initializer=_service_worker_init,
                )
            return self._pool

    def _submit_to_pool(self, fn, *args):
        """Pool submission that cannot race :meth:`shutdown`.

        The lock spans the liveness check and the submission, so a
        concurrent shutdown either happens before (and this raises the
        documented :class:`TranspilerError`) or waits until the job is
        queued.
        """
        with self._lock:
            pool = self._ensure_pool()
            try:
                return pool.submit(fn, *args)
            except RuntimeError as exc:  # pool torn down underneath us
                raise TranspilerError("CompileService has been shut down") from exc

    # -- submission --------------------------------------------------------
    #
    # submit, map and submit_payloads resolve their jobs into
    # (circuit, circuit_payload, target, target_payload, settings) tuples
    # and hand them to _dispatch, the one submission route.  A job built
    # from a circuit object carries the object (and, in process mode, its
    # payloads); a job built from the wire carries payloads only.

    def _settings(self, overrides: dict) -> dict:
        """The service defaults, overridden by every non-``None`` value."""
        settings = dict(self._defaults)
        for key, value in overrides.items():
            if value is not None:
                settings[key] = value
        return settings

    def _job(self, circuit, target, overrides: dict) -> tuple:
        """Resolve one circuit-object submission.

        Process mode makes the payloads the pool ships; serial mode
        compiles the object itself and makes none up front.
        """
        target = resolve_target(circuit, target, self._default_target)
        settings = self._settings(overrides)
        if self.mode == "serial":
            return circuit, None, target, None, settings
        return circuit, circuit_to_payload(circuit), target, target.to_payload(), settings

    def submit(
        self,
        circuit: QuantumCircuit,
        *,
        target: Target | str | None = None,
        pipeline: str | None = None,
        optimization_level: int | None = None,
        seed: int | None = None,
        initial_layout=None,
        validate: str | None = None,
    ) -> Future:
        """Queue one compilation; returns a future of a
        :class:`~repro.transpiler.passmanager.TranspileResult`.

        Process mode snapshots the circuit into a payload at submission
        time; serial mode compiles the circuit object itself before
        returning an already-resolved future (passes never mutate their
        input).
        """
        job = self._job(
            circuit,
            target,
            {
                "pipeline": pipeline,
                "optimization_level": optimization_level,
                "seed": seed,
                "initial_layout": initial_layout,
                "validate": validate,
            },
        )
        return self._dispatch([job])[0]

    def map(
        self,
        circuits: Sequence[QuantumCircuit],
        *,
        targets=None,
        seeds=None,
        pipeline: str | None = None,
        optimization_level: int | None = None,
        initial_layout=None,
        validate: str | None = None,
    ) -> list[TranspileResult]:
        """Compile a batch; blocks and returns results in input order.

        ``targets`` may be one target (object or preset name) or a
        per-circuit sequence; ``seeds`` likewise.  In process mode the
        batch's cache misses go to the pool in chunks sized by
        :meth:`chunk_size_for`.
        """
        batch = list(circuits)
        per_targets, per_seeds = normalize_batch(batch, targets, seeds)
        jobs = [
            self._job(
                circuit,
                target,
                {
                    "pipeline": pipeline,
                    "optimization_level": optimization_level,
                    "seed": seed,
                    "initial_layout": initial_layout,
                    "validate": validate,
                },
            )
            for circuit, target, seed in zip(batch, per_targets, per_seeds)
        ]
        return [future.result() for future in self._dispatch(jobs)]

    def submit_payloads(self, jobs: Sequence[tuple]) -> list[Future]:
        """Queue pre-encoded jobs: ``(circuit_payload, target_payload,
        settings)`` tuples, exactly the wire form the compile server's
        envelopes carry (:mod:`repro.server.protocol`).

        In process mode the payloads go to the pool **as-is** -- the
        server never rebuilds a circuit object just to re-flatten it;
        serial mode rebuilds each circuit and runs it inline, and a
        payload that fails to rebuild fails only its own job.
        ``settings`` entries that are ``None`` fall back to the service
        defaults, mirroring :meth:`submit`.
        """
        resolved = []
        targets: dict = {}
        for circuit_payload, target_payload, settings in jobs:
            target = targets.get(target_payload)
            if target is None:
                target = targets[target_payload] = Target.from_payload(target_payload)
            resolved.append(
                (
                    None,
                    circuit_payload,
                    target,
                    target_payload,
                    self._settings(dict(settings)),
                )
            )
        return self._dispatch(resolved)

    def _dispatch(self, jobs: list[tuple]) -> list[Future]:
        """The one submission route: one future per resolved job, in order.

        Serial mode compiles each job inline (:meth:`_run_inline`).
        Process mode serves every cacheable job it can from the result
        cache, then ships the misses to the pool as chunks sized by
        :meth:`chunk_size_for`; a batch whose every job hits never starts
        the pool.
        """
        if not jobs:
            return []
        with self._lock:
            if self._shutdown:
                raise TranspilerError("CompileService has been shut down")
        if self.mode == "serial":
            return [self._run_inline(job) for job in jobs]
        futures: list[Future | None] = []
        misses: list[tuple] = []  # (position, job, result-cache address)
        for job in jobs:
            _, circuit_payload, target, target_payload, settings = job
            address = _cache_address(
                self.result_cache, circuit_payload, target_payload, settings
            )
            served = self._cache_serve(address, target)
            if served is None:
                misses.append((len(futures), job, address))
            futures.append(served)
        chunk = self.chunk_size_for(len(misses))
        for start in range(0, len(misses), chunk):
            part = misses[start : start + chunk]
            outers = self._submit_chunk(
                [job for _, job, _ in part], [address for _, _, address in part]
            )
            for (position, _, _), outer in zip(part, outers):
                futures[position] = outer
        return futures

    def _run_inline(self, job: tuple) -> Future:
        """Compile one job in the calling thread (serial mode); an
        already-resolved future carries the result or the job's error."""
        circuit, circuit_payload, target, _, settings = job
        with self._lock:
            self._submitted += 1
        outer: Future = Future()
        try:
            if circuit is None:
                circuit = circuit_from_payload(circuit_payload)
            result = compile_job(
                circuit, target, settings, self.cache, self.result_cache
            )
        except BaseException as exc:  # noqa: BLE001 - future carries it
            self._fail_future(outer, exc)
            return outer
        kind = result.properties.get(CACHE_PROPERTY)
        with self._lock:
            self._completed += 1
            if kind is not None:
                self._count_hit(kind)
        outer.set_result(result)
        return outer

    def _count_hit(self, kind: str) -> None:
        """Count one result-cache serve (caller holds the lock)."""
        self._cache_hits += 1
        if kind == "template":
            self._cache_template_hits += 1

    def _cache_serve(self, address, target: Target) -> Future | None:
        """A pre-resolved future served from the result cache, or ``None``.

        A served job never touches the pool (which may not even exist
        yet); it still counts as submitted + completed so ``stats()``
        arithmetic holds, plus a hit counter of its own.
        """
        if address is None:
            return None
        found = self.result_cache.lookup(*address)
        if found is None:
            return None
        value, kind = found
        with self._lock:
            self._submitted += 1
        outer: Future = Future()
        try:
            result = result_from_payload(
                value,
                target,
                {AnalysisCache.PROPERTY_KEY: self.cache, CACHE_PROPERTY: kind},
            )
        except Exception as exc:  # noqa: BLE001 - corrupt entry: fail the job
            self._fail_future(outer, exc)
            return outer
        with self._lock:
            self._completed += 1
            self._count_hit(kind)
        outer.set_result(result)
        return outer

    def _submit_chunk(self, jobs: list[tuple], addresses: list) -> list[Future]:
        """Ship ``jobs`` to the pool as ONE task; one future per job.

        This is the chunked job envelope: per-task costs -- pickling the
        envelope, pool dispatch, the stats increment -- are paid once per
        chunk rather than once per circuit, which is what lets huge
        batches of cheap circuits keep the pool busy instead of the
        feeder thread.  ``addresses`` holds each job's result-cache
        address (``None`` when uncacheable); :meth:`_finish_chunk` stores
        the answers there.
        """
        with self._lock:
            self._submitted += len(jobs)
            self._chunks += 1
        outers = [Future() for _ in jobs]
        targets = [target for _, _, target, _, _ in jobs]
        envelope = tuple(
            (circuit_payload, target_payload, settings)
            for _, circuit_payload, _, target_payload, settings in jobs
        )
        inner = self._submit_to_pool(_service_chunk, envelope)
        inner.add_done_callback(
            lambda f: self._finish_chunk(outers, targets, addresses, f)
        )
        return outers

    def chunk_size_for(self, batch_size: int) -> int:
        """Jobs per pool task for ``batch_size`` cache misses: per-job
        dispatch for batches the pool width can absorb, chunks for
        everything bigger.

        Chunks are sized to leave every worker several tasks (so a slow
        chunk cannot serialize the tail of the batch) and capped so one
        envelope never grows unboundedly large.
        """
        if self.mode != "process":
            return 1  # no envelope to amortize without a process boundary
        workers = self._pool_workers or default_workers(self.max_workers)
        if batch_size <= 2 * workers:
            return 1
        return max(1, min(_CHUNK_MAX_JOBS, batch_size // (workers * 4)))

    # -- result plumbing ---------------------------------------------------

    def _finish_chunk(
        self,
        outers: list[Future],
        targets: list[Target],
        addresses: list,
        inner: Future,
    ) -> None:
        """Scatter one chunk task's outcomes onto its per-job futures."""
        try:
            outcomes, cache_stats = inner.result()
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            # the chunk itself died (pool torn down, envelope unpicklable):
            # every job of the chunk shares that fate
            for outer in outers:
                self._fail_future(outer, exc)
            return
        with self._lock:
            self.cache.stats.update(cache_stats)
        if len(outcomes) != len(outers):  # never expected; fail loudly, not hang
            error = TranspilerError(
                f"chunk returned {len(outcomes)} outcomes for {len(outers)} jobs"
            )
            for outer in outers:
                self._fail_future(outer, error)
            return
        for outer, target, address, outcome in zip(
            outers, targets, addresses, outcomes
        ):
            # per-job isolation holds on the parent side too: a payload
            # that fails to rebuild (or an outer future the caller
            # cancelled, making set_result raise) must not abandon the
            # remaining chunk-mates' futures
            try:
                status, value = outcome
                if status != "ok":
                    self._fail_future(outer, value)
                    continue
                result = result_from_payload(
                    value, target, {AnalysisCache.PROPERTY_KEY: self.cache}
                )
            except BaseException as exc:  # noqa: BLE001 - relayed per job
                self._fail_future(outer, exc)
                continue
            if address is not None:
                # populate only after the payload proved rebuildable, so a
                # malformed result can never be served from the cache
                self.result_cache.store(*address, value)
            with self._lock:
                self._completed += 1
            try:
                outer.set_result(result)
            except InvalidStateError:
                pass  # caller cancelled the future; result has no taker

    def _fail_future(self, outer: Future, exc: BaseException) -> None:
        with self._lock:
            self._failed += 1
        try:
            outer.set_exception(exc)
        except InvalidStateError:
            pass  # caller cancelled the future; nothing left to notify

    # -- lifecycle ---------------------------------------------------------

    def save_snapshot(self, path=None) -> str | None:
        """Persist the result cache to ``path`` (default: ``snapshot_path``).

        The write is atomic (tmp file + rename, see
        :meth:`ResultCache.save`), so a crash mid-save -- or a reader
        racing the autosave timer -- never sees a truncated snapshot.
        Returns the path written, or ``None`` when there is no path or no
        result cache.
        """
        path = path if path is not None else self.snapshot_path
        if path is None or self.result_cache is None:
            return None
        self.result_cache.save(path)
        return str(path)

    # -- periodic background autosave --------------------------------------

    def _schedule_autosave(self) -> None:
        timer = threading.Timer(self.autosave_interval, self._autosave_tick)
        timer.daemon = True  # never keeps the interpreter alive
        self._autosave_timer = timer
        timer.start()

    def _autosave_tick(self) -> None:
        """One autosave: persist, then re-arm the timer.

        A failed save (disk full, unwritable path, ...) is counted in
        ``stats()["autosave_failures"]`` with its reason in
        ``stats()["autosave_error"]``; serving is unaffected and the next
        tick retries.
        """
        with self._lock:
            if self._shutdown:
                return
        try:
            self.save_snapshot()
        except Exception as exc:  # noqa: BLE001 - counted, next tick retries
            with self._lock:
                self._autosave_failures += 1
                self._autosave_error = f"{type(exc).__name__}: {exc}"
        else:
            with self._lock:
                self._autosaves += 1
        finally:
            with self._lock:
                if not self._shutdown:
                    self._schedule_autosave()

    def shutdown(self, wait: bool = True, save: bool = True) -> None:
        """Drain the pool and (by default) persist the result-cache snapshot.

        Idempotent; after shutdown, further submissions raise
        :class:`~repro.transpiler.exceptions.TranspilerError`.
        """
        with self._lock:
            already = self._shutdown
            self._shutdown = True
            pool, self._pool = self._pool, None
            timer, self._autosave_timer = self._autosave_timer, None
        if timer is not None:
            timer.cancel()
            timer.join(timeout=5.0)  # cancel() wakes it; exit is immediate
        if pool is not None:
            pool.shutdown(wait=wait)
        if save and not already:
            self.save_snapshot()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def stats(self) -> dict:
        """Service-level counters (JSON-ready)."""
        return {
            "mode": self.mode,
            "uptime": time.monotonic() - self._started,
            "submitted": self._submitted,
            "completed": self._completed,
            "failed": self._failed,
            "chunks": self._chunks,
            "autosaves": self._autosaves,
            "autosave_failures": self._autosave_failures,
            "autosave_error": self._autosave_error,
            "result_cache_hits": self._cache_hits,
            "result_cache_template_hits": self._cache_template_hits,
            "result_entries_loaded": self._result_entries_loaded,
            "result_cache": (
                self.result_cache.stats() if self.result_cache is not None else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "shutdown" if self._shutdown else "live"
        return (
            f"<CompileService mode={self.mode} {state} "
            f"submitted={self._submitted} completed={self._completed}>"
        )

