"""The public ``transpile()`` front-end: one entry point for every pipeline.

This module is the top of the transpiler stack.  Everything below it --
preset levels 0-3, the paper's RPO pipeline (``pipeline="rpo"`` /
``"rpo_ext"``) and the Hoare baseline (``"hoare"``) -- is reached through
:func:`transpile` / :func:`pass_manager_for`, so callers (benchmarks,
examples, services) never wire pass managers by hand.

Architecture:

* **Targets** -- every job compiles for a
  :class:`~repro.transpiler.target.Target` (basis gates + coupling map +
  calibration data in one hashable object).  ``target=`` is the one way
  to name the device: a ``Target``, a preset name like ``"melbourne"`` or
  ``"linear:5"``, a backend, a :class:`~repro.transpiler.coupling.CouplingMap`,
  or a per-circuit sequence of these for heterogeneous multi-backend
  batches.  Each circuit's target is resolved by
  :func:`~repro.transpiler.service.resolve_target`, the rule every
  compile front shares; with none named, a circuit gets the shared
  all-to-all target of its width.  A non-IBM basis is part of the
  target (``Target.full(n, basis=...)``, ``Target(coupling, basis=...)``).
* **Pipeline routing** -- ``pipeline`` selects the pass-manager factory;
  the default ``"preset"`` dispatches on ``optimization_level``.
* **Execution** -- one story with three doors.  ``transpile`` compiles
  in-process, one circuit after another (``executor="auto"`` and
  ``"serial"`` both mean this).  For cores or a warm result cache, pass
  ``service=`` a caller-owned, persistent
  :class:`~repro.transpiler.service.CompileService` -- its pool starts
  once and its worker caches, result cache and snapshots stay warm
  across calls (see :mod:`repro.transpiler.service`).  ``endpoint=``
  (``executor="remote"``) ships the batch to one compile server
  (:mod:`repro.server`).  The per-call pools of earlier versions
  (``"thread"``, ``"process"``, ``"service"``) never beat serial
  compilation and are rejected with a pointer to ``service=``.
* **Shared analysis cache** -- the jobs of an in-process batch share one
  :class:`~repro.transpiler.cache.AnalysisCache` (pass your own to share
  across calls), so repeated two-qubit blocks cost one synthesis.
* **Results** -- by default the transpiled circuit(s) come back in input
  order; ``full_result=True`` returns
  :class:`~repro.transpiler.passmanager.TranspileResult` objects carrying
  the property set (including the job's target) and the structured
  per-pass metrics (:mod:`repro.transpiler.metrics` aggregates those
  across a batch, broken down per target).
"""

from __future__ import annotations

from typing import Sequence

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.transpiler.cache import AnalysisCache
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import PassManager
from repro.transpiler.result_cache import ResultCache
from repro.transpiler.target import Target, normalize_batch

__all__ = ["transpile", "pass_manager_for", "PIPELINES", "EXECUTORS"]

#: Named pipelines routed through :func:`pass_manager_for`.  ``"preset"``
#: dispatches on ``optimization_level``; ``"level0"``-``"level3"`` pin one;
#: the rest are the paper's configurations.
PIPELINES = (
    "preset",
    "level0",
    "level1",
    "level2",
    "level3",
    "rpo",
    "rpo_ext",
    "hoare",
)

#: Executors accepted by :func:`transpile`.  ``"auto"`` and ``"serial"``
#: both compile in-process; ``"remote"`` ships the batch to the networked
#: compile server named by ``endpoint=`` (see :mod:`repro.server`).
EXECUTORS = ("auto", "serial", "remote")

#: Per-call pools that no longer exist; naming one is an error that points
#: at the persistent service.
_RETIRED_EXECUTORS = ("thread", "process", "service")


def pass_manager_for(
    pipeline: str,
    target,
    optimization_level: int = 1,
    seed: int | None = None,
    initial_layout: Layout | None = None,
) -> PassManager:
    """Build the pass manager for a named pipeline.

    The single routing point for preset levels, the RPO pipelines and the
    Hoare baseline -- new pipeline flavours plug in here.  ``target``
    accepts anything :meth:`Target.coerce` does: a :class:`Target`, a
    preset name, a backend or a bare coupling map.
    """
    # lazy imports: repro.rpo imports this package's submodules
    from repro.rpo.pipeline import (
        hoare_pass_manager,
        rpo_extended_pass_manager,
        rpo_pass_manager,
    )
    from repro.transpiler.preset import preset_pass_manager

    target = Target.coerce(target)
    kwargs = dict(seed=seed, initial_layout=initial_layout)
    if pipeline == "preset":
        return preset_pass_manager(optimization_level, target, **kwargs)
    if pipeline.startswith("level") and pipeline[5:].isdigit():
        return preset_pass_manager(int(pipeline[5:]), target, **kwargs)
    if pipeline == "rpo":
        return rpo_pass_manager(target, **kwargs)
    if pipeline == "rpo_ext":
        return rpo_extended_pass_manager(target, **kwargs)
    if pipeline == "hoare":
        return hoare_pass_manager(target, **kwargs)
    raise TranspilerError(
        f"unknown pipeline {pipeline!r}; choose one of {', '.join(PIPELINES)}"
    )


def transpile(
    circuits: QuantumCircuit | Sequence[QuantumCircuit],
    target: Target | str | Sequence | None = None,
    pipeline: str | None = None,
    optimization_level: int | None = None,
    seed: int | Sequence[int] | None = None,
    initial_layout: Layout | None = None,
    executor: str = "auto",
    analysis_cache: AnalysisCache | None = None,
    full_result: bool = False,
    service=None,
    endpoint=None,
    result_cache=None,
    validate: str | None = None,
):
    """Compile one circuit -- or a batch -- for one or many targets.

    Args:
        circuits: a single :class:`QuantumCircuit` or a sequence of them.
        target: a :class:`~repro.transpiler.target.Target`, a preset name
            (``"melbourne"``, ``"linear:5"``, ``"grid:3x4"``, ...), a
            device from :mod:`repro.backends`, a
            :class:`~repro.transpiler.coupling.CouplingMap`, or a
            per-circuit sequence of these -- one batch may mix circuits
            bound for different devices, and each compiles against its own
            target.  Unset, a caller-provided ``service``'s default target
            applies, else each circuit gets the shared all-to-all target
            of its width.
        pipeline: ``"preset"`` (default, dispatches on
            ``optimization_level``), ``"level0"``-``"level3"``, ``"rpo"``,
            ``"rpo_ext"`` or ``"hoare"``.  Left unset, a caller-provided
            ``service``'s configured pipeline applies.
        seed: routing seed; a sequence gives one seed per batched circuit.
        executor: ``"auto"`` (default) or ``"serial"`` -- both compile
            in-process, one circuit after another -- or ``"remote"``,
            which requires ``endpoint=`` and routes the batch through a
            short-lived :class:`~repro.server.RemoteCompileService`.
            ``"thread"``, ``"process"`` and ``"service"`` raise
            :class:`TranspilerError`: pass ``service=`` a persistent
            :class:`~repro.transpiler.service.CompileService` for a pool.
        analysis_cache: a shared :class:`AnalysisCache`; defaults to one
            fresh cache shared by the whole in-process batch.
        full_result: return :class:`TranspileResult` objects (circuit +
            properties + per-pass metrics) instead of bare circuits.
        service: a caller-owned, persistent
            :class:`~repro.transpiler.service.CompileService` to submit
            through instead of compiling in-process; ``executor`` and
            ``analysis_cache`` are then the service's business and
            ignored here, and the service's configured
            pipeline/optimization-level defaults apply to any argument
            this call leaves unset.  A
            :class:`~repro.server.RemoteCompileService` works here too --
            it mirrors the service surface.
        endpoint: the compile server's URL, one ``"http://host:port"``
            string; a list or tuple raises :class:`TranspilerError`.
            Setting ``endpoint=`` with the default ``executor="auto"``
            *implies* ``executor="remote"``; naming any other executor
            alongside an endpoint raises.
        result_cache: a shared
            :class:`~repro.transpiler.result_cache.ResultCache` so
            repeated ``transpile()`` calls serve previously compiled
            answers without running a pipeline.  Unset, an in-process
            batch runs uncached (a fresh per-call result cache could never
            hit); a caller-owned ``service`` brings its own.
        validate: QSAN translation-validation mode -- ``"full"`` checks
            semantic equivalence after every transformation pass and that
            every analysis pass leaves the circuit alone, ``"off"``
            disables checking; any other value raises
            :class:`TranspilerError`.  ``None`` (default) defers to the
            ``REPRO_QSAN`` environment variable.  See
            :mod:`repro.analysis.qsan`.

    Returns:
        The transpiled circuit (or result) for single-circuit input, else
        a list in input order.
    """
    from repro.transpiler.service import compile_job, resolve_target

    single = isinstance(circuits, QuantumCircuit)
    batch = [circuits] if single else list(circuits)
    if any(not isinstance(circuit, QuantumCircuit) for circuit in batch):
        raise TranspilerError("transpile() expects QuantumCircuit inputs")
    if executor in _RETIRED_EXECUTORS:
        raise TranspilerError(
            f"executor={executor!r} is gone: transpile() compiles in-process; "
            "for a worker pool pass service=CompileService(...)"
        )
    if executor not in EXECUTORS:
        raise TranspilerError(
            f"unknown executor {executor!r}; choose one of {', '.join(EXECUTORS)}"
        )
    if isinstance(endpoint, (list, tuple)):
        raise TranspilerError(
            f"endpoint= takes one URL string, got a {type(endpoint).__name__} "
            "of endpoints"
        )
    if endpoint is not None and executor == "auto":
        executor = "remote"  # an endpoint can only mean the compile server
    if executor == "remote" and endpoint is None and service is None:
        raise TranspilerError('executor="remote" needs endpoint= (one URL)')
    if endpoint is not None and executor != "remote":
        raise TranspilerError(
            f"endpoint= implies executor=\"remote\", which contradicts the "
            f"explicit executor={executor!r}; drop one of the two"
        )
    if endpoint is not None and service is not None:
        raise TranspilerError("pass either service= or endpoint=, not both")
    if result_cache is not None and not isinstance(result_cache, ResultCache):
        raise TranspilerError(
            f"result_cache must be a ResultCache or None, got {type(result_cache).__name__}"
        )
    if not batch:
        # an empty batch is a valid request with a well-formed empty
        # answer on every executor path -- nothing reaches a pool, a
        # service or the network
        return []

    targets, seeds = normalize_batch(batch, target, seed)
    owned_client = None
    if service is None and executor == "remote":
        from repro.server import RemoteCompileService

        service = owned_client = RemoteCompileService(endpoint)

    if service is not None:
        try:
            results = service.map(
                batch,
                targets=targets,
                seeds=seeds,
                pipeline=pipeline,
                optimization_level=optimization_level,
                initial_layout=initial_layout,
                validate=validate,
            )
        finally:
            if owned_client is not None:
                owned_client.close()
    else:
        cache = analysis_cache if analysis_cache is not None else AnalysisCache()
        settings = {
            "pipeline": pipeline if pipeline is not None else "preset",
            "optimization_level": (
                optimization_level if optimization_level is not None else 1
            ),
            "initial_layout": initial_layout,
            "validate": validate,
        }
        results = [
            compile_job(
                circuit,
                resolve_target(circuit, target, None),
                {**settings, "seed": seed},
                cache,
                result_cache,
            )
            for circuit, target, seed in zip(batch, targets, seeds)
        ]

    if not full_result:
        results = [result.circuit for result in results]
    return results[0] if single else results
