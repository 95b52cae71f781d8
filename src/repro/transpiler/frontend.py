"""The public ``transpile()`` front-end: one entry point for every pipeline.

This module is the top of the transpiler stack.  Everything below it --
preset levels 0-3, the paper's RPO pipeline (``pipeline="rpo"`` /
``"rpo_ext"``) and the Hoare baseline (``"hoare"``) -- is reached through
:func:`transpile` / :func:`pass_manager_for`, so callers (benchmarks,
examples, services) never wire pass managers by hand.

Architecture:

* **Targets** -- every job compiles for a
  :class:`~repro.transpiler.target.Target` (basis gates + coupling map +
  calibration data in one hashable object).  Callers pass ``target=`` (a
  ``Target``, a preset name like ``"melbourne"`` or ``"linear:5"``, or a
  per-circuit sequence for heterogeneous multi-backend batches); the
  historical ``backend`` / ``coupling_map`` / ``backend_properties``
  keywords are coerced into a target for back-compat.
* **Pipeline routing** -- ``pipeline`` selects the pass-manager factory;
  the default ``"preset"`` dispatches on ``optimization_level``.
* **Execution** -- one story with three doors.  ``transpile`` compiles
  in-process, one circuit after another (``executor="auto"`` and
  ``"serial"`` both mean this).  For cores or a warm result cache, pass
  ``service=`` a caller-owned, persistent
  :class:`~repro.transpiler.service.CompileService` -- its pool starts
  once and its worker caches, result cache and snapshots stay warm
  across calls (see :mod:`repro.transpiler.service`).  ``endpoint=``
  (``executor="remote"``) ships the batch to compile server(s)
  (:mod:`repro.server`).  The per-call pools of earlier versions
  (``"thread"``, ``"process"``, ``"service"``) never beat serial
  compilation and are rejected with a pointer to ``service=``.
* **Shared analysis cache** -- the jobs of an in-process batch share one
  :class:`~repro.transpiler.cache.AnalysisCache` (pass your own to share
  across calls), so repeated workloads skip most matrix constructions and
  circuit analyses.
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
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.layout import Layout
from repro.transpiler.passes import IBM_BASIS
from repro.transpiler.passmanager import PassManager
from repro.transpiler.result_cache import ResultCache
from repro.transpiler.target import Target, normalize_batch, resolve_targets

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
#: both compile in-process; ``"remote"`` ships the batch to networked
#: compile server(s) named by ``endpoint=`` (one URL, or a list fanned out
#: shard-aware -- see :mod:`repro.server`).
EXECUTORS = ("auto", "serial", "remote")

#: Per-call pools that no longer exist; naming one is an error that points
#: at the persistent service.
_RETIRED_EXECUTORS = ("thread", "process", "service")


def pass_manager_for(
    pipeline: str,
    target: Target | CouplingMap | str,
    backend_properties=None,
    optimization_level: int = 1,
    seed: int | None = None,
    basis=IBM_BASIS,
    initial_layout: Layout | None = None,
) -> PassManager:
    """Build the pass manager for a named pipeline.

    The single routing point for preset levels, the RPO pipelines and the
    Hoare baseline -- new pipeline flavours plug in here.  ``target``
    accepts a :class:`Target`, a preset name, a backend, or a bare
    :class:`CouplingMap` (combined with the loose ``basis``/
    ``backend_properties`` keywords for back-compat).
    """
    # lazy imports: repro.rpo imports this package's submodules
    from repro.rpo.pipeline import (
        hoare_pass_manager,
        rpo_extended_pass_manager,
        rpo_pass_manager,
    )
    from repro.transpiler.preset import preset_pass_manager

    target = Target.coerce(target, basis=basis, properties=backend_properties)
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
    backend=None,
    coupling_map: CouplingMap | None = None,
    backend_properties=None,
    target: Target | str | Sequence | None = None,
    pipeline: str | None = None,
    optimization_level: int | None = None,
    seed: int | Sequence[int] | None = None,
    basis_gates=None,
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
        backend: a device from :mod:`repro.backends`; shorthand for
            ``target=Target.from_backend(backend)``.
        coupling_map: explicit device connectivity (back-compat shorthand
            for a custom target).  With neither target, backend nor map,
            an all-to-all target of each circuit's width is assumed.
        target: a :class:`~repro.transpiler.target.Target`, a preset name
            (``"melbourne"``, ``"linear:5"``, ``"grid:3x4"``, ...), or a
            per-circuit sequence of either -- one batch may mix circuits
            bound for different devices, and each compiles against its own
            target.  A prebuilt ``Target`` is a
            complete hardware spec: it wins over ``basis_gates``/
            ``backend_properties``, which only apply while a target is
            being built from looser inputs (backend, coupling map, preset
            name, or the all-to-all fallback).
        pipeline: ``"preset"`` (default, dispatches on
            ``optimization_level``), ``"level0"``-``"level3"``, ``"rpo"``,
            ``"rpo_ext"`` or ``"hoare"``.  Left unset, a caller-provided
            ``service``'s configured pipeline applies.
        seed: routing seed; a sequence gives one seed per batched circuit.
        executor: ``"auto"`` (default) or ``"serial"`` -- both compile
            in-process, one circuit after another -- or ``"remote"``,
            which requires ``endpoint=`` and routes the batch through a
            short-lived :class:`~repro.server.RemoteCompileService` (or,
            for a list of endpoints, a shard-aware
            :class:`~repro.server.ShardRouter`).  ``"thread"``,
            ``"process"`` and ``"service"`` raise
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
            :class:`~repro.server.RemoteCompileService` or
            :class:`~repro.server.ShardRouter` works here too -- they
            mirror the service surface.
        endpoint: compile-server URL(s): one ``"http://host:port"``
            string, or a sequence of them to fan the batch across shards
            with target-affinity routing.  Setting ``endpoint=`` with the
            default ``executor="auto"`` *implies* ``executor="remote"``;
            naming any other executor alongside an endpoint raises.
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

    explicit_basis = basis_gates is not None
    if basis_gates is None:
        basis_gates = IBM_BASIS
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
    if endpoint is not None and executor == "auto":
        executor = "remote"  # an endpoint can only mean the compile farm
    if executor == "remote" and endpoint is None and service is None:
        raise TranspilerError(
            'executor="remote" needs endpoint= (one URL, or a list of URLs '
            "to shard across)"
        )
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

    owned_client = None
    if executor == "remote" and service is None:
        from repro.server import RemoteCompileService, ShardRouter

        endpoints = (
            list(endpoint) if isinstance(endpoint, (list, tuple)) else [endpoint]
        )
        if len(endpoints) > 1:
            owned_client = ShardRouter(endpoints, basis_gates=basis_gates)
        else:
            owned_client = RemoteCompileService(endpoints[0], basis_gates=basis_gates)
        service = owned_client

    if service is not None and target is None and backend is None and coupling_map is None:
        # no hardware named here: the service's configured default target
        # applies (resolving now would clobber it with all-to-all).  An
        # explicit basis_gates overrides the basis but keeps the service
        # target's device (coupling + calibration).
        targets = None
        if explicit_basis:
            base = service.default_target
            if base is not None:
                base = Target(
                    base.coupling_map,
                    basis=basis_gates,
                    properties=base.properties,
                    name=base.name,
                )
            targets = [
                resolve_target(circuit, None, base, basis_gates) for circuit in batch
            ]
    else:
        targets = resolve_targets(
            batch, target, backend, coupling_map, backend_properties, basis_gates
        )

    _, seeds = normalize_batch(batch, None, seed)

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
                circuit, target, {**settings, "seed": seed}, cache, result_cache
            )
            for circuit, target, seed in zip(batch, targets, seeds)
        ]

    if not full_result:
        results = [result.circuit for result in results]
    return results[0] if single else results
