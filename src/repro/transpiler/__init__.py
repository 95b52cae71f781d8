"""The transpiler: pass-manager framework, shared analysis cache, passes,
preset levels, and the public ``transpile()`` front-end.

Layers, bottom to top:

* :mod:`repro.transpiler.passmanager` -- the pass manager.  It runs its
  schedule in order, every scheduled pass once (the fixed-point loop's
  passes once per iteration), and returns structured per-pass metrics in
  a :class:`TranspileResult`.
* :mod:`repro.transpiler.cache` -- the per-run :class:`AnalysisCache`
  (memoized two-qubit syntheses) every pass shares; a
  plain in-process memo, shared across runs to amortise work over
  repeated workloads.
* :mod:`repro.transpiler.target` -- the :class:`Target` abstraction: basis
  gates + coupling map + calibration data as one hashable, picklable value
  (named presets included), consumed by every pass-manager factory and
  routed on by the executor layer.
* :mod:`repro.transpiler.preset` -- optimization levels 0-3 mirroring
  Qiskit 0.18 (the baselines the paper compares against, Sec. II-B); the
  RPO pipeline (paper Fig. 8, underlined additions) lives in
  :mod:`repro.rpo` and reuses this infrastructure, including the shared
  :func:`~repro.transpiler.preset.layout_stage` builder.
* :mod:`repro.transpiler.service` -- the long-lived :class:`CompileService`:
  a persistent worker pool (one long-lived analysis memo per worker) with
  an async submission queue, chunked job envelopes for large batches, a
  compiled-result cache and its disk snapshot (shutdown-time and
  periodic autosave), so cached answers survive process restarts.
  :mod:`repro.server` puts this behind an HTTP wire.
* :mod:`repro.transpiler.frontend` -- the batched :func:`transpile` entry
  point routing every pipeline (presets, RPO, Hoare); it compiles
  in-process with per-circuit targets in one batch, or submits through a
  caller-owned persistent service (``service=``) or a compile server
  (``endpoint=``).
* :mod:`repro.transpiler.metrics` -- batch-level aggregation of the
  per-pass metrics into JSON reports (with per-target breakdowns), plus
  the baseline comparison the CI regression gate runs.
"""

from repro.transpiler.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.cache import AnalysisCache
from repro.transpiler.passmanager import (
    AnalysisPass,
    BasePass,
    DoWhileController,
    LoopMetrics,
    PassManager,
    PassMetrics,
    PropertySet,
    TranspileResult,
    TransformationPass,
)
from repro.transpiler.preset import (
    level_0_pass_manager,
    level_1_pass_manager,
    level_2_pass_manager,
    level_3_pass_manager,
    preset_pass_manager,
)
from repro.transpiler.target import Target, TARGET_PRESETS
from repro.transpiler.result_cache import ResultCache
from repro.transpiler.frontend import EXECUTORS, PIPELINES, pass_manager_for, transpile
from repro.transpiler.service import SERVICE_MODES, CompileService
from repro.transpiler.metrics import (
    aggregate_batch,
    compare_metrics,
    load_metrics_json,
    write_metrics_json,
)

__all__ = [
    "CouplingMap",
    "Layout",
    "TranspilerError",
    "AnalysisCache",
    "BasePass",
    "AnalysisPass",
    "TransformationPass",
    "PassManager",
    "PropertySet",
    "DoWhileController",
    "PassMetrics",
    "LoopMetrics",
    "TranspileResult",
    "level_0_pass_manager",
    "level_1_pass_manager",
    "level_2_pass_manager",
    "level_3_pass_manager",
    "preset_pass_manager",
    "Target",
    "TARGET_PRESETS",
    "ResultCache",
    "CompileService",
    "SERVICE_MODES",
    "PIPELINES",
    "EXECUTORS",
    "pass_manager_for",
    "transpile",
    "aggregate_batch",
    "compare_metrics",
    "load_metrics_json",
    "write_metrics_json",
]
