"""Preset pass managers (optimization levels 0-3).

The four levels mirror Qiskit 0.18 (paper Sec. II-B):

* level 0: map to the device, no optimization;
* level 1: trivial layout, light gate collapsing;
* level 2: dense noise-aware layout, commutative cancellation;
* level 3: level 2 plus two-qubit block re-synthesis in a fixed-point loop
  (paper Fig. 8 without the underlined RPO additions -- those live in
  :func:`repro.rpo.rpo_pass_manager`).

Every factory takes the device as its one ``target`` argument: a
:class:`~repro.transpiler.target.Target` (basis + coupling + calibration
data) or anything :meth:`~repro.transpiler.target.Target.coerce` turns into
one (a preset name, a backend, a
:class:`~repro.transpiler.coupling.CouplingMap`).
The unroll/layout/route stage every level shares is built once by
:func:`layout_stage`, which the RPO and Hoare pipelines reuse too.
"""

from __future__ import annotations

from repro.transpiler.coupling import CouplingMap
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import BasePass, DoWhileController, PassManager
from repro.transpiler.passes import (
    ApplyLayout,
    CommutativeCancellation,
    ConsolidateBlocks,
    CXCancellation,
    DenseLayout,
    FixedPoint,
    Optimize1qGates,
    RemoveAnnotations,
    RemoveDiagonalGatesBeforeMeasure,
    SetLayout,
    Size,
    StochasticSwap,
    TrivialLayout,
    Unroller,
)
from repro.transpiler.target import Target

__all__ = [
    "layout_stage",
    "optimization_loop",
    "level_0_pass_manager",
    "level_1_pass_manager",
    "level_2_pass_manager",
    "level_3_pass_manager",
    "preset_pass_manager",
]


def _layout_pass(target: Target, initial_layout, dense: bool):
    if initial_layout is not None:
        return SetLayout(initial_layout)
    if dense:
        return DenseLayout(target.coupling_map, target.properties)
    return TrivialLayout(target.coupling_map)


def layout_stage(
    target: Target,
    *,
    dense: bool,
    swap_trials: int,
    seed: int | None = None,
    initial_layout: Layout | None = None,
    unroll_after: bool = True,
) -> list[BasePass]:
    """The unroll/layout/route stage shared by every pipeline.

    Unrolls to the target basis, selects a layout (``SetLayout`` when the
    caller pinned one, else dense noise-aware or trivial), applies it,
    routes with ``StochasticSwap`` and -- unless ``unroll_after=False``,
    which the RPO/Hoare pipelines use to splice their own passes between
    routing and re-unrolling -- lowers the routing-inserted SWAPs back to
    the basis.
    """
    passes: list[BasePass] = [
        Unroller(target.basis),
        _layout_pass(target, initial_layout, dense),
        ApplyLayout(target.coupling_map),
        StochasticSwap(target.coupling_map, trials=swap_trials, seed=seed),
    ]
    if unroll_after:
        passes.append(Unroller(target.basis))
    return passes


def optimization_loop(basis, *, commutative: bool, consolidate: bool) -> DoWhileController:
    """The fixed-point optimization loop shared by levels 1-3, RPO and Hoare.

    ``commutative`` adds ``CommutativeCancellation`` (levels 2+);
    ``consolidate`` adds the two-qubit block re-synthesis prologue
    (level 3 and the paper pipelines).
    """
    passes: list[BasePass] = []
    if consolidate:
        passes += [ConsolidateBlocks(basis), Unroller(basis)]
    passes.append(Optimize1qGates(basis))
    if commutative:
        passes.append(CommutativeCancellation())
    passes += [CXCancellation(), Size(), FixedPoint("size")]
    return DoWhileController(
        passes,
        do_while=lambda ps: not ps.get("size_fixed_point", False),
        max_iterations=10,
    )


def level_0_pass_manager(
    target: Target | CouplingMap,
    seed: int | None = None,
    initial_layout: Layout | None = None,
) -> PassManager:
    """Map to the device with no explicit optimization."""
    target = Target.coerce(target)
    pm = PassManager()
    pm.append(
        layout_stage(
            target, dense=False, swap_trials=1, seed=seed, initial_layout=initial_layout
        )
    )
    pm.append(RemoveAnnotations())
    return pm


def level_1_pass_manager(
    target: Target | CouplingMap,
    seed: int | None = None,
    initial_layout: Layout | None = None,
) -> PassManager:
    """Light optimization: collapse adjacent gates."""
    target = Target.coerce(target)
    pm = PassManager()
    pm.append(
        layout_stage(
            target, dense=False, swap_trials=3, seed=seed, initial_layout=initial_layout
        )
    )
    pm.append(optimization_loop(target.basis, commutative=False, consolidate=False))
    pm.append(RemoveDiagonalGatesBeforeMeasure())
    pm.append(RemoveAnnotations())
    return pm


def level_2_pass_manager(
    target: Target | CouplingMap,
    seed: int | None = None,
    initial_layout: Layout | None = None,
) -> PassManager:
    """Noise-adaptive layout plus commutation-based cancellation."""
    target = Target.coerce(target)
    pm = PassManager()
    pm.append(
        layout_stage(
            target, dense=True, swap_trials=5, seed=seed, initial_layout=initial_layout
        )
    )
    pm.append(optimization_loop(target.basis, commutative=True, consolidate=False))
    pm.append(RemoveDiagonalGatesBeforeMeasure())
    pm.append(RemoveAnnotations())
    return pm


def level_3_pass_manager(
    target: Target | CouplingMap,
    seed: int | None = None,
    initial_layout: Layout | None = None,
) -> PassManager:
    """Heaviest standard optimization: adds two-qubit block re-synthesis.

    This is the baseline the paper compares RPO against (Table II).
    """
    target = Target.coerce(target)
    pm = PassManager()
    pm.append(
        layout_stage(
            target, dense=True, swap_trials=8, seed=seed, initial_layout=initial_layout
        )
    )
    pm.append(Optimize1qGates(target.basis))
    pm.append(optimization_loop(target.basis, commutative=True, consolidate=True))
    pm.append(RemoveDiagonalGatesBeforeMeasure())
    pm.append(RemoveAnnotations())
    return pm


_PRESETS = {
    0: level_0_pass_manager,
    1: level_1_pass_manager,
    2: level_2_pass_manager,
    3: level_3_pass_manager,
}


def preset_pass_manager(optimization_level: int, *args, **kwargs) -> PassManager:
    try:
        factory = _PRESETS[optimization_level]
    except KeyError:
        raise TranspilerError(
            f"unknown optimization level {optimization_level}; choose 0-3"
        ) from None
    return factory(*args, **kwargs)
