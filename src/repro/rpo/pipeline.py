"""The RPO pipeline (paper Fig. 8) and the Hoare-baseline pipeline.

``rpo_pass_manager`` reproduces optimization level 3 with the underlined
additions of Fig. 8::

    1  QBO()
    2  Unroller(basis_gates)
    3  <layout selection>
    4  <routing process>
    5  QBO()
    6  Unroller(basis_gates + swap + swapz)
    7  Optimize1qGates()
    8  QPO()
    9  while not <fixed point>:
   10      <optimizations>

and nothing else: the loop's optimizations are level 3's
(``ConsolidateBlocks``, ``Unroller(basis_gates)``, ``Optimize1qGates``,
the cancellations), and its ``Unroller`` lowers the ``swap``/``swapz``
gates QPO leaves.

The early QBO cascades through the rest of the pipeline: any gate it
removes up front is one gate fewer for every later pass.  The paper credits
this for RPO's reduced transpile times despite the extra passes; on our
Table II quick rows it does not pay for them yet: RPO's mean transpile time
is 1.18-1.23x level 3's (``benchmarks/bench_table2_main.py --quick``, the
median of 15 warm repeats per cell, 3 runs on a shared 2-core x86_64 host).
The second QBO targets the routing-inserted SWAPs; QPO runs once outside
the fixed-point loop because the loop's optimizations preserve the state
invariants (Sec. VII-A).

Targets, pass manager and cache architecture
--------------------------------------------

Each factory takes the device as its one ``target`` argument: a
:class:`~repro.transpiler.target.Target` (basis gates + coupling map +
calibration data in one hashable object) or anything
:meth:`~repro.transpiler.target.Target.coerce` turns into one.  The
unroll/layout/route stage comes from
:func:`repro.transpiler.preset.layout_stage` (shared with the preset
levels); RPO and Hoare splice their own passes around it.

The factories return plain schedules; the execution semantics live in
:class:`repro.transpiler.passmanager.PassManager`, which runs every
scheduled pass once, in order (the Fig. 8 fixed-point loop's passes once
per iteration), and every run returns a
:class:`~repro.transpiler.passmanager.TranspileResult` with per-pass and
per-loop-iteration metrics -- the paper's transpile-time mechanism made
observable per run.

Every gate memoizes its own matrix
(:attr:`~repro.circuit.instruction.Gate.matrix`), and the passes carry the
same gate objects from pass to pass, so the state trackers, 1q fusion and
block consolidation build each gate's matrix once per compile.  Block
consolidation's two-qubit syntheses are memoized in the run's
:class:`~repro.transpiler.cache.AnalysisCache`.  QBO and QPO each compute the
``same_pair_adjacent_indices`` map that guards their SWAP rewrites from
the circuit they are given.  Callers
wanting cross-run sharing (the serving path) go through
:func:`repro.transpiler.frontend.transpile` or a long-lived
:class:`~repro.transpiler.service.CompileService`, which keep one warm
cache under every batch.

Prefer ``transpile(circuit, target=..., pipeline="rpo")`` over wiring
these factories by hand.
"""

from __future__ import annotations

from repro.transpiler.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import PassManager
from repro.transpiler.passes import (
    Optimize1qGates,
    RemoveAnnotations,
    RemoveDiagonalGatesBeforeMeasure,
    Unroller,
)
from repro.transpiler.preset import layout_stage, optimization_loop
from repro.transpiler.target import Target
from repro.rpo.hoare import HoareOptimizer
from repro.rpo.qbo import QBOPass
from repro.rpo.qpo import QPOPass

__all__ = ["rpo_pass_manager", "rpo_extended_pass_manager", "hoare_pass_manager"]


def rpo_pass_manager(
    target: Target | CouplingMap,
    seed: int | None = None,
    initial_layout: Layout | None = None,
    enable_qpo_blocks: bool = False,
    general_eigenphase: bool = False,
) -> PassManager:
    """Level 3 extended with QBO/QPO at the Fig. 8 positions.

    The two flags enable the paper's *proposed* generalisations beyond what
    its evaluation exercises: the Sec. V-D two-qubit-block state
    preparation (``enable_qpo_blocks``) and the arbitrary-eigenphase
    controlled-gate rule (``general_eigenphase``); see
    :func:`rpo_extended_pass_manager` and the ablation benchmarks.
    """
    target = Target.coerce(target)
    basis = target.basis
    pm = PassManager()
    pm.append(QBOPass(general_eigenphase=general_eigenphase))   # line 1
    pm.append(                                                  # lines 2-4
        layout_stage(
            target,
            dense=True,
            swap_trials=8,
            seed=seed,
            initial_layout=initial_layout,
            unroll_after=False,
        )
    )
    pm.append(QBOPass(general_eigenphase=general_eigenphase))  # line 5
    pm.append(Unroller(basis + ("swap", "swapz")))         # line 6
    pm.append(Optimize1qGates(basis))                      # line 7
    pm.append(QPOPass(optimize_blocks=enable_qpo_blocks))  # line 8
    pm.append(                                             # lines 9-10
        optimization_loop(basis, commutative=True, consolidate=True)
    )
    pm.append(RemoveDiagonalGatesBeforeMeasure())
    pm.append(RemoveAnnotations())
    return pm


def rpo_extended_pass_manager(
    target: Target | CouplingMap,
    seed: int | None = None,
    initial_layout: Layout | None = None,
) -> PassManager:
    """RPO with every proposed generalisation switched on.

    Enables the Sec. V-D block state-preparation rewrite and the
    general-eigenphase controlled-gate rule.  Strictly functional-
    equivalence-preserving, usually strictly stronger than the paper's
    evaluated configuration (dramatically so on QPE, whose phase kicks
    collapse to one-qubit gates).
    """
    return rpo_pass_manager(
        target,
        seed=seed,
        initial_layout=initial_layout,
        enable_qpo_blocks=True,
        general_eigenphase=True,
    )


def hoare_pass_manager(
    target: Target | CouplingMap,
    seed: int | None = None,
    initial_layout: Layout | None = None,
) -> PassManager:
    """Level 3 with the Hoare-logic pass appended (paper Sec. VII-B).

    The Hoare pass is given the same two slots QBO occupies in the RPO
    pipeline (before unrolling and after routing), which is generous to the
    baseline; it still finds a strict subset of the RPO rewrites.
    """
    target = Target.coerce(target)
    basis = target.basis
    pm = PassManager()
    pm.append(HoareOptimizer())
    pm.append(
        layout_stage(
            target,
            dense=True,
            swap_trials=8,
            seed=seed,
            initial_layout=initial_layout,
            unroll_after=False,
        )
    )
    pm.append(HoareOptimizer())
    pm.append(Unroller(basis))
    pm.append(Optimize1qGates(basis))
    pm.append(optimization_loop(basis, commutative=True, consolidate=True))
    pm.append(RemoveDiagonalGatesBeforeMeasure())
    pm.append(RemoveAnnotations())
    return pm
