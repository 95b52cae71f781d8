"""``ConsolidateBlocks`` as it priced CX-count ties before the plan-size
bound.

:class:`ExactTiePricingConsolidateBlocks` overrides only the decide and
price steps: every fresh tie above the structural floor (3 gates for 2
CNOTs, 6 for 3, the floors of that pass) gets its exact budget plan from
the bulk :func:`plan_two_qubit_unitaries` call, and is rejected when the
plan is missing or not smaller than the block.  Collection, the block
unitaries, synthesis and the splice edits are the production code's, so
the parity tests hold the bound's refutations, and nothing else, to the
exact pricing: every block's kept/rejected decision and every output bit.
"""

from __future__ import annotations

import math

from repro.linalg.two_qubit_synthesis import (
    SYNTHESIS_ERRORS,
    plan_two_qubit_unitaries,
    synthesize_two_qubit_unitary,
)
from repro.transpiler.passes import ConsolidateBlocks

#: the structural plan-size floors the exact pricing started from
EXACT_FLOORS = {2: 3, 3: 6}


class ExactTiePricingConsolidateBlocks(ConsolidateBlocks):
    """Prices every fresh CX-count tie above the floor from its plan."""

    def _needs_plan(self, block) -> bool:
        memo = block.memo
        if memo.synthesized:
            return False
        if memo.budget < block.cx_cost:
            return True
        if memo.budget > block.cx_cost:
            return False
        size = len(block.instructions)
        if memo.plan_size is None:
            return size > EXACT_FLOORS[memo.budget]
        return memo.plan_size < size

    def _plan_blocks(self, blocks, unitaries, cache) -> None:
        memos = cache.syntheses([unitaries[id(block)] for block in blocks])
        groups: dict[int, list] = {}
        for block, memo in zip(blocks, memos):
            block.memo = memo
            groups.setdefault(id(memo), []).append(block)
        planned = [group for group in groups.values() if any(map(self._needs_plan, group))]
        if not planned:
            return
        plans = plan_two_qubit_unitaries(
            [unitaries[id(group[0])] for group in planned],
            [group[0].memo.budget for group in planned],
        )
        for group, plan in zip(planned, plans):
            for block in group:
                block.plan = plan

    def _replacement(self, block, unitary, cache):
        memo = block.memo
        size = len(block.instructions)
        tie = memo.budget == block.cx_cost
        cannot_win = memo.budget > block.cx_cost or (tie and size <= memo.budget)
        if cannot_win:
            cache.stats["synth_prescan_skips"] += 1
            return None
        if memo.synthesized:
            cache.stats["synth_memo_hits"] += 1
            return memo.replacement
        if tie:
            fresh = memo.plan_size is None
            if fresh:
                if size <= EXACT_FLOORS[memo.budget]:
                    cache.stats["synth_floor_rejects"] += 1
                    return None
                if isinstance(block.plan, Exception):
                    cache.stats["synth_failures"] += 1
                    memo.synthesized = True
                    return None
                memo.plan_size = math.inf if block.plan is None else block.plan.size
            if memo.plan_size >= size:
                cache.stats["synth_tie_rejects" if fresh else "synth_memo_hits"] += 1
                return None
        cache.stats["synth_attempts"] += 1
        try:
            memo.replacement = synthesize_two_qubit_unitary(
                unitary, planned=(memo.budget, block.plan)
            )
        except SYNTHESIS_ERRORS:
            cache.stats["synth_failures"] += 1
        memo.synthesized = True
        return memo.replacement
