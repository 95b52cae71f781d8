"""``ConsolidateBlocks`` as it priced CX-count ties before the plan-size
bound.

:class:`ExactTiePricingConsolidateBlocks` overrides only the bound step:
the floor of every unplanned unitary is the structural one the exact
pricing started from (3 gates for 2 CNOTs, 6 for 3) and no bound raises
it, so every tie above that floor gets its exact budget plan from the bulk
:func:`~repro.linalg.two_qubit_synthesis.plan_two_qubit_unitaries` call,
and is rejected when the plan is missing or not smaller than the block.
Collection, the block unitaries, the tie rule, synthesis and the splice
edits are the production code's, so the parity tests hold the bound's
refutations, and nothing else, to the exact pricing: every block's
kept/rejected decision and every output bit.
"""

from __future__ import annotations

from repro.transpiler.passes import ConsolidateBlocks

#: the structural plan-size floors the exact pricing started from
EXACT_FLOORS = {2: 3, 3: 6}


class ExactTiePricingConsolidateBlocks(ConsolidateBlocks):
    """Prices every CX-count tie above the structural floor from its plan."""

    def _raise_floors(self, groups, unitaries) -> None:
        for group in groups:
            memo = group[0].memo
            if memo.plan_size is None and memo.budget in EXACT_FLOORS:
                memo.floor = EXACT_FLOORS[memo.budget]
