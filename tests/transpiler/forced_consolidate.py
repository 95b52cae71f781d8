"""``ConsolidateBlocks`` re-synthesizing every block and keeping every
re-synthesis.

:class:`Forced` overrides the decide step of any ``ConsolidateBlocks``
class it is mixed into: every block with a two-qubit gate is a candidate,
none is skipped by the prescan, floor, bound or tie pricing, each
unitary is planned and synthesized once per cache, and every re-synthesis
is kept.  Collection, the block unitaries, planning, synthesis and the
splice edits stay the class's own, so the forced parity tests reach the
synthesis and edit paths on blocks the shipped pass would leave alone.
"""

from __future__ import annotations

from repro.linalg.two_qubit_synthesis import SYNTHESIS_ERRORS, synthesize_two_qubit_unitary
from repro.transpiler.passes import ConsolidateBlocks


class Forced:
    """Mix-in: re-synthesize every block and keep the result."""

    _MIN_2Q = 1

    def _needs_plan(self, block) -> bool:
        return not block.memo.synthesized

    def _fresh_tie(self, block) -> bool:
        return False

    @staticmethod
    def _improves(block, replacement) -> bool:
        return True

    def _replacement(self, block, unitary, cache):
        memo = block.memo
        if memo.synthesized:
            cache.stats["synth_memo_hits"] += 1
            return memo.replacement
        cache.stats["synth_attempts"] += 1
        try:
            memo.replacement = synthesize_two_qubit_unitary(
                unitary, planned=(memo.budget, block.plan)
            )
        except SYNTHESIS_ERRORS:
            cache.stats["synth_failures"] += 1
        memo.synthesized = True
        return memo.replacement


class ForcedConsolidateBlocks(Forced, ConsolidateBlocks):
    pass
