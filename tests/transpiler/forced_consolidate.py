"""``ConsolidateBlocks`` re-synthesizing every block and keeping every
re-synthesis.

:class:`Forced` overrides the decide step of any ``ConsolidateBlocks``
class it is mixed into: every block with a two-qubit gate is a candidate
that may win, so none is skipped by the prescan or rejected as a tie, no
floor is bounded, each unitary is planned and synthesized once per cache,
and every re-synthesis is kept.  Collection, the block unitaries,
planning, synthesis and the splice edits stay the class's own, so the
forced parity tests reach the synthesis and edit paths on blocks the
shipped pass would leave alone.
"""

from __future__ import annotations

from repro.transpiler.passes import ConsolidateBlocks


class Forced:
    """Mix-in: re-synthesize every block and keep the result."""

    _MIN_2Q = 1

    def _may_win(self, block) -> bool:
        return True

    def _raise_floors(self, groups, unitaries) -> None:
        """No bound: a one-gate block's budget may be below the 2 CNOTs
        :func:`~repro.linalg.two_qubit_synthesis.plan_size_bounds` takes."""

    @staticmethod
    def _improves(block, replacement) -> bool:
        return True


class ForcedConsolidateBlocks(Forced, ConsolidateBlocks):
    pass
