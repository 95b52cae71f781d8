"""Two-qubit block collection and re-synthesis.

``ConsolidateBlocks`` is the unitary-preserving peephole optimization of
Qiskit's level 3 (paper Sec. II-B): it collects maximal runs of gates acting
on the same qubit pair (``Collect2qBlocks``), computes each block's 4x4
unitary, and replaces the block with a minimal-CNOT re-synthesis when that
reduces the two-qubit gate count.

This is the pass the paper contrasts RPO against: it must preserve the
block's *unitary*, so it can never exploit known input states the way
QBO/QPO do.

The pass runs in five steps and returns its output as one
:meth:`~repro.circuit.QuantumCircuit.splice` of its input:

1. **collect** -- a linear scan records every block of the circuit, in
   the order the blocks close, and sets aside the pass's own output (see
   below);
2. **batched matrices** -- all block unitaries are computed in one batched
   reduction (:func:`repro.linalg.batch.two_qubit_chain_unitaries` --
   per-gate matrices stacked, 1q gates embedded on stacked operands,
   chains identity-padded and chain-multiplied in time order, bit-identical
   to a per-block ``embed_gate`` + matmul accumulation, which the tests
   keep as the oracle);
3. **decide and bound** -- one bulk lookup in the run's
   :class:`~repro.transpiler.cache.AnalysisCache` gives every block the
   memo of its unitary, with the minimal CNOT count (the ``budget``
   synthesis itself starts from, and a lower bound on the replacement's
   CNOT count and size); the budgets of all unitaries new to the cache come
   from one stacked :func:`~repro.linalg.weyl.cnot_budgets` call.  A block
   whose budget already exceeds its CX cost, or ties it without holding
   more gates than the budget, cannot be improved and keeps its records
   (prescan).  On any other CX-count tie only the budget-CNOT candidate
   can win, and no budget plan is smaller than the structural floor
   (:func:`~repro.linalg.two_qubit_synthesis.plan_size_floor`: 3 gates for
   2 CNOTs, 7 for 3), so a tie no larger than the floor is rejected with
   no linear algebra (floor reject).  Every other fresh tie gets its
   unitary's proven plan-size bound from one stacked
   :func:`~repro.linalg.two_qubit_synthesis.plan_size_bounds` call -- one
   gate more than the floor unless the unitary is its plan's template up
   to phases (one 4x4 product, no eigendecomposition), and for a 2-CNOT
   tie one bound short of refutal, one more when every template it could
   match has a non-zero ``Ry`` angle -- and a tie no larger than its bound
   is rejected with no plan (bound reject);
4. **price and plan in bulk** -- the budget plans of every unitary the run
   may still price (a fresh tie above its bound) or synthesize are made in
   one call
   (:func:`~repro.linalg.two_qubit_synthesis.plan_two_qubit_unitaries`:
   gate tuples, no circuit, no check) over the stacked Weyl kernel; a tie
   is rejected when there is no plan or it is not smaller than the block;
5. **edit, building and verifying only what is kept** -- one edit per
   kept rewrite, in close order, removes the block's records and puts its
   re-synthesis at the block's last record, adding that circuit's phase;
   each ``u3`` of it is placed as the u-gate
   :func:`~repro.transpiler.passes.optimize_1q.u_gate` picks in the
   target basis, the form ``Optimize1qGates`` would rebuild it in.
   Every other record stays where it is, so a run that keeps no rewrite
   returns its input.  Tie winners and blocks whose budget is below their
   CX cost go to
   :func:`~repro.linalg.two_qubit_synthesis.synthesize_two_qubit_unitary`
   with their budget and bulk-made plan, so a winning tie is built from
   the plan that priced it.  Synthesis multiplies the plan out, checks it
   against the block unitary and only then builds the circuit; on a miss
   it escalates the CNOT count and plans again.

Every decision is memoized per distinct unitary per cache -- the proven
plan-size floor of a bound reject, the plan size, then the replacement or
the failure -- for repeats from the fixed-point loop or within a circuit; a
floor reject writes nothing, and a bound reject only the floor, so a larger
block of the same unitary is still priced.  The bound sits far below any
plan synthesis would keep, so steps 3 to 5 skip only rewrites the pass
would have rejected: on a run's own, the output is bit-identical to
synthesizing every block.  The oracle parity tests hold it to that, and
every block's decision to pricing each tie from its exact plan.

**Own output.**  Within one pipeline run the pass also leaves alone each
block whose two-qubit records are exactly those of one re-synthesis it
placed in an earlier run -- the same records, in order, and no other --
and builds no matrix, budget or plan for it: that block is a minimal-CNOT
replacement the pass already chose.  The records are held by reference
in the run's :func:`~repro.transpiler.passmanager.run_scratch` (never on
the pass, whose manager may run concurrently, nor on the analysis cache,
which runs may share), and a block left alone is held again for the next
run.  A block that a foreign two-qubit record joins, or that spans two
re-syntheses, is priced again.  The parity tests hold every pass run of
the seed-1 Table II set, and runs on random circuits, to a run that
prices every block.

``AnalysisCache.stats`` counts ``synth_own_skips``,
``synth_prescan_skips``, ``synth_floor_rejects``, ``synth_tie_rejects`` (a
bound reject counts here too, and in ``synth_bound_rejects``),
``synth_memo_hits``, ``synth_attempts``, ``synth_failures`` and
``synth_kept``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left

import numpy as np

from repro.circuit.quantumcircuit import CircuitInstruction, QuantumCircuit
from repro.linalg.batch import two_qubit_chain_unitaries
from repro.linalg.two_qubit_synthesis import (
    SYNTHESIS_ERRORS,
    plan_size_bounds,
    plan_size_floor,
    plan_two_qubit_unitaries,
    synthesize_two_qubit_unitary,
)
from repro.transpiler.cache import AnalysisCache, SynthesisMemo, rewrite_counter
from repro.transpiler.passes.optimize_1q import u_basis, u_gate
from repro.transpiler.passmanager import PropertySet, TransformationPass, run_scratch

__all__ = ["ConsolidateBlocks"]

_UNPLANNED = object()  # ``_Block.plan`` of a block whose unitary was not planned

#: :func:`~repro.transpiler.passmanager.run_scratch` key of the pass's own
#: output: by qubit pair, the two-qubit records of each re-synthesis an
#: earlier run placed and the runs since left alone
_PLACED = "ConsolidateBlocks.placed"


#: CX-equivalent cost of two-qubit gates when they are later unrolled to
#: the CNOT basis (swap = 3, swapz = 2, generic unitary synthesis <= 3).
_CX_COST = {"cx": 1, "cz": 1, "cy": 1, "ch": 2, "cp": 2, "crx": 2, "cry": 2,
            "crz": 2, "cu3": 2, "swap": 3, "swapz": 2, "iswap": 2}


class _Block:
    """A growing run of gates confined to one qubit pair."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair  # ordered (low, high)
        self.indices: list[int] = []  # input indices of ``instructions``
        self.instructions: list[CircuitInstruction] = []
        self.num_2q = 0
        self.cx_cost = 0
        self.memo: SynthesisMemo | None = None
        #: the budget plan of the block's unitary, made in bulk for this run
        #: (a ``SynthesisPlan``, ``None`` when no template matches, or the
        #: typed error); ``_UNPLANNED`` when the run needs none
        self.plan = _UNPLANNED
        #: a proven lower bound on the budget plan's size: the memo's
        #: ``size_floor``, or this run's bound when a fresh tie exceeds that
        self.bound = 0

    def add(self, index: int, instruction: CircuitInstruction) -> None:
        self.indices.append(index)
        self.instructions.append(instruction)
        if len(instruction.qubits) == 2:
            self.num_2q += 1
            self.cx_cost += _CX_COST.get(instruction.operation.name, 3)

    def local_wires(self, instruction: CircuitInstruction) -> tuple[int, ...]:
        """Block-local wires of one instruction (wire 0 = ``pair[0]``)."""
        wire_of = {self.pair[0]: 0, self.pair[1]: 1}
        return tuple(wire_of[q] for q in instruction.qubits)


class ConsolidateBlocks(TransformationPass):
    """Collect and re-synthesise two-qubit blocks (Collect2qBlocks +
    ConsolidateBlocks rolled into one linear scan).

    ``basis`` is the target's gate basis (``None``: the IBM set); each
    ``u3`` of a kept re-synthesis is placed as the u-gate
    :func:`~repro.transpiler.passes.optimize_1q.u_gate` picks for it.
    """

    #: blocks with fewer two-qubit gates are left as they are
    _MIN_2Q = 2

    def __init__(self, basis=None):
        self.u1, self.u2 = u_basis(basis)

    def collect(self, circuit: QuantumCircuit) -> list[_Block]:
        """Scan ``circuit`` into its two-qubit blocks, in the order they
        close.

        A block opens at a two-qubit gate and takes every later gate on its
        pair until a record from outside touches one of its wires, or the
        circuit ends.  One-qubit gates on a wire no block holds belong to
        none.
        """
        blocks: list[_Block] = []
        block_of: dict[int, _Block] = {}

        def close(qubit: int) -> None:
            block = block_of.get(qubit)
            if block is not None:
                for wire in block.pair:
                    del block_of[wire]
                blocks.append(block)

        for index, instruction in enumerate(circuit.data):
            operation = instruction.operation
            qubits = instruction.qubits
            is_simple_gate = (
                len(qubits) in (1, 2)
                and operation.is_gate()
                and not operation.is_directive
                and not instruction.clbits
                and _has_matrix(operation)
            )
            if is_simple_gate and len(qubits) == 1:
                block = block_of.get(qubits[0])
                if block is not None:
                    block.add(index, instruction)
                continue
            if is_simple_gate:
                a, b = qubits
                pair = (min(a, b), max(a, b))
                block = block_of.get(a)
                if block is not None and block is block_of.get(b) and block.pair == pair:
                    block.add(index, instruction)
                    continue
                close(a)
                close(b)
                block = block_of[a] = block_of[b] = _Block(pair)
                block.add(index, instruction)
                continue
            # anything else -- a gate with no matrix included -- closes the
            # blocks on the touched qubits
            for qubit in qubits:
                close(qubit)

        blocks.extend(dict.fromkeys(block_of.values()))
        return blocks

    def _block_matrices(self, blocks: list[_Block]) -> dict[int, np.ndarray]:
        """4x4 unitaries of every block, keyed by ``id(block)``: every block
        reduces its gates' memoized matrices in a single stacked-operand
        call.
        """
        if not blocks:
            return {}
        chains = [
            [
                (instruction.operation.matrix, block.local_wires(instruction))
                for instruction in block.instructions
            ]
            for block in blocks
        ]
        unitaries = two_qubit_chain_unitaries(chains)
        return {id(block): unitaries[index] for index, block in enumerate(blocks)}

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        cache = AnalysisCache.ensure(property_set)
        rewrites = rewrite_counter(property_set)
        scratch = run_scratch(property_set)
        own = scratch.get(_PLACED, {})
        blocks, own_blocks = [], []
        for block in self.collect(circuit):
            if block.num_2q < self._MIN_2Q:
                continue
            if _is_own(block, own):
                cache.stats["synth_own_skips"] += 1
                own_blocks.append(block)
            else:
                blocks.append(block)
        unitaries = self._block_matrices(blocks)
        self._plan_blocks(blocks, unitaries, cache)
        edits = []
        for block in blocks:
            replacement = self._replacement(block, unitaries[id(block)], cache)
            if replacement is None or not self._improves(block, replacement):
                continue
            rewrites[self.name] += 1
            cache.stats["synth_kept"] += 1
            records = [
                (self._basis_gate(inner.operation), tuple(block.pair[q] for q in inner.qubits), ())
                for inner in replacement.data
            ]
            edits.append((block.indices, block.indices[-1], records, replacement.global_phase))
        output = circuit.splice(edits)
        placed = _placed_groups(output, edits)
        for block in own_blocks:
            placed.setdefault(block.pair, []).append(_two_qubit_records(block.instructions))
        scratch[_PLACED] = placed
        return output

    def _basis_gate(self, operation):
        """A re-synthesis gate as the basis takes it: each ``u3`` as the
        u-gate :func:`u_gate` picks (synthesis emits no identity ``u3``,
        but one would stay as it is)."""
        if operation.name != "u3":
            return operation
        gate = u_gate(*operation.params, self.u1, self.u2)
        return operation if gate is None else gate[0](*gate[1])

    @staticmethod
    def _improves(block: _Block, replacement: QuantumCircuit) -> bool:
        """Whether ``replacement`` has fewer CNOTs than the block's CX cost,
        or as many and fewer gates."""
        new_2q = replacement.num_nonlocal_gates()
        return new_2q < block.cx_cost or (
            new_2q == block.cx_cost and replacement.size() < len(block.instructions)
        )

    def _needs_plan(self, block: _Block) -> bool:
        """Whether editing ``block`` may read its unitary's budget plan:
        to price a fresh CX-count tie larger than its proven plan-size
        bound, or to synthesize (a budget below the CX cost, or a tie whose
        memoized plan size wins).  Nothing is needed once the unitary's
        synthesis is memoized."""
        memo = block.memo
        if memo.synthesized:
            return False
        if memo.budget < block.cx_cost:
            return True
        if memo.budget > block.cx_cost:
            return False
        size = len(block.instructions)
        if memo.plan_size is None:
            return size > max(plan_size_floor(memo.budget), block.bound)
        return memo.plan_size < size

    def _fresh_tie(self, block: _Block) -> bool:
        """Whether ``block`` is a CX-count tie above the plan-size floor
        whose unitary has no plan size yet."""
        memo = block.memo
        return (
            not memo.synthesized
            and memo.plan_size is None
            and memo.budget == block.cx_cost
            and len(block.instructions) > plan_size_floor(memo.budget)
        )

    def _plan_blocks(
        self, blocks: list[_Block], unitaries: dict[int, np.ndarray], cache: AnalysisCache
    ) -> None:
        """Decide, bound, then price and plan in bulk.

        One :meth:`AnalysisCache.syntheses` lookup gives every block its
        memo (one stacked budget call for the unitaries new to the cache).
        Every block starts from its memo's proven plan-size floor; a fresh
        CX-count tie above it gets its unitary's bound from one stacked
        :func:`plan_size_bounds` call, so a tie no larger than its bound
        needs no plan.  Then one :func:`plan_two_qubit_unitaries` call
        makes the budget plan of every unitary some block of the run may
        still price or synthesize.  Every block of that unitary gets the
        plan, so whichever block reads it first in close order finds it,
        exactly as if the plans had been made one by one.
        """
        memos = cache.syntheses([unitaries[id(block)] for block in blocks])
        groups: dict[int, list[_Block]] = {}
        for block, memo in zip(blocks, memos):
            block.memo = memo
            block.bound = memo.size_floor
            groups.setdefault(id(memo), []).append(block)
        unbounded = []  # (group, its largest fresh tie above the memo's floor)
        for group in groups.values():
            size = max(
                (len(block.instructions) for block in group if self._fresh_tie(block)),
                default=0,
            )
            if size > group[0].bound:
                unbounded.append((group, size))
        bounds = plan_size_bounds(
            [unitaries[id(group[0])] for group, _ in unbounded],
            [group[0].memo.budget for group, _ in unbounded],
            [size for _, size in unbounded],
        )
        for (group, _), bound in zip(unbounded, bounds):
            for block in group:
                block.bound = bound
        planned = [
            group for group in groups.values() if any(map(self._needs_plan, group))
        ]
        if not planned:
            return
        plans = plan_two_qubit_unitaries(
            [unitaries[id(group[0])] for group in planned],
            [group[0].memo.budget for group in planned],
        )
        for group, plan in zip(planned, plans):
            for block in group:
                block.plan = plan

    def _replacement(
        self, block: _Block, unitary: np.ndarray, cache: AnalysisCache
    ) -> QuantumCircuit | None:
        """The block's re-synthesis, or ``None`` when it provably cannot be
        kept or synthesis failed.

        A replacement never has fewer CNOTs than the budget, nor fewer
        gates, so a budget above ``cx_cost`` -- or equal to it on a block
        of at most ``budget`` gates -- is a rewrite ``_improves`` would
        reject (prescan).  On any other CX-count tie only the budget plan
        can win: synthesis either returns it or escalates to more CNOTs
        than ``cx_cost``.  So a tie is rejected without building or
        checking a circuit when the block is no larger than the plan-size
        floor (floor reject; the memo is left alone), no larger than its
        unitary's proven bound (bound reject; the memo keeps the bound as
        its ``size_floor``, so a larger block of the same unitary is still
        priced), or when its budget plan -- made in bulk by
        ``_plan_blocks`` -- is missing or not smaller than the block.
        """
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
                if size <= plan_size_floor(memo.budget):
                    cache.stats["synth_floor_rejects"] += 1
                    return None
                if size <= memo.size_floor:
                    cache.stats["synth_memo_hits"] += 1
                    return None
                if size <= block.bound:
                    memo.size_floor = block.bound
                    cache.stats["synth_tie_rejects"] += 1
                    cache.stats["synth_bound_rejects"] += 1
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
            # ``_needs_plan`` holds for every block that gets here
            memo.replacement = synthesize_two_qubit_unitary(
                unitary, planned=(memo.budget, block.plan)
            )
        except SYNTHESIS_ERRORS:
            cache.stats["synth_failures"] += 1
        memo.synthesized = True
        return memo.replacement


def _two_qubit_records(records) -> list[CircuitInstruction]:
    return [record for record in records if len(record.qubits) == 2]


def _is_own(block: _Block, placed: dict) -> bool:
    """Whether the two-qubit records of ``block`` are those of one group in
    ``placed`` (held by reference, by qubit pair): the same records, in
    the same order, and no other."""
    mine = _two_qubit_records(block.instructions)
    return any(
        len(group) == len(mine) and all(map(operator.is_, group, mine))
        for group in placed.get(block.pair, ())
    )


def _placed_groups(output: QuantumCircuit, edits: list) -> dict:
    """The two-qubit records each of ``edits`` placed in ``output``, one
    group per edit, by qubit pair.

    Each edit removes the record at its ``at`` and no two share one, so its
    replacement starts where ``at`` lands: ``at``, less the records removed
    before it, plus the records placed before it.
    """
    removed = sorted(index for indices, *_ in edits for index in indices)
    placed: dict[tuple[int, int], list[list[CircuitInstruction]]] = {}
    before = 0
    for _, at, records, _ in sorted(edits, key=lambda edit: edit[1]):
        start = at - bisect_left(removed, at) + before
        group = _two_qubit_records(output.data[start : start + len(records)])
        if group:
            placed.setdefault(tuple(sorted(group[0].qubits)), []).append(group)
        before += len(records)
    return placed


def _has_matrix(operation) -> bool:
    """Whether the gate has a matrix (an opaque gate has none)."""
    try:
        operation.matrix
    except NotImplementedError:
        return False
    return True
