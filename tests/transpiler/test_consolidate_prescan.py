"""``ConsolidateBlocks``' CNOT-bound prescan, tie plans and synthesis memo.

The shipped pass skips synthesis for blocks whose minimal CNOT count shows
the rewrite cannot be kept, refutes CX-count ties no larger than their
proven plan-size bound, settles the other ties from the budget plan alone,
and plans and synthesizes each distinct block unitary at most once per
:class:`AnalysisCache`.  All of it must be invisible in the
output: every circuit is compared bit for bit (exact ``float.hex`` of every
parameter and of the global phase) against :class:`OracleConsolidateBlocks`,
which synthesizes every candidate block -- the pass as it was before the
prescan and memo -- and every block's kept/rejected decision is held to
:class:`ExactTiePricingConsolidateBlocks`, the pass as it priced every
tie from its exact plan before the bound.
"""

import numpy as np
import pytest

import repro.linalg.two_qubit_synthesis as two_qubit_synthesis
import repro.transpiler.cache as cache_module
import repro.transpiler.passes.consolidate as consolidate
import repro.transpiler.preset as preset
from repro.algorithms import grover_circuit, quantum_phase_estimation
from repro.circuit import QuantumCircuit
from repro.linalg.random import random_su2, random_unitary
from repro.linalg.two_qubit_synthesis import (
    TwoQubitSynthesisError,
    plan_size_bounds,
    plan_two_qubit_unitaries,
    synthesize_two_qubit_unitary,
)
from repro.linalg.weyl import canonical_gate, cnot_budgets, num_cnots_required
from repro.transpiler import transpile
from repro.transpiler.cache import AnalysisCache
from repro.transpiler.passes import IBM_BASIS, ConsolidateBlocks
from repro.transpiler.passmanager import PassManager, PropertySet

from tests.helpers import assert_unitarily_equal, exact_form
from tests.transpiler.exact_tie_pricing import ExactTiePricingConsolidateBlocks
from tests.transpiler.forced_consolidate import Forced, ForcedConsolidateBlocks
from tests.transpiler.presplice_passes import PreSpliceConsolidateBlocks, basis_form


class OracleConsolidateBlocks(PreSpliceConsolidateBlocks):
    """Synthesizes every candidate block; keeps the rewrite only when it
    wins.  No prescan, no memo."""

    def _block_records(self, block, output, unitary, rewrites, cache):
        try:
            replacement = synthesize_two_qubit_unitary(unitary)
        except Exception:
            return None
        if not self._improves(block, replacement):
            return None
        rewrites[self.name] += 1
        output.global_phase += replacement.global_phase
        return [
            (basis_form(inner.operation), tuple(block.pair[q] for q in inner.qubits))
            for inner in replacement.data
        ]


class ForcedOracleConsolidateBlocks(Forced, OracleConsolidateBlocks):
    pass


class ForcedExactTiePricingConsolidateBlocks(Forced, ExactTiePricingConsolidateBlocks):
    pass


def consolidate_both(circuit: QuantumCircuit, force: bool = False):
    """(shipped output, oracle output, shipped pass' cache stats); ``force``
    re-synthesizes every block on both sides and keeps every result."""
    props = PropertySet()
    shipped = (ForcedConsolidateBlocks if force else ConsolidateBlocks)().run(circuit, props)
    oracle = (ForcedOracleConsolidateBlocks if force else OracleConsolidateBlocks)().run(
        circuit, PropertySet()
    )
    return shipped, oracle, AnalysisCache.ensure(props).stats


def assert_matches_oracle(circuit: QuantumCircuit, force: bool = False):
    shipped, oracle, stats = consolidate_both(circuit, force)
    assert exact_form(shipped) == exact_form(oracle)
    return shipped, stats


def random_block_circuit(seed: int, num_qubits: int, depth: int = 60) -> QuantumCircuit:
    """Random gates over 2q gates of every CX cost, plus fences."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(depth):
        roll = rng.random()
        qubit = int(rng.integers(num_qubits))
        if roll < 0.25:
            circuit.u3(*(float(x) for x in rng.uniform(-np.pi, np.pi, 3)), qubit)
        elif roll < 0.40:
            getattr(circuit, str(rng.choice(["h", "s", "t", "x", "sx"])))(qubit)
        elif roll < 0.45:
            circuit.u1(float(rng.uniform(-np.pi, np.pi)), qubit)
        elif roll < 0.92:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            name = str(rng.choice(["cx", "cx", "cz", "cy", "ch", "cp", "swap", "iswap", "unitary"]))
            if name == "cp":
                circuit.cp(float(rng.uniform(-np.pi, np.pi)), a, b)
            elif name == "unitary":
                circuit.unitary(random_unitary(4, rng), [a, b])
            else:
                getattr(circuit, name)(a, b)
        elif roll < 0.96:
            circuit.barrier()
        else:
            circuit.measure(qubit, qubit)
    return circuit


def local_pair(rng) -> np.ndarray:
    return np.kron(random_su2(rng), random_su2(rng))


def unitary_of_class(cnots: int, rng) -> np.ndarray:
    """A random two-qubit unitary needing exactly ``cnots`` CNOTs."""
    if cnots == 0:
        return local_pair(rng)
    if cnots == 3:
        return random_unitary(4, rng)
    if cnots == 1:
        core = canonical_gate(np.pi / 4, 0.0, 0.0)
    else:
        a, b = rng.uniform(0.1, np.pi / 4 - 0.1, 2)
        core = canonical_gate(max(a, b), min(a, b), 0.0)
    return local_pair(rng) @ core @ local_pair(rng)


def append_block(circuit: QuantumCircuit, matrix: np.ndarray) -> None:
    """Append cx + u3 gates realising ``matrix`` on qubits (0, 1)."""
    for instruction in synthesize_two_qubit_unitary(matrix).data:
        circuit.append(instruction.operation, instruction.qubits)


def candidate_unitaries(circuit: QuantumCircuit) -> list[np.ndarray]:
    """Unitaries of the blocks ``ConsolidateBlocks`` would consider."""
    pass_ = ConsolidateBlocks()
    blocks = [block for block in pass_.collect(circuit) if block.num_2q >= 2]
    return list(pass_._block_matrices(blocks).values())


class TestPrescanBound:
    """The invariant the prescan rests on: no re-synthesis has fewer CNOTs
    (hence fewer gates) than ``num_cnots_required``."""

    @pytest.mark.parametrize("cnots", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_synthesis_never_beats_the_budget(self, cnots, seed):
        unitary = unitary_of_class(cnots, np.random.default_rng([seed, cnots]))
        budget = num_cnots_required(unitary, atol=1e-7)
        assert budget == cnots
        replacement = synthesize_two_qubit_unitary(unitary)
        assert replacement.num_nonlocal_gates() >= budget
        assert replacement.size() >= budget

    def test_budget_matches_the_cache_family(self):
        rng = np.random.default_rng(7)
        cache = AnalysisCache()
        for cnots in range(4):
            unitary = unitary_of_class(cnots, rng)
            assert cache.synthesis(unitary).budget == num_cnots_required(unitary, atol=1e-7)


class TestOracleParity:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits(self, num_qubits, seed):
        assert_matches_oracle(random_block_circuit(seed, num_qubits))

    @pytest.mark.parametrize("seed", range(3))
    def test_forced_resynthesis_bypasses_prescan(self, seed):
        _, stats = assert_matches_oracle(random_block_circuit(seed, 3), force=True)
        assert stats["synth_prescan_skips"] == 0

    @pytest.mark.parametrize("cnots", [0, 1, 2, 3])
    def test_blocks_of_every_cnot_class(self, cnots):
        rng = np.random.default_rng(cnots)
        circuit = QuantumCircuit(2)
        # a minimal block of the class, then the same unitary with a
        # cancelling cx pair appended
        matrix = unitary_of_class(cnots, rng)
        append_block(circuit, matrix)
        circuit.barrier()
        append_block(circuit, matrix)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        unitaries = candidate_unitaries(circuit)
        assert {num_cnots_required(u, atol=1e-7) for u in unitaries} == {cnots}
        shipped, _ = assert_matches_oracle(circuit)
        assert_unitarily_equal(circuit, shipped)

    @pytest.mark.parametrize("gate", ["swap", "ch"])
    def test_cx_cost_above_two_qubit_count(self, gate):
        circuit = QuantumCircuit(3)
        getattr(circuit, gate)(0, 1)
        circuit.cx(0, 1)
        circuit.barrier()
        getattr(circuit, gate)(1, 2)
        circuit.h(2)
        getattr(circuit, gate)(1, 2)
        circuit.barrier()
        getattr(circuit, gate)(0, 2)
        circuit.cx(2, 0)
        circuit.t(0)
        circuit.cz(0, 2)
        shipped, stats = assert_matches_oracle(circuit)
        assert stats["synth_attempts"] > 0
        assert_unitarily_equal(circuit, shipped)

    def test_equal_cx_count_ties(self):
        circuit = QuantumCircuit(2)
        # budget == cx_cost == len: skipped without synthesis
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.barrier()
        # budget == cx_cost < len, above the plan-size floor but not above
        # its proven bound: rejected with no plan
        circuit.cx(0, 1)
        circuit.u1(0.3, 1)
        circuit.cx(0, 1)
        circuit.u1(0.3, 1)
        circuit.barrier()
        # budget == cx_cost, many redundant 1q gates: planned, synthesized,
        # and the rewrite is kept
        rng = np.random.default_rng(5)

        def scramble():
            for wire in (0, 1, 0, 1):
                circuit.u3(*(float(x) for x in rng.uniform(-np.pi, np.pi, 3)), wire)

        scramble()
        circuit.cx(0, 1)
        scramble()
        circuit.cx(0, 1)
        scramble()
        unitaries = candidate_unitaries(circuit)
        assert [num_cnots_required(u, atol=1e-7) for u in unitaries] == [2, 2, 2]
        shipped, stats = assert_matches_oracle(circuit)
        assert stats["synth_prescan_skips"] == 1
        assert stats["synth_tie_rejects"] == 1
        assert stats["synth_bound_rejects"] == 1
        assert stats["synth_attempts"] == 1
        assert stats["synth_kept"] == 1
        assert_unitarily_equal(circuit, shipped)

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_wins(self, seed):
        """A tie block whose budget plan is smaller is synthesized and kept."""
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(2)

        def scramble():
            for wire in (0, 1, 0, 1):
                circuit.u3(*(float(x) for x in rng.uniform(-np.pi, np.pi, 3)), wire)

        scramble()
        circuit.cx(0, 1)
        scramble()
        circuit.cz(1, 0)
        scramble()
        [unitary] = candidate_unitaries(circuit)
        assert num_cnots_required(unitary, atol=1e-7) == 2
        shipped, stats = assert_matches_oracle(circuit)
        assert stats["synth_tie_rejects"] == 0
        assert stats["synth_attempts"] == 1
        assert stats["synth_kept"] == 1
        assert shipped.size() < circuit.size()
        assert_unitarily_equal(circuit, shipped)

    @pytest.mark.parametrize("angle", [0.3, 1.1, -2.0])
    def test_tie_loses(self, angle):
        """A tie block no larger than its budget plan is rejected from the
        plan alone: nothing is synthesized."""
        circuit = QuantumCircuit(2)
        circuit.h(1)
        circuit.cx(0, 1)
        circuit.rz(angle, 1)
        circuit.cx(0, 1)
        circuit.rz(angle, 1)
        [unitary] = candidate_unitaries(circuit)
        assert num_cnots_required(unitary, atol=1e-7) == 2
        shipped, stats = assert_matches_oracle(circuit)
        assert stats["synth_tie_rejects"] == 1
        assert stats["synth_attempts"] == 0
        assert stats["synth_kept"] == 0
        assert exact_form(shipped) == exact_form(circuit)

    def test_repeated_identical_blocks(self):
        circuit = QuantumCircuit(3)
        # t on the control commutes through: each block is one cx + t
        for pair in [(0, 1), (1, 2), (0, 1), (0, 2), (0, 1)]:
            circuit.cx(*pair)
            circuit.t(pair[0])
            circuit.cx(*pair)
            circuit.cx(*pair)
            circuit.barrier()
        shipped, stats = assert_matches_oracle(circuit)
        assert stats["synth_attempts"] == 1
        assert stats["synth_memo_hits"] == 4
        assert stats["synth_kept"] == 5

    @pytest.mark.parametrize("pipeline", ["level3", "rpo"])
    @pytest.mark.parametrize(
        "circuit",
        [
            quantum_phase_estimation(3),
            grover_circuit(4, design="noancilla"),
            random_block_circuit(11, 5, depth=80),
        ],
        ids=["qpe4", "grover4", "random5"],
    )
    def test_presets(self, pipeline, circuit, monkeypatch):
        shipped = transpile(circuit, target="melbourne", pipeline=pipeline, seed=1)
        monkeypatch.setattr(preset, "ConsolidateBlocks", OracleConsolidateBlocks)
        oracle = transpile(circuit, target="melbourne", pipeline=pipeline, seed=1)
        assert exact_form(shipped) == exact_form(oracle)


class TestSynthesisMemo:
    @pytest.fixture
    def calls(self, monkeypatch):
        """What the pass hands to each step: ``plan`` (unitaries of the
        bulk plan call: ties to price and blocks to synthesize), ``plans``
        (the plans it returned), ``synth`` (unitaries synthesized, with
        the ``planned`` pair each came with), ``replan`` (unitaries
        planned again inside synthesis) and ``bound`` (unitaries of the
        bulk plan-size bound call: fresh ties above the floor)."""
        calls = {"plan": [], "plans": [], "synth": [], "planned": [], "replan": [], "bound": []}
        replan = two_qubit_synthesis.plan_two_qubit_unitaries

        def counting_bounds(unitaries, cnots, sizes=None):
            calls["bound"].extend(unitaries)
            return plan_size_bounds(unitaries, cnots, sizes)

        def counting_plan(unitaries, cnots):
            calls["plan"].extend(unitaries)
            plans = plan_two_qubit_unitaries(unitaries, cnots)
            calls["plans"].extend(plans)
            return plans

        def counting_synth(unitary, **kwargs):
            calls["synth"].append(unitary)
            calls["planned"].append(kwargs.get("planned"))
            return synthesize_two_qubit_unitary(unitary, **kwargs)

        def counting_replan(unitaries, cnots):
            calls["replan"].extend(unitaries)
            return replan(unitaries, cnots)

        monkeypatch.setattr(consolidate, "plan_two_qubit_unitaries", counting_plan)
        monkeypatch.setattr(consolidate, "synthesize_two_qubit_unitary", counting_synth)
        monkeypatch.setattr(consolidate, "plan_size_bounds", counting_bounds)
        monkeypatch.setattr(two_qubit_synthesis, "plan_two_qubit_unitaries", counting_replan)
        return calls

    @staticmethod
    def zz_blocks(k: int) -> QuantumCircuit:
        """``k`` identical cx-u1-cx-u1 blocks: CX-count ties above the
        plan-size floor (4 gates) that the bound refutes (not the template
        up to phases: bound 4; plan size 7), with no plan."""
        circuit = QuantumCircuit(2)
        for _ in range(k):
            circuit.cx(0, 1)
            circuit.u1(0.7, 1)
            circuit.cx(0, 1)
            circuit.u1(0.7, 1)
            circuit.barrier()
        return circuit

    @staticmethod
    def priced_blocks(k: int, angles=(0.7,)) -> QuantumCircuit:
        """``k`` identical cx-u1-u1-cx-u1 blocks per angle (the first
        ``u1`` on the control): CX-count ties the bound cannot refute (5
        gates, bound 4: the class is ``(a, 0, 0)``, so no ``Ry`` gate is
        proven), planned (plan size 7), never kept."""
        circuit = QuantumCircuit(2)
        for angle in angles:
            for _ in range(k):
                circuit.cx(0, 1)
                circuit.u1(0.4, 0)
                circuit.u1(angle, 1)
                circuit.cx(0, 1)
                circuit.u1(angle, 1)
                circuit.barrier()
        return circuit

    @staticmethod
    def template_block(a: float, b: float, extra: bool) -> QuantumCircuit:
        """The 2-CNOT plan template ``CX (Ry(-2b) (x) Rz(2a)) CX`` itself
        (control qubit 1), plus an idle ``id`` when ``extra``."""
        circuit = QuantumCircuit(2)
        circuit.cx(1, 0)
        circuit.ry(-2 * b, 1)
        circuit.rz(2 * a, 0)
        if extra:
            circuit.id(0)
        circuit.cx(1, 0)
        return circuit

    @staticmethod
    def floor_blocks(k: int) -> QuantumCircuit:
        """``k`` identical cx-u1-cx blocks: CX-count ties at the plan-size
        floor (3 gates), rejected with no plan."""
        circuit = QuantumCircuit(2)
        for _ in range(k):
            circuit.cx(0, 1)
            circuit.u1(0.7, 1)
            circuit.cx(0, 1)
            circuit.barrier()
        return circuit

    @staticmethod
    def redundant_blocks(k: int) -> QuantumCircuit:
        """``k`` identical cx-t-cx-cx blocks (one CNOT's worth, three
        spent): synthesized and kept."""
        circuit = QuantumCircuit(2)
        for _ in range(k):
            circuit.cx(0, 1)
            circuit.t(0)
            circuit.cx(0, 1)
            circuit.cx(0, 1)
            circuit.barrier()
        return circuit

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_identical_tie_blocks_plan_once(self, k, calls):
        props = PropertySet()
        out = ConsolidateBlocks().run(self.priced_blocks(k), props)
        assert (len(calls["bound"]), len(calls["plan"]), len(calls["synth"])) == (1, 1, 0)
        stats = AnalysisCache.ensure(props).stats
        assert stats["synth_tie_rejects"] == 1
        assert stats["synth_bound_rejects"] == 0
        assert stats["synth_memo_hits"] == k - 1
        assert stats["synth_kept"] == 0
        assert exact_form(out) == exact_form(self.priced_blocks(k))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_bound_refutes_ties_without_a_plan(self, k, calls):
        """A tie no larger than its unitary's proven plan-size bound is
        rejected with one bound call and no plan; its repeats are memo
        hits, as repeats of a priced tie are."""
        props = PropertySet()
        circuit = self.zz_blocks(k)
        out = ConsolidateBlocks().run(circuit, props)
        assert (len(calls["bound"]), len(calls["plan"]), len(calls["synth"])) == (1, 0, 0)
        cache = AnalysisCache.ensure(props)
        assert cache.stats["synth_bound_rejects"] == 1
        assert cache.stats["synth_tie_rejects"] == 1
        assert cache.stats["synth_memo_hits"] == k - 1
        assert cache.stats["synth_kept"] == 0
        [unitary, *_] = candidate_unitaries(circuit)
        memo = cache.synthesis(unitary)
        assert (memo.size_floor, memo.plan_size) == (4, None)
        assert exact_form(out) == exact_form(circuit)
        oracle = ExactTiePricingConsolidateBlocks().run(circuit, PropertySet())
        assert exact_form(out) == exact_form(oracle)
        # a later run sharing the cache refutes from the memo: no bound call
        again = ConsolidateBlocks().run(circuit, props)
        assert len(calls["bound"]) == 1
        assert cache.stats["synth_memo_hits"] == 2 * k - 1
        assert exact_form(again) == exact_form(circuit)

    def test_the_bound_leaves_larger_blocks_to_the_plan(self, calls):
        """A bound reject keeps the bound as the memo's floor, not as a plan
        size: a later, larger block of the same unitary is still priced,
        and rejected from its plan."""
        circuit = self.zz_blocks(1)
        circuit.cx(0, 1)
        circuit.u1(0.7, 1)
        circuit.cx(0, 1)
        circuit.id(0)
        circuit.u1(0.7, 1)
        small, large = candidate_unitaries(circuit)
        assert small.tobytes() == large.tobytes()
        props = PropertySet()
        out = ConsolidateBlocks().run(circuit, props)
        cache = AnalysisCache.ensure(props)
        assert (len(calls["bound"]), len(calls["plan"]), len(calls["synth"])) == (1, 1, 0)
        assert cache.stats["synth_bound_rejects"] == 1
        assert cache.stats["synth_tie_rejects"] == 2
        memo = cache.synthesis(small)
        assert (memo.size_floor, memo.plan_size) == (4, 7)
        assert exact_form(out) == exact_form(circuit)

    @pytest.mark.parametrize("a, b", [(0.3, 0.2), (0.7, 0.4), (1.1, -0.5)])
    def test_a_template_up_to_phases_is_priced(self, a, b, calls):
        """The plan template itself is not refuted by the outer-factor test
        (its bound is the 3-gate floor), so a 5-gate copy is planned; a
        4-gate one is refuted by the ``Ry(-2b)`` stage alone."""
        props = PropertySet()
        ConsolidateBlocks().run(self.template_block(a, b, extra=True), props)
        stats = AnalysisCache.ensure(props).stats
        assert (len(calls["bound"]), len(calls["plan"])) == (1, 1)
        assert stats["synth_bound_rejects"] == 0
        assert stats["synth_tie_rejects"] + stats["synth_kept"] == 1
        circuit = self.template_block(a, b, extra=False)
        [unitary] = candidate_unitaries(circuit)
        assert plan_size_bounds([unitary], [2]) == [3]
        assert plan_size_bounds([unitary], [2], [4]) == [4]
        props = PropertySet()
        out = ConsolidateBlocks().run(circuit, props)
        assert len(calls["plan"]) == 1
        assert AnalysisCache.ensure(props).stats["synth_bound_rejects"] == 1
        assert exact_form(out) == exact_form(circuit)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_identical_blocks_synthesize_once(self, k, calls):
        """The unitary is planned once, in the bulk call, and synthesized
        once from that plan and the memo's budget."""
        props = PropertySet()
        circuit = self.redundant_blocks(k)
        out = ConsolidateBlocks().run(circuit, props)
        assert (len(calls["plan"]), len(calls["synth"])) == (1, 1)
        [(budget, plan)] = calls["planned"]
        assert budget == 1
        assert plan is calls["plans"][0]
        assert calls["replan"] == []
        oracle = OracleConsolidateBlocks().run(circuit, PropertySet())
        stats = AnalysisCache.ensure(props).stats
        assert stats["synth_memo_hits"] == k - 1
        assert stats["synth_kept"] == k
        assert exact_form(out) == exact_form(oracle)

    def test_second_fixed_point_iteration_makes_no_calls(self, calls, monkeypatch):
        per_invocation = []
        transform = ConsolidateBlocks.transform

        def recording(self, circuit, property_set):
            before = len(calls["plan"]) + len(calls["synth"])
            result = transform(self, circuit, property_set)
            per_invocation.append(len(calls["plan"]) + len(calls["synth"]) - before)
            return result

        monkeypatch.setattr(ConsolidateBlocks, "transform", recording)
        manager = PassManager()
        manager.append(
            preset.optimization_loop(IBM_BASIS, commutative=True, consolidate=True)
        )
        manager.run(self.priced_blocks(3))
        assert per_invocation == [1, 0]

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_floor_rejects_ties_without_a_plan(self, k, calls):
        """A tie no larger than the plan-size floor (3 gates for 2 CNOTs)
        is rejected with no plan and no synthesis, every time."""
        props = PropertySet()
        circuit = self.floor_blocks(k)
        out = ConsolidateBlocks().run(circuit, props)
        assert (len(calls["plan"]), len(calls["synth"])) == (0, 0)
        stats = AnalysisCache.ensure(props).stats
        assert stats["synth_floor_rejects"] == k
        assert stats["synth_tie_rejects"] == 0
        assert stats["synth_memo_hits"] == 0
        assert stats["synth_kept"] == 0
        assert exact_form(out) == exact_form(circuit)
        oracle = OracleConsolidateBlocks().run(circuit, PropertySet())
        assert exact_form(out) == exact_form(oracle)

    def test_floor_leaves_the_memo_to_larger_blocks(self, calls):
        """A floor reject writes no plan size: a later, larger block of the
        same unitary is still priced -- and here wins, as its 3-gate plan
        drops the idle ``id``."""
        circuit = self.floor_blocks(1)
        circuit.cx(0, 1)
        circuit.u1(0.7, 1)
        circuit.id(0)
        circuit.cx(0, 1)
        small, large = candidate_unitaries(circuit)
        assert small.tobytes() == large.tobytes()
        props = PropertySet()
        out = ConsolidateBlocks().run(circuit, props)
        cache = AnalysisCache.ensure(props)
        assert (len(calls["plan"]), len(calls["synth"])) == (1, 1)
        assert cache.stats["synth_floor_rejects"] == 1
        assert cache.stats["synth_kept"] == 1
        assert cache.synthesis(small).plan_size == 3
        oracle = OracleConsolidateBlocks().run(circuit, PropertySet())
        assert exact_form(out) == exact_form(oracle)
        assert out.size() == circuit.size() - 1

    def test_a_winning_tie_is_built_from_its_priced_plan(self, calls):
        """The tie is priced and synthesized from one plan: synthesis gets
        the very plan the bulk call made and plans nothing again."""
        rng = np.random.default_rng(0)
        circuit = QuantumCircuit(2)
        for gate in ("cx", "cz", None):
            for wire in (0, 1, 0, 1):
                circuit.u3(*(float(x) for x in rng.uniform(-np.pi, np.pi, 3)), wire)
            if gate is not None:
                getattr(circuit, gate)(0, 1)
        props = PropertySet()
        out = ConsolidateBlocks().run(circuit, props)
        stats = AnalysisCache.ensure(props).stats
        assert stats["synth_kept"] == 1
        assert (len(calls["plan"]), len(calls["synth"])) == (1, 1)
        [(budget, plan)] = calls["planned"]
        assert budget == 2
        assert plan is calls["plans"][0]
        assert calls["replan"] == []
        oracle = OracleConsolidateBlocks().run(circuit, PropertySet())
        assert exact_form(out) == exact_form(oracle)

    def test_a_miss_escalates_and_plans_again(self, calls, monkeypatch):
        """A bulk plan that does not reproduce the block is not kept:
        synthesis escalates and plans the next CNOT count itself."""

        def wrong_plans(unitaries, cnots):
            # each plan realises the identity, not its unitary
            identity = np.eye(4, dtype=complex)
            return plan_two_qubit_unitaries([identity] * len(cnots), [0] * len(cnots))

        monkeypatch.setattr(consolidate, "plan_two_qubit_unitaries", wrong_plans)
        circuit = self.redundant_blocks(1)
        props = PropertySet()
        out = ConsolidateBlocks().run(circuit, props)
        assert len(calls["replan"]) == 1  # the 2-CNOT plan
        stats = AnalysisCache.ensure(props).stats
        assert stats["synth_failures"] == 0
        assert stats["synth_kept"] == 1
        assert_unitarily_equal(circuit, out)
        assert out.num_nonlocal_gates() == 2

    def test_ties_of_a_run_are_priced_in_one_call(self, monkeypatch):
        batches = []

        def recording(unitaries, cnots):
            batches.append(len(unitaries))
            return plan_two_qubit_unitaries(unitaries, cnots)

        def recording_bounds(unitaries, cnots, sizes=None):
            batches.append(("bound", len(unitaries)))
            return plan_size_bounds(unitaries, cnots, sizes)

        monkeypatch.setattr(consolidate, "plan_two_qubit_unitaries", recording)
        monkeypatch.setattr(consolidate, "plan_size_bounds", recording_bounds)
        circuit = self.priced_blocks(1, angles=(0.3, 0.7, 1.1))
        circuit = circuit.compose(self.zz_blocks(1))
        props = PropertySet()
        out = ConsolidateBlocks().run(circuit, props)
        # the four ties are bounded in one call, and the three it cannot
        # refute are priced in one
        assert batches == [("bound", 4), 3]
        stats = AnalysisCache.ensure(props).stats
        assert stats["synth_tie_rejects"] == 4
        assert stats["synth_bound_rejects"] == 1
        assert exact_form(out) == exact_form(circuit)

    def test_one_failing_tie_fails_alone(self, monkeypatch):
        """The first tie of the bulk call turns non-unitary: it alone is a
        counted failure, and the other tie is still priced and rejected."""

        def first_broken(unitaries, cnots):
            return plan_two_qubit_unitaries([1.1 * unitaries[0], *unitaries[1:]], cnots)

        monkeypatch.setattr(consolidate, "plan_two_qubit_unitaries", first_broken)
        circuit = self.priced_blocks(1, angles=(0.7, 0.3))
        props = PropertySet()
        out = ConsolidateBlocks().run(circuit, props)
        stats = AnalysisCache.ensure(props).stats
        assert stats["synth_failures"] == 1
        assert stats["synth_tie_rejects"] == 1
        assert stats["synth_kept"] == 0
        assert exact_form(out) == exact_form(circuit)

    #: (step the pass calls, blocks that reach it)
    STEPS = [
        ("plan_two_qubit_unitaries", "priced_blocks"),
        ("synthesize_two_qubit_unitary", "redundant_blocks"),
    ]

    @pytest.mark.parametrize("step, blocks", STEPS)
    @pytest.mark.parametrize(
        "error",
        [TwoQubitSynthesisError("no candidate"), np.linalg.LinAlgError("svd"), ValueError("shape")],
        ids=["synthesis", "linalg", "value"],
    )
    def test_failures_are_typed_and_counted(self, step, blocks, error, monkeypatch):
        def failing(*args, **kwargs):
            if step == "plan_two_qubit_unitaries":
                return [error for _ in args[0]]  # the bulk step fails per item
            assert kwargs["planned"] is not None  # synthesis gets the bulk plan
            raise error

        monkeypatch.setattr(consolidate, step, failing)
        circuit = getattr(self, blocks)(3)
        props = PropertySet()
        out = ConsolidateBlocks().run(circuit, props)
        assert exact_form(out) == exact_form(circuit)
        stats = AnalysisCache.ensure(props).stats
        assert stats["synth_failures"] == 1
        assert stats["synth_memo_hits"] == 2
        assert stats["synth_tie_rejects"] == 0
        assert stats["synth_kept"] == 0

    @pytest.mark.parametrize(
        "error",
        [TwoQubitSynthesisError("no candidate"), np.linalg.LinAlgError("svd"), ValueError("shape")],
        ids=["synthesis", "linalg", "value"],
    )
    def test_one_failing_synthesis_fails_alone(self, error, monkeypatch):
        """The bulk call's plan for the first of two distinct unitaries to
        synthesize is a typed error: synthesis raises it for that unitary
        alone, counted once, and the other is still synthesized and kept."""

        def first_broken(unitaries, cnots):
            return [error, *plan_two_qubit_unitaries(unitaries[1:], cnots[1:])]

        monkeypatch.setattr(consolidate, "plan_two_qubit_unitaries", first_broken)
        circuit = self.redundant_blocks(2)
        circuit.cx(0, 1)
        circuit.s(0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        props = PropertySet()
        out = ConsolidateBlocks().run(circuit, props)
        stats = AnalysisCache.ensure(props).stats
        assert stats["synth_attempts"] == 2
        assert stats["synth_failures"] == 1
        assert stats["synth_memo_hits"] == 1
        assert stats["synth_kept"] == 1
        # the failed unitary's blocks stay as they are; the other is rewritten
        assert out.count_ops()["t"] == 2
        assert "s" not in out.count_ops()
        assert_unitarily_equal(circuit, out)

    @pytest.mark.parametrize("step, blocks", [*STEPS, ("plan_size_bounds", "zz_blocks")])
    def test_unexpected_errors_propagate(self, step, blocks, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(consolidate, step, broken)
        with pytest.raises(KeyError):
            ConsolidateBlocks().run(getattr(self, blocks)(1), PropertySet())

    def test_shared_cache_under_threads(self):
        """Runs sharing one cache (as a batch or a service does) may race
        on a memo entry; the worst case is a duplicate synthesis, never a
        different circuit."""
        import sys
        import threading

        circuits = [random_block_circuit(seed, 3) for seed in range(4)]
        expected = [
            exact_form(OracleConsolidateBlocks().run(circuit, PropertySet()))
            for circuit in circuits
        ]
        cache = AnalysisCache()
        mismatches = []

        def work(offset):
            for index in range(8):
                k = (index + offset) % len(circuits)
                props = PropertySet({AnalysisCache.PROPERTY_KEY: cache})
                out = ConsolidateBlocks().run(circuits[k], props)
                if exact_form(out) != expected[k]:
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestTableIIContract:
    """One pass of the seed-1 Table II set (the ``table2-cold`` workload of
    ``e2e_bench``) makes exactly the syntheses it made before ties were
    priced in bulk, and keeps the same rewrites, so the benchmark's
    ``linalg.synth_*`` layers stay comparable across the change.  Each
    ``ConsolidateBlocks`` run makes at most one budget call and one plan
    call, and every synthesis starts from a plan those calls made."""

    def test_syntheses_and_kept_rewrites_are_unchanged(self, monkeypatch):
        import os
        from collections import Counter

        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        monkeypatch.syspath_prepend(os.path.join(root, "e2e_bench"))
        from workloads import TARGET, table2_jobs

        calls = []
        runs = []  # (budget calls, plan calls) of each ConsolidateBlocks run
        planned = []  # unitaries handed to each bulk plan call
        made_plans = []  # every plan the bulk calls made, kept alive
        plans = set()  # and their ids

        def counting(unitary, **kwargs):
            calls.append(unitary)
            assert id(kwargs["planned"][1]) in plans
            return synthesize_two_qubit_unitary(unitary, **kwargs)

        def counting_budgets(unitaries, atol):
            runs[-1][0] += 1
            return cnot_budgets(unitaries, atol)

        def counting_plans(unitaries, cnots):
            runs[-1][1] += 1
            planned.append(len(unitaries))
            made = plan_two_qubit_unitaries(unitaries, cnots)
            made_plans.extend(made)
            plans.update(map(id, made))
            return made

        transform = ConsolidateBlocks.transform

        def recording(self, circuit, property_set):
            runs.append([0, 0])
            return transform(self, circuit, property_set)

        monkeypatch.setattr(consolidate, "synthesize_two_qubit_unitary", counting)
        monkeypatch.setattr(consolidate, "plan_two_qubit_unitaries", counting_plans)
        monkeypatch.setattr(cache_module, "cnot_budgets", counting_budgets)
        monkeypatch.setattr(ConsolidateBlocks, "transform", recording)
        stats = Counter()
        for job in table2_jobs(1):
            cache = AnalysisCache()
            transpile(
                job.circuit.copy(),
                target=TARGET,
                pipeline=job.pipeline,
                seed=job.seed,
                executor="serial",
                analysis_cache=cache,
            )
            stats.update(cache.stats)
        assert len(runs) == 138
        assert max(budget_calls for budget_calls, _ in runs) == 1
        assert max(plan_calls for _, plan_calls in runs) == 1
        assert len(calls) == 202
        assert stats["synth_attempts"] == 202
        assert stats["synth_kept"] == 451
        assert stats["synth_failures"] == 0
        # a block made only of what the pass's previous run placed is left
        # alone (532 of them): the floor rejects 143 ties, the bound
        # refutes 283 of the 420 fresh ties with no plan, every fresh tie
        # is still rejected, and one pass plans 339 unitaries
        assert stats["synth_own_skips"] == 532
        assert stats["synth_floor_rejects"] == 143
        assert sum(planned) == 339
        assert stats["synth_tie_rejects"] == 420
        assert stats["synth_bound_rejects"] == 283


def recording(pass_class, log: list):
    """``pass_class`` logging ``(block input indices, rewritten)`` for
    every candidate block, in the order the blocks close."""

    class Recording(pass_class):
        def _replacement(self, block, unitary, cache):
            replacement = super()._replacement(block, unitary, cache)
            kept = replacement is not None and self._improves(block, replacement)
            log.append((tuple(block.indices), kept))
            return replacement

    return Recording


def unrolled_circuit(seed: int, num_qubits: int, depth: int = 80) -> QuantumCircuit:
    """Random ``cx`` and ``u1``/``u2``/``u3`` gates, as the loop sees
    them after unrolling: mostly CX-count ties."""
    rng = np.random.default_rng([seed, num_qubits])
    circuit = QuantumCircuit(num_qubits)
    for _ in range(depth):
        roll = rng.random()
        qubit = int(rng.integers(num_qubits))
        angles = [float(x) for x in rng.uniform(-np.pi, np.pi, 3)]
        if roll < 0.45:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            circuit.cx(a, b)
        elif roll < 0.7:
            circuit.u1(angles[0], qubit)
        elif roll < 0.85:
            circuit.u2(angles[0], angles[1], qubit)
        else:
            circuit.u3(*angles, qubit)
    return circuit


class TestExactTiePricingParity:
    """The bound only refutes ties exact pricing rejects: every block's
    kept/rejected decision and every output bit match
    :class:`ExactTiePricingConsolidateBlocks`, which prices every tie from
    its plan."""

    @staticmethod
    def both(circuit: QuantumCircuit, force: bool = False):
        shipped_log, oracle_log = [], []
        props = PropertySet()
        shipped_class, oracle_class = (
            (ForcedConsolidateBlocks, ForcedExactTiePricingConsolidateBlocks)
            if force
            else (ConsolidateBlocks, ExactTiePricingConsolidateBlocks)
        )
        shipped = recording(shipped_class, shipped_log)().run(circuit, props)
        oracle = recording(oracle_class, oracle_log)().run(circuit, PropertySet())
        assert shipped_log == oracle_log
        assert exact_form(shipped) == exact_form(oracle)
        return AnalysisCache.ensure(props).stats

    def test_random_circuits(self):
        refuted = 0
        for num_qubits in (2, 3, 4):
            for seed in range(12):
                refuted += self.both(random_block_circuit(seed, num_qubits))["synth_bound_rejects"]
                stats = self.both(unrolled_circuit(seed, num_qubits))
                refuted += stats["synth_bound_rejects"]
        assert refuted > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_forced_resynthesis(self, seed):
        stats = self.both(unrolled_circuit(seed, 3), force=True)
        assert stats["synth_bound_rejects"] == 0

    def test_seed_1_table_ii_compiles(self, monkeypatch):
        import os

        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        monkeypatch.syspath_prepend(os.path.join(root, "e2e_bench"))
        from workloads import TARGET, table2_jobs

        def compile_all(pass_class):
            log = []
            monkeypatch.setattr(preset, "ConsolidateBlocks", recording(pass_class, log))
            outputs = [
                exact_form(
                    transpile(
                        job.circuit.copy(),
                        target=TARGET,
                        pipeline=job.pipeline,
                        seed=job.seed,
                        analysis_cache=AnalysisCache(),
                    )
                )
                for job in table2_jobs(1)
            ]
            return outputs, log

        shipped, shipped_log = compile_all(ConsolidateBlocks)
        oracle, oracle_log = compile_all(ExactTiePricingConsolidateBlocks)
        assert shipped_log == oracle_log
        assert sum(rewritten for _, rewritten in shipped_log) == 451
        assert shipped == oracle
