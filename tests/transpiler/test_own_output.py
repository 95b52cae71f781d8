"""The loop passes make each rewrite once.

* ``Optimize1qGates`` run on its own output returns that very object:
  every gate it emits round-trips (signed zeros, labelled gates and
  one-qubit gates with no matrix included).
* ``ConsolidateBlocks`` places each ``u3`` of a kept re-synthesis in the
  form ``Optimize1qGates`` keeps, so the next pass leaves it alone.
* ``ConsolidateBlocks`` leaves alone, within one property set, each block
  made of exactly the two-qubit records of one re-synthesis it placed: a
  second run over fenced blocks makes no budget, bound or plan call.  A
  block that a foreign two-qubit record joins, or that spans two
  re-syntheses, is priced again, and on random circuits the rule changes
  no output bit.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.transpiler.cache as cache_module
import repro.transpiler.passes.consolidate as consolidate
from repro.circuit import QuantumCircuit
from repro.circuit.instruction import Gate
from repro.gates import U3Gate, UnitaryGate
from repro.linalg.random import random_unitary
from repro.transpiler.cache import AnalysisCache
from repro.transpiler.passes import IBM_BASIS, ConsolidateBlocks, Optimize1qGates, Unroller
from repro.transpiler.passmanager import SCRATCH_KEY, AnalysisPass, PassManager, PropertySet
from repro.transpiler.preset import optimization_loop

from tests.helpers import assert_unitarily_equal, exact_form
from tests.transpiler.test_consolidate_prescan import (
    append_block,
    random_block_circuit,
    unrolled_circuit,
)

ANGLES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 2 * math.pi, 1e-11, -1e-11]
    ),
    st.floats(min_value=-7.0, max_value=7.0, allow_nan=False, allow_infinity=False),
)


def _labelled_u3(theta, phi, lam):
    gate = U3Gate(theta, phi, lam)
    gate.label = "mine"
    return gate


#: one-qubit records: ``(name, angle count, gate builder)``
ONE_QUBIT = [
    ("u1", 1, None),
    ("u2", 2, None),
    ("u3", 3, None),
    ("rz", 1, None),
    ("h", 0, None),
    ("s", 0, None),
    ("t", 0, None),
    ("x", 0, None),
    ("sx", 0, None),
    ("labelled u3", 3, _labelled_u3),
    (
        "labelled unitary",
        1,
        lambda angle: UnitaryGate(
            np.diag([1.0, np.exp(1j * angle)]).astype(complex), label="phase"
        ),
    ),
    ("fence", 0, lambda: Gate("opaque", 1, [])),
]


@st.composite
def one_qubit_circuits(draw, num_qubits=3):
    """Runs of one-qubit gates of every kind, between ``cx`` gates,
    barriers and annotations."""
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(0, 24))):
        qubit = draw(st.integers(0, num_qubits - 1))
        kind = draw(st.integers(0, len(ONE_QUBIT) + 2))
        if kind < len(ONE_QUBIT):
            name, count, build = ONE_QUBIT[kind]
            angles = [draw(ANGLES) for _ in range(count)]
            if build is None:
                getattr(circuit, name)(*angles, qubit)
            else:
                circuit.append(build(*angles), (qubit,))
        elif kind == len(ONE_QUBIT):
            circuit.cx(qubit, (qubit + 1) % num_qubits)
        elif kind == len(ONE_QUBIT) + 1:
            circuit.barrier()
        else:
            circuit.annotate(qubit, draw(ANGLES), draw(ANGLES))
    return circuit


class TestOptimize1qGatesKeepsItsOwnOutput:
    @settings(max_examples=150, deadline=None)
    @given(circuit=one_qubit_circuits(), u3_only=st.booleans())
    def test_a_second_run_returns_its_input(self, circuit, u3_only):
        pass_ = Optimize1qGates(("u3", "cx") if u3_only else None)
        once = pass_.run(circuit, PropertySet())
        assert pass_.run(once, PropertySet()) is once

    @pytest.mark.parametrize(
        "build",
        [
            lambda c: c.u3(0.7, -0.0, 0.3, 0),
            lambda c: c.u3(0.7, 0.0, -0.0, 0),
            lambda c: c.u2(-0.0, -0.0, 0),
            lambda c: c.u1(math.pi, 0),
        ],
        ids=["u3(t,-0,l)", "u3(t,0,-0)", "u2(-0,-0)", "u1(pi)"],
    )
    def test_a_signed_zero_is_kept(self, build):
        circuit = QuantumCircuit(1)
        build(circuit)
        assert Optimize1qGates().run(circuit, PropertySet()) is circuit

    def test_a_gate_off_by_more_than_the_tolerance_is_rebuilt(self):
        # phi outside [-pi, pi]: the canonical form wraps it
        circuit = QuantumCircuit(1)
        circuit.u3(0.7, 4.0, 0.3, 0)
        out = Optimize1qGates().run(circuit, PropertySet())
        assert out.data[0] is not circuit.data[0]
        assert out.data[0].operation.params[1] == pytest.approx(4.0 - 2 * math.pi)
        assert_unitarily_equal(circuit, out)

    def test_a_labelled_gate_is_rebuilt(self):
        circuit = QuantumCircuit(1)
        circuit.append(_labelled_u3(0.7, 0.2, 0.3), (0,))
        out = Optimize1qGates().run(circuit, PropertySet())
        assert out.data[0].operation.label is None
        assert out.data[0].operation.params == pytest.approx([0.7, 0.2, 0.3], abs=1e-12)


def redundant_block(seed: int) -> QuantumCircuit:
    """A random two-qubit unitary spelled with two CNOTs too many: the
    pass keeps its 3-CNOT re-synthesis.  The circuit opens with a CNOT,
    so the block holds every gate and its re-synthesis is all that is
    left."""
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    circuit.cx(0, 1)
    append_block(circuit, random_unitary(4, np.random.default_rng(seed)))
    return circuit


class TestConsolidatePlacesBasisForm:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("basis", [None, ("u3", "cx")])
    def test_optimize_1q_leaves_a_kept_resynthesis_alone(self, seed, basis):
        circuit = redundant_block(seed)
        props = PropertySet()
        out = ConsolidateBlocks(basis).run(circuit, props)
        assert AnalysisCache.ensure(props).stats["synth_kept"] == 1
        assert_unitarily_equal(circuit, out)
        names = set(out.count_ops())
        assert names <= ({"u3", "cx"} if basis else {"u1", "u2", "u3", "cx"})
        assert Optimize1qGates(basis).run(out, PropertySet()) is out


@contextmanager
def counted_calls():
    """How many unitaries ``ConsolidateBlocks`` hands to the budget, bound
    and plan steps, and how many it synthesizes, inside the block."""
    calls = {"budget": 0, "bound": 0, "plan": 0, "synth": 0}

    def counting(key, function, items=len):
        def call(unitaries, *args, **kwargs):
            calls[key] += items(unitaries)
            return function(unitaries, *args, **kwargs)

        return call

    with pytest.MonkeyPatch.context() as patch:
        for module, name, key in [
            (cache_module, "cnot_budgets", "budget"),
            (consolidate, "plan_size_bounds", "bound"),
            (consolidate, "plan_two_qubit_unitaries", "plan"),
        ]:
            patch.setattr(module, name, counting(key, getattr(module, name)))
        synthesize = consolidate.synthesize_two_qubit_unitary
        patch.setattr(
            consolidate,
            "synthesize_two_qubit_unitary",
            counting("synth", synthesize, items=lambda _: 1),
        )
        yield calls


@st.composite
def fenced_blocks(draw, num_qubits=3):
    """Blocks on random pairs, each closed by a barrier on every wire, so
    no re-synthesis shares a block with a neighbour's records."""
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(st.permutations(range(num_qubits)))[:2]
        for _ in range(draw(st.integers(2, 9))):
            roll = draw(st.integers(0, 5))
            if roll < 3:
                getattr(circuit, ["cx", "cz", "cx"][roll])(*draw(st.permutations((a, b))))
            elif roll == 3:
                circuit.u3(draw(ANGLES), draw(ANGLES), draw(ANGLES), draw(st.sampled_from((a, b))))
            else:
                getattr(circuit, ["h", "t"][roll - 4])(draw(st.sampled_from((a, b))))
        circuit.barrier()
    return circuit


class TestConsolidateLeavesItsOwnOutput:
    @settings(max_examples=60, deadline=None)
    @given(circuit=fenced_blocks())
    def test_a_second_run_makes_no_call(self, circuit):
        props = PropertySet()
        once = ConsolidateBlocks().run(circuit, props)
        with counted_calls() as calls:
            twice = ConsolidateBlocks().run(once, props)
        assert calls == {"budget": 0, "bound": 0, "plan": 0, "synth": 0}
        assert twice is once

    def test_own_blocks_are_counted(self):
        props = PropertySet()
        once = ConsolidateBlocks().run(redundant_block(0), props)
        stats = AnalysisCache.ensure(props).stats
        assert (stats["synth_kept"], stats["synth_own_skips"]) == (1, 0)
        ConsolidateBlocks().run(once, props)
        ConsolidateBlocks().run(once, props)
        # a block left alone is held again for the next run
        assert (stats["synth_kept"], stats["synth_own_skips"]) == (1, 2)

    def test_a_fresh_property_set_prices_it_again(self):
        once = ConsolidateBlocks().run(redundant_block(2), PropertySet())
        with counted_calls() as calls:
            ConsolidateBlocks().run(once, PropertySet())
        assert calls["budget"] == 1

    def test_a_foreign_two_qubit_gate_that_joins_it_is_priced(self):
        props = PropertySet()
        once = ConsolidateBlocks().run(redundant_block(3), props)
        joined = once.copy()
        joined.cx(1, 0)
        assert [block.num_2q for block in ConsolidateBlocks().collect(joined)] == [
            once.num_nonlocal_gates() + 1
        ]
        with counted_calls() as calls:
            out = ConsolidateBlocks().run(joined, props)
        assert calls["budget"] == 1
        assert AnalysisCache.ensure(props).stats["synth_own_skips"] == 0
        assert_unitarily_equal(joined, out)

    def test_a_block_spanning_two_of_them_is_priced(self):
        circuit = redundant_block(4)
        circuit.barrier()
        for instruction in redundant_block(5).data:
            circuit.append(instruction.operation, instruction.qubits)
        props = PropertySet()
        once = ConsolidateBlocks().run(circuit, props)
        [barrier] = [
            index for index, record in enumerate(once.data) if record.operation.name == "barrier"
        ]
        # drop the barrier: every other record is carried as it is
        merged = once.splice([([barrier], barrier, (), -0.0)])
        assert len(ConsolidateBlocks().collect(merged)) == 1
        with counted_calls() as calls:
            ConsolidateBlocks().run(merged, props)
        assert calls["budget"] == 1
        assert AnalysisCache.ensure(props).stats["synth_own_skips"] == 0

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    @pytest.mark.parametrize("maker", [random_block_circuit, unrolled_circuit])
    def test_the_rule_changes_no_output(self, maker, num_qubits):
        """Between two runs in one property set, the loop's unroll and
        one-qubit fusion: the second run's output is the one a run that
        prices every block makes."""
        for seed in range(10):
            props = PropertySet()
            once = ConsolidateBlocks().run(maker(seed, num_qubits), props)
            between = Optimize1qGates().run(Unroller().run(once, props), props)
            own = ConsolidateBlocks().run(between, props)
            priced = ConsolidateBlocks().run(between, PropertySet())
            assert exact_form(own) == exact_form(priced)


class TestRunScratch:
    """The own-output records live on the run's property set for one
    pipeline run, and never reach its result."""

    @staticmethod
    def manager(*passes):
        manager = PassManager()
        manager.append(optimization_loop(IBM_BASIS, commutative=True, consolidate=True))
        for pass_ in passes:
            manager.append(pass_)
        return manager

    def test_the_loop_leaves_its_own_output_alone(self):
        props = PropertySet()
        result = self.manager().run_with_result(redundant_block(6), props)
        stats = result.properties[AnalysisCache.PROPERTY_KEY].stats
        assert [loop.iterations for loop in result.loops] == [2]
        assert (stats["synth_kept"], stats["synth_own_skips"]) == (1, 1)
        assert SCRATCH_KEY not in result.properties

    def test_a_failed_run_drops_it_too(self):
        class Failing(AnalysisPass):
            def analyze(self, circuit, property_set):
                raise RuntimeError("late failure")

        props = PropertySet()
        with pytest.raises(RuntimeError, match="late failure"):
            self.manager(Failing()).run_with_result(redundant_block(6), props)
        assert SCRATCH_KEY not in props
