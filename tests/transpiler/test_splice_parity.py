"""Every pass that builds its output through ``QuantumCircuit.splice``
against its pre-splice oracle (``presplice_passes.py``), bit for bit.

The oracles append every record again and add each phase term as it
comes; the production passes carry the records they keep and hand
``splice`` their edits.  Record order, every ``float.hex`` parameter, the
global phase and the rewrite counts must agree -- on random circuits and
on every pass run of the Table II jobs.
"""

import copy
import os
import sys

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.instruction import Gate
from repro.gates import U1Gate, U3Gate
from repro.rpo.hoare import HoareOptimizer
from repro.rpo.qbo import QBOPass
from repro.rpo.qpo import QPOPass
from repro.transpiler import AnalysisCache, transpile
from repro.transpiler.cache import rewrite_counter
from repro.transpiler.passes import (
    CommutativeCancellation,
    ConsolidateBlocks,
    CXCancellation,
    Optimize1qGates,
    RemoveAnnotations,
    RemoveBarriers,
    RemoveDiagonalGatesBeforeMeasure,
    Unroller,
)
from repro.transpiler.passmanager import PropertySet

from tests.helpers import exact_form
from tests.transpiler.forced_consolidate import Forced, ForcedConsolidateBlocks
from tests.transpiler.presplice_passes import ORACLES, PreSpliceConsolidateBlocks

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "e2e_bench"))
from workloads import TARGET, table2_jobs  # noqa: E402

PASSES = [
    Optimize1qGates(),
    ConsolidateBlocks(),
    ForcedConsolidateBlocks(),
    Unroller(),
    Unroller(("u1", "u2", "u3", "id", "cx", "swap", "swapz")),
    CXCancellation(),
    CommutativeCancellation(),
    QBOPass(),
    QBOPass(general_eigenphase=True),
    QPOPass(),
    QPOPass(optimize_blocks=False),
    HoareOptimizer(),
    RemoveDiagonalGatesBeforeMeasure(),
    RemoveAnnotations(),
    RemoveBarriers(),
]


class ForcedPreSpliceConsolidateBlocks(Forced, PreSpliceConsolidateBlocks):
    pass


#: every pass class in ``PASSES`` -> its oracle
PASS_ORACLES = {**ORACLES, ForcedConsolidateBlocks: ForcedPreSpliceConsolidateBlocks}


def oracle_of(pass_):
    oracle = copy.copy(pass_)
    oracle.__class__ = PASS_ORACLES[type(pass_)]
    return oracle


def run_both(pass_, circuit):
    """(production output, its rewrites, oracle output, its rewrites)."""
    props, oracle_props = PropertySet(), PropertySet()
    out = pass_.run(circuit, props)
    expected = oracle_of(pass_).run(circuit, oracle_props)
    return out, rewrites_of(props), expected, rewrites_of(oracle_props)


def rewrites_of(props) -> int:
    # the oracle class counts under its own name
    return sum(rewrite_counter(props).values())


def rich_circuit(seed: int, num_qubits: int = 4, depth: int = 60) -> QuantumCircuit:
    """Random gates the relaxed passes rewrite: basis-state and pure-state
    preparations, controlled gates, swaps, Fredkins, annotations, resets,
    barriers and measures, with signed-zero angles mixed in."""
    rng = np.random.default_rng([seed, 22])
    circuit = QuantumCircuit(num_qubits, num_qubits, global_phase=float(rng.normal()))
    angles = [0.0, -0.0, np.pi / 2, np.pi, -np.pi, 1e-11]

    def angle():
        return float(rng.choice(angles)) if rng.random() < 0.3 else float(rng.normal() * 3)

    for _ in range(depth):
        roll = rng.random()
        qubits = [int(q) for q in rng.permutation(num_qubits)]
        a, b, c = qubits[0], qubits[1], qubits[2 % num_qubits]
        if roll < 0.25:
            name = str(rng.choice(["h", "x", "z", "s", "t", "sdg", "sx", "y"]))
            getattr(circuit, name)(a)
        elif roll < 0.40:
            kind = rng.integers(3)
            if kind == 0:
                circuit.u1(angle(), a)
            elif kind == 1:
                circuit.u2(angle(), angle(), a)
            else:
                circuit.u3(angle(), angle(), angle(), a)
        elif roll < 0.65:
            getattr(circuit, str(rng.choice(["cx", "cx", "cz", "swap", "swapz"])))(a, b)
        elif roll < 0.72:
            circuit.cp(angle(), a, b)
        elif roll < 0.78 and num_qubits >= 3:
            getattr(circuit, str(rng.choice(["ccx", "cswap", "ccz"])))(a, b, c)
        elif roll < 0.82:
            circuit.reset(a)
        elif roll < 0.86:
            circuit.annotate(a, angle(), angle())
        elif roll < 0.90:
            circuit.barrier()
        elif roll < 0.95:
            circuit.measure(a, a)
        else:
            circuit.rz(angle(), a)
    return circuit


def cancelling_circuit(seed: int, num_qubits: int = 4, depth: int = 40) -> QuantumCircuit:
    """Self-inverse two-qubit gates, often repeated at once or after gates
    that commute with them, so both cancellations fire."""
    rng = np.random.default_rng([seed, 23])
    circuit = QuantumCircuit(num_qubits, global_phase=float(rng.normal()))
    for _ in range(depth):
        a, b, c = (int(q) for q in rng.permutation(num_qubits)[:3])
        name = str(rng.choice(["cx", "cx", "cz", "swap"]))
        getattr(circuit, name)(a, b)
        roll = rng.random()
        if roll < 0.3:
            circuit.t(a) if name == "cx" else circuit.h(c)
        elif roll < 0.45:
            circuit.cx(a, c)
        if rng.random() < 0.6:
            getattr(circuit, name)(*((b, a) if name != "cx" and rng.random() < 0.5 else (a, b)))
    return circuit


def assert_same(out, out_rewrites, expected, expected_rewrites):
    assert exact_form(out) == exact_form(expected)
    assert out_rewrites == expected_rewrites


class TestRandomCircuits:
    @pytest.mark.parametrize("pass_", PASSES, ids=lambda p: p.name)
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_oracle(self, pass_, seed):
        circuit = rich_circuit(seed, num_qubits=3 + seed % 3)
        assert_same(*run_both(pass_, circuit))

    @pytest.mark.parametrize("pass_", PASSES, ids=lambda p: p.name)
    @pytest.mark.parametrize("seed", range(4))
    def test_cancelling_pairs_match_the_oracle(self, pass_, seed):
        assert_same(*run_both(pass_, cancelling_circuit(seed)))

    @pytest.mark.parametrize("pass_", [CXCancellation(), CommutativeCancellation()])
    def test_cancelling_pairs_cancel(self, pass_):
        assert run_both(pass_, cancelling_circuit(0))[1] > 0

    @pytest.mark.parametrize("pass_", PASSES, ids=lambda p: p.name)
    def test_chained_passes_match_the_oracle(self, pass_):
        # the second run sees the splice-built output of the first
        circuit = rich_circuit(99, num_qubits=5, depth=120)
        for other in (Unroller(), Optimize1qGates(), ConsolidateBlocks()):
            circuit = other.run(circuit, PropertySet())
        assert_same(*run_both(pass_, circuit))

    @pytest.mark.parametrize("pass_", PASSES, ids=lambda p: p.name)
    def test_empty_circuit(self, pass_):
        circuit = QuantumCircuit(2, global_phase=-0.0)
        out, _, expected, _ = run_both(pass_, circuit)
        assert exact_form(out) == exact_form(expected)
        assert out is circuit


def phased_gate(name, depth):
    """A gate whose definition nests ``depth`` levels, each with its own
    global phase, so one record adds several phase terms."""
    definition = QuantumCircuit(2, global_phase=0.1 + depth / 3)
    definition.u3(0.3 * depth, -0.0, 0.7, 0)
    if depth:
        definition.append(phased_gate(name, depth - 1), (1, 0))
    definition.cx(0, 1)
    gate = Gate(f"{name}{depth}", 2, [])
    gate._definition = definition
    return gate


class TestNestedPhases:
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("phase", [0.0, -0.0, 2.5])
    def test_unroller_sums_each_nested_phase_in_order(self, depth, phase):
        circuit = QuantumCircuit(3, global_phase=phase)
        circuit.h(2)
        circuit.append(phased_gate("nest", depth), (0, 1))
        circuit.cx(1, 2)
        circuit.append(phased_gate("more", depth), (2, 0))
        out, _, expected, _ = run_both(Unroller(), circuit)
        assert exact_form(out) == exact_form(expected)


class TestSignedZeroRuns:
    """A one-gate run is carried only when its re-extracted gate is the
    same class with every parameter within 1e-12 of its own; a carried
    gate keeps its own bits, zeros' signs included."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda c: c.u1(-0.0, 0),
            lambda c: c.u1(0.0, 0),
            lambda c: c.u3(0.7, -0.0, 0.3, 0),
            lambda c: c.u3(0.7, 0.0, -0.0, 0),
            lambda c: c.u3(-0.0, 0.2, 0.3, 0),
            lambda c: c.u2(-0.0, -0.0, 0),
            lambda c: c.u1(np.pi, 0),
        ],
        ids=["u1(-0)", "u1(0)", "u3(t,-0,l)", "u3(t,0,-0)", "u3(-0,p,l)", "u2(-0,-0)", "u1(pi)"],
    )
    @pytest.mark.parametrize("phase", [0.0, -0.0, 1.25])
    def test_one_gate_runs_match_the_oracle(self, build, phase):
        circuit = QuantumCircuit(2, global_phase=phase)
        build(circuit)
        circuit.cx(0, 1)
        build(circuit)
        out, _, expected, _ = run_both(Optimize1qGates(), circuit)
        assert exact_form(out) == exact_form(expected)
        for record, oracle_record in zip(out.data, expected.data):
            assert record.operation.params == oracle_record.operation.params
            assert [np.copysign(1.0, p) for p in record.operation.params] == [
                np.copysign(1.0, p) for p in oracle_record.operation.params
            ]

    def test_a_bitwise_equal_run_is_carried(self):
        circuit = QuantumCircuit(1)
        circuit.u3(0.7, 0.2, 0.3, 0)
        params = Optimize1qGates().run(circuit, PropertySet()).data[0].operation.params
        carried = QuantumCircuit(1)
        carried.u3(*params, 0)
        out = Optimize1qGates().run(carried, PropertySet())
        assert out.data[0] is carried.data[0]

    def test_another_class_is_rebuilt(self):
        # u3(0, 0, lam) fuses to u1: same unitary, other class, new record
        circuit = QuantumCircuit(1)
        circuit.append(U3Gate(0.0, 0.0, 0.5), (0,))
        out, _, expected, _ = run_both(Optimize1qGates(), circuit)
        assert exact_form(out) == exact_form(expected)
        assert out.data[0].operation.name == "u1"
        assert out.data[0] is not circuit.data[0]


class TestTableII:
    def test_every_pass_run_matches_its_oracle(self, monkeypatch):
        """Each production pass run in the Table II compiles (seed 1) is
        repeated by its oracle on the same input, and both must agree."""
        runs = {cls: 0 for cls in ORACLES}

        def checked(cls):
            production = cls.transform

            def transform(self, circuit, property_set):
                rewrites = rewrite_counter(property_set)
                before = rewrites[self.name]
                out = production(self, circuit, property_set)
                if type(self) is cls:
                    runs[cls] += 1
                    oracle_props = PropertySet()
                    expected = oracle_of(self).run(circuit, oracle_props)
                    assert exact_form(out) == exact_form(expected), self.name
                    assert rewrites[self.name] - before == rewrites_of(oracle_props)
                return out

            return transform

        for cls in ORACLES:
            monkeypatch.setattr(cls, "transform", checked(cls))
        for job in table2_jobs(1):
            transpile(
                job.circuit.copy(),
                target=TARGET,
                pipeline=job.pipeline,
                seed=job.seed,
                executor="serial",
                analysis_cache=AnalysisCache(),
            )
        # every ported pass but RemoveBarriers runs in some Table II pipeline
        assert [cls for cls, count in runs.items() if not count] == [RemoveBarriers]
