"""QBO and QPO carry the gates no rule can touch, against full sweeps.

A gate whose wires are all ``TOP`` (QBO) or all unknown (QPO) meets no
rewrite rule, and both states are absorbing, so the passes keep it as it
is without running their rewrite engines on it.  The exception is QBO's
``swapz``, which a ``TOP`` zero-wire demotes to its CNOT pair.

``FullSweepQBOPass`` and ``FullSweepQPOPass`` are the passes as they were
before the carry: every record goes through the rewrite engine.  Outputs,
bit for bit, and rewrite counts must agree.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.circuit.instruction import Gate
from repro.rpo.adjacency import same_pair_adjacent_indices
from repro.rpo.basis_tracker import BasisStateTracker
from repro.rpo.pure_tracker import PureStateTracker
from repro.rpo.qbo import QBOPass
from repro.rpo.qpo import QPOPass
from repro.transpiler import AnalysisCache, transpile
from repro.transpiler.cache import rewrite_counter
from repro.transpiler.passmanager import PropertySet, RecordEdits

from tests.helpers import exact_form
from tests.transpiler.test_splice_parity import rich_circuit

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "e2e_bench"))
from workloads import TARGET, table2_jobs  # noqa: E402


class FullSweepQBOPass(QBOPass):
    def transform(self, circuit, property_set):
        state = self._run_state
        tracker = BasisStateTracker(circuit.num_qubits)
        output = RecordEdits()
        blocked = same_pair_adjacent_indices(circuit)
        for index, instruction in enumerate(circuit.data):
            state.swapz_profitable = index not in blocked
            output.visit(index, instruction)
            self._process(
                instruction.operation, instruction.qubits, instruction.clbits, tracker, output
            )
        state.swapz_profitable = True
        return self.splice(circuit, output.close(), property_set)


class FullSweepQPOPass(QPOPass):
    def _rewrite_gates(self, circuit):
        tracker = PureStateTracker(circuit.num_qubits)
        output = RecordEdits()
        blocked = same_pair_adjacent_indices(circuit)
        for index, instruction in enumerate(circuit.data):
            self._run_state.swapz_profitable = index not in blocked
            output.visit(index, instruction)
            self._process(
                instruction.operation, instruction.qubits, instruction.clbits, tracker, output
            )
        self._run_state.swapz_profitable = True
        return self.splice(circuit, output.close(), self._run_state.properties)


FULL_SWEEP = {QBOPass: FullSweepQBOPass, QPOPass: FullSweepQPOPass}

PASSES = [
    QBOPass(),
    QBOPass(general_eigenphase=True),
    QPOPass(),
    QPOPass(optimize_blocks=False),
]


def full_sweep_of(pass_):
    oracle = type(pass_).__new__(FULL_SWEEP[type(pass_)])
    oracle.__dict__.update(pass_.__dict__)
    return oracle


def run_both(pass_, circuit):
    props, oracle_props = PropertySet(), PropertySet()
    out = pass_.run(circuit, props)
    expected = full_sweep_of(pass_).run(circuit, oracle_props)
    assert exact_form(out) == exact_form(expected)
    assert rewrite_counter(props) == rewrite_counter(oracle_props)
    return out, props


@st.composite
def entangled_circuits(draw):
    """Random gates over a few wires, entangled early so most gates land on
    TOP / unknown wires, with swaps, swapz, Fredkins and state resets."""
    num_qubits = draw(st.integers(2, 5))
    circuit = QuantumCircuit(num_qubits, num_qubits)
    qubit = st.integers(0, num_qubits - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(("1q", "rot", "2q", "2q", "3q", "reset", "measure")))
        if kind == "1q":
            getattr(circuit, draw(st.sampled_from(("h", "x", "z", "t", "s", "sdg"))))(draw(qubit))
        elif kind == "rot":
            angle = draw(st.sampled_from((0.0, np.pi / 2, np.pi, 0.3, -1.1)))
            getattr(circuit, draw(st.sampled_from(("rz", "rx", "u1"))))(angle, draw(qubit))
        elif kind == "2q":
            name = draw(st.sampled_from(("cx", "cz", "swap", "swapz", "cp")))
            if name == "cp":
                circuit.cp(0.7, *draw(pair))
            else:
                getattr(circuit, name)(*draw(pair))
        elif kind == "3q" and num_qubits >= 3:
            wires = draw(st.lists(qubit, min_size=3, max_size=3, unique=True))
            getattr(circuit, draw(st.sampled_from(("ccx", "cswap"))))(*wires)
        elif kind == "reset":
            circuit.reset(draw(qubit))
        elif kind == "measure":
            circuit.measure(draw(qubit), draw(qubit))
    return circuit


class TestAgainstFullSweep:
    @settings(max_examples=60, deadline=None)
    @given(circuit=entangled_circuits(), which=st.integers(0, len(PASSES) - 1))
    def test_random_circuits(self, circuit, which):
        run_both(PASSES[which], circuit)

    @pytest.mark.parametrize("pass_", PASSES, ids=repr)
    @pytest.mark.parametrize("seed", range(6))
    def test_rich_circuits(self, pass_, seed):
        run_both(pass_, rich_circuit(seed, num_qubits=3 + seed % 3))

    def test_table2_runs(self, monkeypatch):
        """Every QBO and QPO run of the seed-1 Table II rpo compiles."""
        runs = {cls: 0 for cls in FULL_SWEEP}

        def checked(cls):
            production = cls.transform

            def transform(self, circuit, property_set):
                before = rewrite_counter(property_set)[self.name]
                out = production(self, circuit, property_set)
                if type(self) is cls:
                    runs[cls] += 1
                    oracle_props = PropertySet()
                    expected = full_sweep_of(self).run(circuit, oracle_props)
                    assert exact_form(out) == exact_form(expected), self.name
                    counted = rewrite_counter(property_set)[self.name] - before
                    assert counted == rewrite_counter(oracle_props)[self.name]
                return out

            return transform

        for cls in FULL_SWEEP:
            monkeypatch.setattr(cls, "transform", checked(cls))
        for job in table2_jobs(1):
            if job.pipeline == "rpo":
                transpile(
                    job.circuit.copy(),
                    target=TARGET,
                    pipeline="rpo",
                    seed=job.seed,
                    analysis_cache=AnalysisCache(),
                )
        assert all(runs.values()), runs


def _top_prefix(circuit):
    """Entangle wires 0 and 1 so both are TOP / unknown afterwards."""
    circuit.h(0)
    circuit.t(0)
    circuit.cx(0, 1)


class TestCarried:
    @pytest.mark.parametrize("pass_", PASSES, ids=repr)
    def test_top_gates_skip_the_engine(self, pass_, monkeypatch):
        circuit = QuantumCircuit(3)
        _top_prefix(circuit)
        circuit.t(1)
        circuit.rz(0.4, 0)
        circuit.cx(1, 0)
        circuit.cz(0, 1)
        circuit.x(2)  # a known wire still goes through the engine
        seen = []
        process = type(pass_)._process

        def counting(self, operation, qubits, clbits, tracker, output):
            seen.append((operation.name, qubits))
            return process(self, operation, qubits, clbits, tracker, output)

        monkeypatch.setattr(type(pass_), "_process", counting)
        out = pass_.run(circuit, PropertySet())
        assert [name for name, _ in seen][-1] == "x"
        assert ("rz", (0,)) not in seen and ("cz", (0, 1)) not in seen
        if getattr(pass_, "optimize_blocks", False):
            return  # QPO's block phase then prepares the pair's state anew
        assert len(out.data) == len(circuit.data)
        for got, want in zip(out.data[3:7], circuit.data[3:7]):
            assert got is want  # carried by reference

    @pytest.mark.parametrize("pass_", PASSES[:2], ids=repr)
    def test_qbo_still_demotes_swapz_on_top_wires(self, pass_):
        circuit = QuantumCircuit(2)
        _top_prefix(circuit)
        circuit.swapz(0, 1)
        out, props = run_both(pass_, circuit)
        assert [i.operation.name for i in out.data[3:]] == ["cx", "cx"]
        assert rewrite_counter(props)["QBO"] == 1

    def test_qpo_keeps_the_swap_it_does_not_rewrite(self):
        # QPO used to re-emit such a swap as a fresh SwapGate: the same
        # output bit for bit, but an edit (and a rewrite) for nothing
        class FreshSwapQPOPass(FullSweepQPOPass):
            def _process_swap(self, qubits, tracker, output, operation=None):
                super()._process_swap(qubits, tracker, output)

        circuit = QuantumCircuit(3)
        circuit.u3(0.4, 0.3, 0.0, 2)
        _top_prefix(circuit)
        circuit.swap(0, 1)
        circuit.swap(1, 2)  # one state known: the Eq. 5 rule still fires
        out, props = run_both(QPOPass(optimize_blocks=False), circuit)
        assert out.data[4] is circuit.data[4]
        fresh = FreshSwapQPOPass(optimize_blocks=False).run(circuit, PropertySet())
        assert fresh.data[4] is not circuit.data[4]
        assert exact_form(fresh) == exact_form(out)
        assert rewrite_counter(props)["QPO"] == 1

    @pytest.mark.parametrize("pass_", PASSES, ids=repr)
    def test_opaque_one_qubit_gate_on_a_top_wire_is_carried(self, pass_):
        # QBO and QPO keep an opaque gate on any wire, so the full sweeps
        # agree with the carry (tests/rpo/test_qpo_opaque.py for QPO)
        circuit = QuantumCircuit(2)
        _top_prefix(circuit)
        circuit.append(Gate("opaque", 1, []), [1])
        out, _ = run_both(pass_, circuit)
        assert out.data[-1] is circuit.data[-1]

    @pytest.mark.parametrize("pass_", PASSES[:2], ids=repr)
    def test_opaque_one_qubit_gate_on_a_known_wire_is_kept_and_widens(self, pass_):
        # the |0> control would remove the CNOT; after the opaque gate its
        # wire is TOP, so the gate and the CNOT both stay as they are
        circuit = QuantumCircuit(2)
        circuit.append(Gate("opaque", 1, []), [0])
        circuit.cx(0, 1)
        out, props = run_both(pass_, circuit)
        assert len(out.data) == len(circuit.data)
        for got, want in zip(out.data, circuit.data):
            assert got is want
        assert rewrite_counter(props)["QBO"] == 0

        reference = QuantumCircuit(2)
        reference.cx(0, 1)
        assert len(pass_.run(reference, PropertySet()).data) == 0
