"""QSAN's window tier: in-place splice edits proved on their own wires.

A ``"unitary"`` pass whose one splice replaces records in place -- every
edit removes one gate record and inserts gates on that record's qubits at
its index, or changes only the phase -- is proved window by window: each
record's matrix against the product of its replacement.  The whole-circuit
unitary tier is the oracle: on narrow circuits the validator must report
exactly what that tier reports, and a proof must never stand where that
tier finds the circuits different.
"""

import math
import os
from collections import Counter
import pickle
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import qsan
from repro.analysis.qsan import ContractViolation, QsanConfig, QsanValidator
from repro.circuit import QuantumCircuit
from repro.circuit.instruction import Gate
from repro.circuit.quantumcircuit import NO_PHASE, SPLICE_LOG
from repro.circuit.serialization import circuit_to_payload
from repro.simulators.unitary import circuit_unitary
from repro.transpiler import AnalysisCache, PassManager, transpile
from repro.transpiler.passes import IBM_BASIS, Unroller
from repro.transpiler.passmanager import PropertySet, RecordEdits, TransformationPass

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "e2e_bench"))
from workloads import TARGET, qsan_jobs, table2_jobs  # noqa: E402

from tests.analysis.qsan_oracles import equal_up_to_phase  # noqa: E402

_FULL = QsanConfig(mode="full")
_WIDE = 15  # one more than the default state cap: the fingerprint tier


# ----------------------------------------------------------------------
# broken Unrollers
# ----------------------------------------------------------------------


def _drop(record, items, pick):
    del items[pick % len(items)]
    return True


def _angle(record, items, pick, delta=1e-6):
    positions = [i for i, (operation, _, _) in enumerate(items) if operation.params]
    if not positions:
        return False
    position = positions[pick % len(positions)]
    operation, qubits, clbits = items[position]
    params = list(operation.params)
    params[0] += delta
    items[position] = (type(operation)(*params), qubits, clbits)
    return True


def _swap(record, items, pick):
    positions = [i for i, (operation, _, _) in enumerate(items) if operation.name == "cx"]
    if not positions:
        return False
    position = positions[pick % len(positions)]
    operation, (control, target), clbits = items[position]
    items[position] = (operation, (target, control), clbits)
    return True


def _off_wire(record, items, pick, num_qubits):
    spare = [q for q in range(num_qubits) if q not in record.qubits]
    positions = [i for i, (_, qubits, _) in enumerate(items) if len(qubits) == 1]
    if not spare or not positions:
        return False
    position = positions[pick % len(positions)]
    operation, _, clbits = items[position]
    items[position] = (operation, (spare[pick % len(spare)],), clbits)
    return True


BREAKS = {"drop": _drop, "angle": _angle, "swap": _swap, "off-wire": _off_wire}


class BrokenUnroller(Unroller):
    """The Unroller with one expansion broken: ``kind`` names the break,
    ``edit`` and ``pick`` choose the record and the gate it hits."""

    def __init__(self, kind, edit=0, pick=0, basis=IBM_BASIS, **options):
        super().__init__(basis)
        self.kind, self.edit, self.pick, self.options = kind, edit, pick, options
        self.broken = False

    def transform(self, circuit, property_set):
        output = RecordEdits()
        for index, instruction in enumerate(circuit.data):
            if instruction.operation.name not in self.basis:
                output.visit(index, instruction)
                self._unroll(*instruction, output, 0)
        edits = [list(edit) for edit in output.close()]
        expansions = [edit for edit in edits if edit[0] and edit[2]]
        self.broken = False
        for offset in range(len(expansions)):
            edit = expansions[(self.edit + offset) % len(expansions)]
            items = list(edit[2])
            record = circuit.data[edit[0][0]]
            breaker = BREAKS[self.kind]
            if self.kind == "off-wire":
                self.broken = breaker(record, items, self.pick, circuit.num_qubits)
            else:
                self.broken = breaker(record, items, self.pick, **self.options)
            if self.broken:
                edit[2] = items
                break
        return circuit.splice([tuple(edit) for edit in edits])


def _validated(pass_, circuit, *, watched=True):
    """``(after, validator, violations)`` of one checked run of ``pass_``;
    an unwatched run gives the validator no splices: today's tiers only."""
    validator = QsanValidator(_FULL)
    if watched:
        with validator.watch():
            after = pass_.run(circuit, PropertySet())
    else:
        after = pass_.run(circuit, PropertySet())
    found = validator.check_pass(pass_, circuit, after, PropertySet(), after is not circuit)
    return after, validator, found


def _summary(violations):
    return [(v.kind, v.pass_name, str(v)) for v in violations]


_NON_BASIS_1Q = ("h", "s", "sdg", "t", "tdg", "x", "y", "z")
_ROTATIONS = ("rx", "ry", "rz")
_NON_BASIS_2Q = ("cz", "cy", "ch", "swap", "cp", "crz")


@st.composite
def unroller_inputs(draw, min_qubits=2, max_qubits=4, max_ops=10):
    num_qubits = draw(st.integers(min_value=min_qubits, max_value=max_qubits))
    circuit = QuantumCircuit(num_qubits)
    angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        kind = draw(st.sampled_from(("1q", "rot", "2q", "3q", "cx")))
        qubits = draw(st.permutations(range(num_qubits)).map(lambda order: list(order[:3])))
        if kind == "1q":
            getattr(circuit, draw(st.sampled_from(_NON_BASIS_1Q)))(qubits[0])
        elif kind == "rot":
            getattr(circuit, draw(st.sampled_from(_ROTATIONS)))(draw(angles), qubits[0])
        elif kind == "2q":
            name = draw(st.sampled_from(_NON_BASIS_2Q))
            if name in ("cp", "crz"):
                getattr(circuit, name)(draw(angles), qubits[0], qubits[1])
            else:
                getattr(circuit, name)(qubits[0], qubits[1])
        elif kind == "3q" and num_qubits >= 3:
            getattr(circuit, draw(st.sampled_from(("ccx", "cswap"))))(*qubits)
        else:
            circuit.cx(qubits[0], qubits[1])  # in the basis: carried as it is
    circuit.h(0)  # at least one record to unroll
    return circuit


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBrokenUnrollers:
    @given(
        circuit=unroller_inputs(),
        kind=st.sampled_from(sorted(BREAKS)),
        edit=st.integers(min_value=0, max_value=50),
        pick=st.integers(min_value=0, max_value=50),
        delta_exponent=st.integers(min_value=-6, max_value=0),
    )
    @_SETTINGS
    def test_narrow_verdicts_match_the_whole_unitary_tier(
        self, circuit, kind, edit, pick, delta_exponent
    ):
        options = {"delta": 10.0**delta_exponent} if kind == "angle" else {}
        pass_ = BrokenUnroller(kind, edit, pick, **options)
        after, validator, found = _validated(pass_, circuit)
        _, oracle, expected = _validated(pass_, circuit, watched=False)
        assert oracle.window_proofs == 0

        # same kind, pass name and message as today's tiers
        assert _summary(found) == _summary(expected)
        # which, measurement-free at this width, is the whole-unitary tier
        equal = equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(after))
        assert bool(expected) == (not equal)
        for violation in found:
            assert violation.kind == "equivalence"
            assert violation.pass_name == pass_.name
            assert str(violation).endswith("unitaries differ (up to global phase)")

        # a window proof never stands where the oracle sees a difference
        assert validator.window_proofs + validator.window_deferrals == 1
        if validator.window_proofs:
            assert equal
        if pass_.broken and kind == "off-wire":
            assert validator.window_deferrals == 1  # not in place

    @given(circuit=unroller_inputs(max_qubits=5, max_ops=14))
    @_SETTINGS
    def test_honest_unrolls_are_proved_by_windows(self, circuit):
        after, validator, found = _validated(Unroller(), circuit)
        assert found == []
        assert (validator.window_proofs, validator.window_deferrals) == (1, 0)
        assert equal_up_to_phase(circuit_unitary(circuit), circuit_unitary(after))


def _top_wires(num_qubits=_WIDE) -> QuantumCircuit:
    """Every wire entangled: the fingerprint tier proves nothing here."""
    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    return circuit


class TestDeviceWidth:
    @pytest.mark.parametrize(
        "kind, options",
        [("drop", {}), ("swap", {}), ("angle", {"delta": 1e-3})],
        ids=["drop", "swap", "angle"],
    )
    def test_break_on_a_top_wire_is_caught(self, kind, options):
        circuit = _top_wires()
        circuit.cz(3, 7)
        circuit.ccx(11, 2, 5)
        record = len(circuit.data) - 1  # the ccx: its expansion is broken
        fingerprint = qsan.pure_fingerprint(circuit)
        assert not fingerprint.known.any()
        pass_ = BrokenUnroller(kind, edit=_WIDE + 1, **options)  # after 15 h and the cz
        with pytest.raises(ContractViolation) as excinfo:
            PassManager([pass_]).run_with_result(circuit, validate="full")
        assert pass_.broken
        violation = excinfo.value
        assert violation.kind == "equivalence"
        assert violation.pass_name == pass_.name
        assert f"record {record} (ccx on qubits [11, 2, 5])" in str(violation)

    def test_honest_unroll_of_a_top_circuit_is_proved(self):
        circuit = _top_wires()
        circuit.cz(3, 7)
        circuit.mcx([0, 4, 9, 13], 6)
        after, validator, found = _validated(Unroller(), circuit)
        assert found == [] and validator.window_proofs == 1

    def test_a_window_that_passes_is_no_violation_without_a_proof(self):
        # an angle off by 1e-7 passes the predicate (its relative
        # tolerance) but not the deviation budget: no proof, no report
        circuit = _top_wires()
        circuit.ry(0.3, 4)
        pass_ = BrokenUnroller("angle", edit=_WIDE, delta=1e-7)  # the ry, after 15 h
        after, validator, found = _validated(pass_, circuit)
        assert pass_.broken and found == []
        assert (validator.window_proofs, validator.window_deferrals) == (0, 1)


# ----------------------------------------------------------------------
# the compile sets
# ----------------------------------------------------------------------


@pytest.fixture
def validators(monkeypatch):
    """Every validator created while the test runs."""
    created = []
    init = QsanValidator.__init__

    def recording_init(self, config):
        init(self, config)
        created.append(self)

    monkeypatch.setattr(QsanValidator, "__init__", recording_init)
    return created


@pytest.mark.parametrize(
    "jobs",
    [lambda: table2_jobs(1), lambda: qsan_jobs(1)],
    ids=["table2-seed1-66", "qsan-full-seed1-40"],
)
def test_compile_sets_validate_clean(jobs, validators, monkeypatch):
    monkeypatch.setenv("REPRO_QSAN_REPORT", "1")
    jobs = jobs()
    checks = Counter()  # changing checks per pass class
    proofs = Counter()  # and those its windows proved
    check = QsanValidator.check_pass

    def counting_check(self, pass_, before, after, properties, changed):
        proven = self.window_proofs
        violations = check(self, pass_, before, after, properties, changed)
        if changed:
            checks[type(pass_).__name__] += 1
            proofs[type(pass_).__name__] += self.window_proofs - proven
        return violations

    monkeypatch.setattr(QsanValidator, "check_pass", counting_check)
    for job in jobs:
        result = transpile(
            job.circuit.copy(),
            target=TARGET,
            pipeline=job.pipeline,
            seed=job.seed,
            analysis_cache=AnalysisCache(),
            full_result=True,
            validate="full",
        )
        assert result.violations == [], job.label
    assert len(validators) == len(jobs)
    assert sum(v.window_proofs for v in validators) == sum(proofs.values())
    # every Unroller check is proved by its windows
    assert proofs["Unroller"] == checks["Unroller"] > 0
    # and so is every Optimize1qGates run whose edits each rebuild one
    # gate where it was
    assert 0 < proofs["Optimize1qGates"] < checks["Optimize1qGates"]


# ----------------------------------------------------------------------
# deferrals: what the window tier leaves to the other tiers
# ----------------------------------------------------------------------


class SpliceWith(TransformationPass):
    """Applies fixed splice edits (``make(circuit)`` builds them)."""

    def __init__(self, make, name="SpliceWith"):
        self.make = make
        self._name = name

    @property
    def name(self):
        return self._name

    def transform(self, circuit, property_set):
        return circuit.splice(self.make(circuit))


def _opaque():
    return Gate("opaque", 1, [])


def _deferred(pass_, circuit):
    after, validator, found = _validated(pass_, circuit)
    assert (validator.window_proofs, validator.window_deferrals) == (0, 1)
    _, _, expected = _validated(pass_, circuit, watched=False)
    assert _summary(found) == _summary(expected)
    return found


def _hx_circuit():
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.x(1)
    return circuit


class TestDeferrals:
    def test_insertion_without_removal(self):
        from repro.gates import ZGate

        z = ZGate()
        pass_ = SpliceWith(lambda c: [((), 0, [(z, (0,), ()), (z, (0,), ())], NO_PHASE)])
        assert _deferred(pass_, _hx_circuit()) == []

    def test_record_moved_elsewhere(self):
        # x(1) carried to the front: equal circuits, but not in place
        pass_ = SpliceWith(lambda c: [((1,), 0, [1], NO_PHASE)])
        assert _deferred(pass_, _hx_circuit()) == []

    def test_insertion_off_the_records_wires(self):
        from repro.gates import U2Gate

        pass_ = SpliceWith(lambda c: [((0,), 0, [(U2Gate(0.0, math.pi), (1,), ())], NO_PHASE)])
        found = _deferred(pass_, _hx_circuit())
        assert "unitaries differ" in str(found[0])

    def test_removed_measurement(self):
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        pass_ = SpliceWith(lambda c: [((1,), 1, (), NO_PHASE)])
        found = _deferred(pass_, circuit)
        assert "terminal measurement maps differ" in str(found[0])

    def test_opaque_record(self):
        circuit = _hx_circuit()
        circuit.append(_opaque(), (0,))
        pass_ = SpliceWith(lambda c: [((2,), 2, [(_opaque(), (0,), ())], NO_PHASE)])
        assert _deferred(pass_, circuit) == []

    def test_opaque_gate_in_a_replacement(self):
        from repro.gates import U2Gate

        replacement = [(U2Gate(0.0, math.pi), (0,), ()), (_opaque(), (0,), ())]
        pass_ = SpliceWith(lambda c: [((0,), 0, replacement, NO_PHASE)])
        # neither side can be simulated: the fingerprint tier decides
        assert _deferred(pass_, _hx_circuit()) == []

    def test_two_splices(self):
        class Twice(TransformationPass):
            def transform(self, circuit, property_set):
                once = Unroller().transform(circuit, property_set)
                return once.splice([((), 0, (), 0.5)])

        assert _deferred(Twice(), _hx_circuit()) == []

    def test_output_changed_after_its_splice(self):
        class Appends(TransformationPass):
            def transform(self, circuit, property_set):
                out = Unroller().transform(circuit, property_set)
                out.x(0)  # unsound if only the edits were read
                return out

        found = _deferred(Appends(), _hx_circuit())
        assert "unitaries differ" in str(found[0])

    def test_phase_only_edits_are_proved(self):
        pass_ = SpliceWith(lambda c: [((), 1, (), 0.25)])
        after, validator, found = _validated(pass_, _hx_circuit())
        assert found == [] and validator.window_proofs == 1

    def test_relaxed_contracts_never_take_the_window_tier(self):
        pass_ = SpliceWith(lambda c: [((), 1, (), 0.25)])
        pass_.equivalence = "state"
        after, validator, found = _validated(pass_, _hx_circuit())
        assert found == [] and (validator.window_proofs, validator.window_deferrals) == (0, 0)


# ----------------------------------------------------------------------
# the provenance lives only for one check
# ----------------------------------------------------------------------


class SpliceLogProbe(TransformationPass):
    """Records the splice log it sees while it runs."""

    seen: list = []

    def transform(self, circuit, property_set):
        type(self).seen.append(SPLICE_LOG.get())
        return circuit


def _unrolled_circuit():
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.ccx(0, 1, 2)
    circuit.cp(0.3, 2, 0)
    return circuit


class TestProvenance:
    def test_validation_off_logs_nothing(self):
        SpliceLogProbe.seen = []
        result = PassManager([SpliceLogProbe(), Unroller(), SpliceLogProbe()]).run_with_result(
            _unrolled_circuit(), validate="off"
        )
        assert SpliceLogProbe.seen == [None, None]
        assert SPLICE_LOG.get() is None
        assert set(vars(result.circuit)) == set(vars(QuantumCircuit(1)))

    def test_each_check_drops_its_splices(self, validators):
        SpliceLogProbe.seen = []
        PassManager([SpliceLogProbe(), Unroller(), SpliceLogProbe()]).run_with_result(
            _unrolled_circuit(), validate="full"
        )
        assert [len(log) for log in SpliceLogProbe.seen] == [0, 0]
        assert SPLICE_LOG.get() is None
        (validator,) = validators
        assert validator._splices == []
        assert validator.window_proofs == 1

    def test_outputs_serialize_the_same_with_and_without_validation(self):
        manager = PassManager([Unroller()])
        off = manager.run_with_result(_unrolled_circuit(), validate="off").circuit
        full = manager.run_with_result(_unrolled_circuit(), validate="full").circuit
        assert pickle.dumps(off) == pickle.dumps(full)
        assert pickle.dumps(circuit_to_payload(off)) == pickle.dumps(circuit_to_payload(full))

    def test_a_failing_pass_leaves_no_splices(self):
        class Fails(TransformationPass):
            def transform(self, circuit, property_set):
                circuit.splice([((), 0, (), 0.5)])
                raise RuntimeError("boom")

        validator = QsanValidator(_FULL)
        with pytest.raises(RuntimeError):
            with validator.watch():
                Fails().run(_hx_circuit(), PropertySet())
        assert validator._splices == [] and SPLICE_LOG.get() is None


# ----------------------------------------------------------------------
# the batched predicate against np.allclose
# ----------------------------------------------------------------------


class TestPredicate:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_batched_predicate_matches_allclose(self, dim):
        from repro.linalg.random import random_unitary

        rng = np.random.default_rng(dim)
        references, candidates = [], []
        for scale in [0.0, 1e-12, 1e-9, 4e-9, 1e-8, 3e-8, 1e-6, 1e-5, 1e-3, 1.0] * 3:
            reference = random_unitary(dim, seed=int(rng.integers(2**31)))
            noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            references.append(reference)
            candidates.append(phase * reference + scale * noise)
        references.append(np.zeros((dim, dim), dtype=complex))
        candidates.append(np.zeros((dim, dim), dtype=complex))
        equal, deviation = qsan._phase_deviations(np.stack(references), np.stack(candidates))
        expected = [equal_up_to_phase(r, c) for r, c in zip(references, candidates)]
        assert equal[:-1].tolist() == expected[:-1]
        assert [qsan._equal_up_to_phase(r, c) for r, c in zip(references, candidates)] == (
            equal.tolist()
        )
        assert not equal[-1]  # a zero reference proves nothing
        assert len(set(expected)) == 2  # both verdicts occur
        for r, c, d in zip(references[:-1], candidates[:-1], deviation[:-1]):
            anchor = np.argmax(np.abs(r))
            phase = c.flat[anchor] / r.flat[anchor]
            assert d == pytest.approx(np.linalg.norm(c - phase * r), rel=1e-9, abs=1e-14)
