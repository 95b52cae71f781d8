"""Tests for the QSAN translation-validation sanitizer."""

import math
import os
import pickle
import subprocess
import sys

import pytest

from repro.analysis import qsan
from repro.analysis.qsan import ContractViolation, QsanConfig, QsanValidator
from repro.circuit import QuantumCircuit
from repro.circuit.instruction import Gate
from repro.transpiler import PassManager, TranspilerError
from repro.transpiler.layout import Layout
from repro.transpiler.passmanager import AnalysisPass, PropertySet, TransformationPass
from repro.transpiler.passes import Size


class MutatingAnalysis(AnalysisPass):
    """An analysis pass that illegally rewrites the circuit."""

    def analyze(self, circuit, props):
        props["bogus"] = True

    def run(self, circuit, props):
        self.analyze(circuit, props)
        out = circuit.copy()
        out.x(0)
        return out


class BrokenOptimizer(TransformationPass):
    """Replaces every X with a Z -- semantically wrong."""

    def transform(self, circuit, props):
        out = circuit.copy_empty_like()
        for instruction in circuit.data:
            if instruction.operation.name == "x":
                out.z(instruction.qubits[0])
            else:
                out.append(
                    instruction.operation, instruction.qubits, instruction.clbits
                )
        return out


class HonestNoop(TransformationPass):
    def transform(self, circuit, props):
        return circuit


class DropsLastGate(TransformationPass):
    """Semantically wrong: drops the circuit's last gate."""

    def transform(self, circuit, props):
        out = circuit.copy_empty_like()
        for instruction in circuit.data[:-1]:
            out.append(instruction.operation, instruction.qubits, instruction.clbits)
        return out


class WritesProperties(TransformationPass):
    """Leaves the circuit alone; adds one property and overwrites another."""

    def transform(self, circuit, props):
        props["novel"] = 1
        props["size"] = 9999
        return circuit


class PrependZZ(TransformationPass):
    """Honest: prepends ``z; z`` on qubit 0, which is the identity."""

    def transform(self, circuit, props):
        out = circuit.copy_empty_like()
        out.z(0)
        out.z(0)
        for instruction in circuit.data:
            out.append(instruction.operation, instruction.qubits, instruction.clbits)
        return out


def _bell():
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


def _bell_measured():
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


class TestContractAudit:
    def test_mutating_analysis_is_caught(self):
        pm = PassManager([MutatingAnalysis()])
        with pytest.raises(ContractViolation) as excinfo:
            pm.run_with_result(_bell(), validate="full")
        assert excinfo.value.kind == "analysis-mutation"

    def test_dropped_gate_is_caught_by_equivalence(self):
        pm = PassManager([Size(), DropsLastGate()])
        with pytest.raises(ContractViolation) as excinfo:
            pm.run_with_result(_bell(), validate="full")
        assert excinfo.value.kind == "equivalence"
        assert excinfo.value.pass_name == "DropsLastGate"
        assert excinfo.value.diff is not None

    def test_property_writes_are_not_audited(self):
        """Passes declare no property writes, so writing or overwriting a
        property on an unchanged circuit is clean under ``"full"``."""
        pm = PassManager([Size(), WritesProperties()])
        result = pm.run_with_result(_bell(), validate="full")
        assert result.violations == []
        assert result.properties["novel"] == 1
        assert result.properties["size"] == 9999

    def test_honest_pipeline_is_clean(self):
        pm = PassManager([Size(), HonestNoop(), Size()])
        result = pm.run_with_result(_bell(), validate="full")
        assert result.violations == []
        assert all(m.violations == 0 for m in result.metrics)


class TestEquivalence:
    def test_broken_optimizer_is_caught(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.x(1)
        circuit.cx(0, 1)
        pm = PassManager([BrokenOptimizer()])
        with pytest.raises(ContractViolation) as excinfo:
            pm.run_with_result(circuit, validate="full")
        assert excinfo.value.kind == "equivalence"
        assert excinfo.value.pass_name == "BrokenOptimizer"
        assert excinfo.value.diff is not None

    def test_broken_optimizer_caught_with_measurements(self):
        circuit = QuantumCircuit(2, 2)
        circuit.x(0)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        pm = PassManager([BrokenOptimizer()])
        with pytest.raises(ContractViolation):
            pm.run_with_result(circuit, validate="full")


class TestReporting:
    def test_report_mode_collects_instead_of_raising(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSAN_REPORT", "1")
        circuit = QuantumCircuit(2)
        circuit.x(0)
        pm = PassManager([Size(), BrokenOptimizer(), MutatingAnalysis()])
        result = pm.run_with_result(circuit, validate="full")
        kinds = sorted(v.kind for v in result.violations)
        assert kinds == ["analysis-mutation", "equivalence"]
        per_pass = {m.name: m.violations for m in result.metrics}
        assert per_pass["BrokenOptimizer"] == 1
        assert per_pass["MutatingAnalysis"] == 1
        assert per_pass["Size"] == 0

    def test_violation_pickle_round_trip(self):
        original = ContractViolation(
            "pass P broke its contract",
            kind="equivalence",
            pass_name="P",
            diff="- x @ 0",
        )
        clone = pickle.loads(pickle.dumps(original))
        assert isinstance(clone, ContractViolation)
        assert clone.args == original.args
        assert clone.kind == "equivalence"
        assert clone.pass_name == "P"
        assert clone.diff == "- x @ 0"


class TestConfigResolution:
    def test_env_aliases(self, monkeypatch):
        for raw, mode in [("1", "full"), ("full", "full"),
                          ("0", "off"), ("off", "off"), ("", "off")]:
            monkeypatch.setenv("REPRO_QSAN", raw)
            assert QsanConfig.resolve().mode == mode
        monkeypatch.setenv("REPRO_QSAN", "contracts")
        with pytest.raises(TranspilerError, match="'full'"):
            QsanConfig.resolve()

    def test_bad_env_value_raises_from_the_pass_manager(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSAN", "sometimes")
        with pytest.raises(TranspilerError, match="'sometimes'; expected 'off' or 'full'"):
            PassManager([Size()]).run_with_result(_bell())

    def test_an_unvalidated_compile_does_not_import_qsan(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = {k: v for k, v in os.environ.items() if k != "REPRO_QSAN"}
        env["PYTHONPATH"] = os.path.join(root, "src")
        code = (
            "import sys\n"
            "from repro import QuantumCircuit, transpile\n"
            "circuit = QuantumCircuit(2)\n"
            "circuit.h(0)\n"
            "circuit.cx(0, 1)\n"
            "transpile(circuit, target='melbourne', pipeline='rpo')\n"
            "assert 'repro.analysis.qsan' not in sys.modules\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-2000:]

    def test_explicit_mode_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSAN", "full")
        assert QsanConfig.resolve("off").mode == "off"

    def test_unset_env_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_QSAN", raising=False)
        assert QsanConfig.resolve().mode == "off"

    def test_bad_mode_raises(self):
        with pytest.raises(TranspilerError, match="unrecognized QSAN mode"):
            QsanConfig.resolve("sometimes")
        with pytest.raises(TranspilerError, match="'contracts'; expected 'off' or 'full'"):
            PassManager([Size()]).run_with_result(_bell(), validate="contracts")

    @pytest.mark.parametrize("front", ["transpile", "service"])
    def test_contracts_mode_is_rejected_by_the_compile_fronts(self, front):
        from repro.transpiler import CompileService, transpile

        with pytest.raises(TranspilerError, match="'contracts'; expected 'off' or 'full'"):
            if front == "transpile":
                transpile(_bell(), pipeline="level1", validate="contracts")
            else:
                with CompileService(mode="serial", validate="contracts") as service:
                    service.map([_bell()])

    def test_env_enables_sanitizer_end_to_end(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSAN", "1")
        pm = PassManager([MutatingAnalysis()])
        with pytest.raises(ContractViolation):
            pm.run_with_result(_bell())

    def test_validator_memo_prunes_to_live_circuit(self):
        validator = QsanValidator(QsanConfig(mode="full"))
        pm_passes = [HonestNoop(), BrokenOptimizer()]
        circuit = _bell()
        # drive check_pass directly: after two passes only the last
        # output's semantic reference may remain cached
        out = circuit.copy()
        validator.check_pass(pm_passes[0], circuit, out, {}, changed=False)
        assert len(validator._memo) <= 1
        # a semantic check fills the scan, sample and state entries of both
        # circuits; only the output's survive it
        measured = _bell_measured()
        rewritten = PrependZZ().transform(measured, {})
        validator.check_pass(PrependZZ(), measured, rewritten, {}, changed=True)
        assert list(validator._memo) == [id(rewritten)]
        kept, values = validator._memo[id(rewritten)]
        assert kept is rewritten
        assert set(values) == {"facts", "state", "counts"}
        assert values["facts"] == (False, {0: 0, 1: 1})


class TestTierWidths:
    """The exact tiers end at the module's width caps (8 qubits for the
    unitary, 14 for the statevector); no environment variable moves them."""

    @pytest.mark.parametrize(
        "width, tier", [(8, "unitary"), (9, "state"), (14, "state"), (15, "fingerprint")]
    )
    def test_width_picks_the_tier(self, monkeypatch, width, tier):
        monkeypatch.setenv("REPRO_QSAN_UNITARY_CAP", "1")
        monkeypatch.setenv("REPRO_QSAN_STATE_CAP", "1")
        validator = QsanValidator(QsanConfig.resolve("full"))
        circuit = QuantumCircuit(width)
        for qubit in range(width):
            circuit.h(qubit)
        rewritten = circuit.copy()
        assert validator.check_pass(HonestNoop(), circuit, rewritten, {}, changed=True) == []
        _, values = validator._memo[id(rewritten)]
        assert set(values) == {"facts", tier}


# ----------------------------------------------------------------------
# the tracker fingerprint tier (wider than the state cap, or annotated)
# ----------------------------------------------------------------------

_WIDE = 15  # one more than the default state cap: fingerprint tier


class Relabel(TransformationPass):
    """Moves every operation from wire ``q`` to ``wires[q]``.

    Honest when ``wires`` is the relabelling its contract's property
    declares, broken otherwise.
    """

    def __init__(self, equivalence, wires, width=None):
        super().__init__()
        self.equivalence = equivalence
        self.wires = list(wires)
        self.width = width

    def transform(self, circuit, props):
        out = QuantumCircuit(self.width or circuit.num_qubits, circuit.num_clbits)
        for instruction in circuit.data:
            out.append(
                instruction.operation,
                tuple(self.wires[q] for q in instruction.qubits),
                instruction.clbits,
            )
        return out


def _wide_states():
    """13 qubits in distinct provable states, then an entangled (TOP) pair."""
    circuit = QuantumCircuit(_WIDE)
    for qubit in range(_WIDE - 2):
        circuit.ry(0.1 * (qubit + 1), qubit)
    circuit.h(_WIDE - 2)
    circuit.cx(_WIDE - 2, _WIDE - 1)
    return circuit


def _run(passes, circuit, **properties):
    return PassManager(passes).run_with_result(
        circuit, property_set=PropertySet(properties), validate="full"
    )


class TestFingerprintTier:
    def test_broken_pass_is_caught_on_the_right_qubit(self):
        circuit = QuantumCircuit(_WIDE)
        for qubit in range(_WIDE):
            circuit.h(qubit)
            circuit.h(qubit)
        circuit.x(9)
        with pytest.raises(ContractViolation) as excinfo:
            _run([BrokenOptimizer()], circuit)
        violation = excinfo.value
        assert violation.kind == "equivalence"
        assert violation.pass_name == "BrokenOptimizer"
        assert str(violation).endswith(
            "tracker fingerprints prove different pure states on qubit 9"
        )

    def test_correct_layout_passes(self):
        wires = [(q + 3) % _WIDE for q in range(_WIDE)]
        layout = Layout({q: w for q, w in enumerate(wires)})
        result = _run([Relabel("layout", wires, width=_WIDE + 2)], _wide_states(), layout=layout)
        assert result.violations == []

    def test_wrong_layout_is_caught(self):
        wires = [(q + 3) % _WIDE for q in range(_WIDE)]
        layout = Layout({q: w for q, w in enumerate(wires)})
        shifted = [(q + 4) % _WIDE for q in range(_WIDE)]
        # qubit 0's declared wire now holds entangled qubit 14 (TOP), which
        # proves nothing; qubit 1's declared wire holds qubit 0's state
        with pytest.raises(ContractViolation, match="on qubit 1$"):
            _run([Relabel("layout", shifted, width=_WIDE + 2)], _wide_states(), layout=layout)

    def test_correct_permutation_passes(self):
        permutation = list(reversed(range(_WIDE)))
        result = _run(
            [Relabel("permutation", permutation)],
            _wide_states(),
            final_permutation=permutation,
        )
        assert result.violations == []

    def test_wrong_permutation_is_caught(self):
        permutation = list(reversed(range(_WIDE)))
        wrong = permutation[:]
        wrong[4], wrong[6] = wrong[6], wrong[4]
        with pytest.raises(ContractViolation, match="on qubit 4$"):
            _run([Relabel("permutation", wrong)], _wide_states(), final_permutation=permutation)

    def test_top_never_reports(self):
        """A correct rewrite the tracker cannot follow leaves wires TOP, and
        TOP is compatible with every state on the other side."""

        class CxAsHCzH(TransformationPass):
            requires = ()
            preserves = ()
            invalidates = ()

            def transform(self, circuit, props):
                out = circuit.copy_empty_like()
                for instruction in circuit.data:
                    if instruction.operation.name == "cx":
                        control, target = instruction.qubits
                        out.h(target)
                        out.cz(control, target)
                        out.h(target)
                    else:
                        out.append(instruction.operation, instruction.qubits)
                return out

        circuit = _wide_states()
        for qubit in range(0, _WIDE - 1, 2):
            circuit.cx(qubit, qubit + 1)
        result = _run([CxAsHCzH()], circuit)
        assert result.violations == []

        provable = qsan.pure_fingerprint(_wide_states())
        unknown = qsan.pure_fingerprint(circuit)
        assert not unknown.known[: _WIDE - 1].any()
        assert qsan._fingerprints_compatible(provable, unknown) is None
        assert qsan._fingerprints_compatible(unknown, provable) is None

    def test_annotated_circuits_take_this_tier(self, monkeypatch):
        """An ANNOT promise sends even a two-qubit circuit to the tracker."""
        simulated = []
        monkeypatch.setattr(
            "repro.simulators.unitary.circuit_unitary",
            lambda circuit: simulated.append(circuit),
        )
        circuit = QuantumCircuit(2)
        circuit.annotate(0, math.pi / 2, 0.0)
        circuit.x(1)
        with pytest.raises(ContractViolation) as excinfo:
            _run([BrokenOptimizer()], circuit)
        assert "tracker fingerprints" in str(excinfo.value)
        assert str(excinfo.value).endswith("on qubit 1")
        assert simulated == []
        assert _run([PrependZZ()], circuit).violations == []

    def test_non_finite_annotation_never_reaches_the_tracker(self, monkeypatch):
        """The constructor rejects an infinite angle, so a validated run of
        what the circuit holds only ever takes sines of finite angles."""
        angles = []
        real_sin = math.sin

        def recording_sin(angle):
            angles.append(angle)
            return real_sin(angle)

        monkeypatch.setattr(math, "sin", recording_sin)
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError, match="annotation theta must be finite"):
            circuit.annotate(1, float("inf"), 0.0)
        circuit.annotate(1, math.pi / 2, 0.0)
        circuit.x(0)
        assert _run([PrependZZ()], circuit).violations == []
        assert angles and all(math.isfinite(angle) for angle in angles)


class TestOpaqueGates:
    """A one-qubit gate with no matrix sends its wire to TOP."""

    def test_opaque_gate_on_a_known_wire(self):
        circuit = QuantumCircuit(_WIDE)
        circuit.x(2)
        circuit.append(Gate("foo", 1), (2,))
        tracker = qsan.pure_fingerprint(circuit)
        assert not tracker.is_known(2)
        assert tracker.state(3) == (0.0, 0.0)
        assert _run([PrependZZ()], circuit).violations == []

    def test_opaque_gate_in_a_narrow_circuit(self):
        """The exact tier cannot simulate it; the fingerprint tier checks."""
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.append(Gate("foo", 1), (1,))
        circuit.x(2)
        assert _run([PrependZZ()], circuit).violations == []
        with pytest.raises(ContractViolation, match="tracker fingerprints .* on qubit 2$"):
            _run([BrokenOptimizer()], circuit)

    def test_opaque_gate_on_a_top_wire(self):
        circuit = QuantumCircuit(_WIDE)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.append(Gate("foo", 1), (0,))
        tracker = qsan.pure_fingerprint(circuit)
        assert not tracker.is_known(0) and not tracker.is_known(1)
        assert _run([PrependZZ()], circuit).violations == []


class TestMemoizedFacts:
    """A circuit is scanned, simulated and sampled once per run."""

    def test_chained_circuits_are_not_rescanned_or_resampled(self, monkeypatch):
        from repro.simulators.statevector import StatevectorSimulator

        scanned, simulated, sampled, rerun = [], [], [], []
        scan = qsan._circuit_facts
        statevector = StatevectorSimulator.statevector
        sample = StatevectorSimulator.sample

        def counting_scan(circuit):
            scanned.append(circuit)
            return scan(circuit)

        def counting_statevector(self, circuit, *args, **kwargs):
            state = statevector(self, circuit, *args, **kwargs)
            simulated.append(state)
            return state

        def counting_sample(self, state, *args, **kwargs):
            sampled.append(state)
            return sample(self, state, *args, **kwargs)

        monkeypatch.setattr(qsan, "_circuit_facts", counting_scan)
        monkeypatch.setattr(StatevectorSimulator, "statevector", counting_statevector)
        monkeypatch.setattr(StatevectorSimulator, "sample", counting_sample)
        monkeypatch.setattr(StatevectorSimulator, "run", lambda *a, **k: rerun.append(a))
        result = _run([PrependZZ(), PrependZZ(), PrependZZ()], _bell_measured())
        assert result.violations == []
        # four distinct circuits (input and three outputs), each once
        assert len(scanned) == 4
        assert len({id(c) for c in scanned}) == 4
        assert len(simulated) == 4
        # each circuit's counts come from the statevector QSAN already
        # computed for it; nothing is simulated a second time to sample
        assert len(sampled) == 4
        assert {id(s) for s in sampled} == {id(s) for s in simulated}
        assert rerun == []

    @pytest.mark.parametrize("seed", range(6))
    def test_counts_from_the_memoized_state_match_run(self, seed):
        """The sampling reference is the one ``run`` would draw."""
        from repro.simulators.statevector import StatevectorSimulator

        from tests.helpers import random_circuit

        circuit = random_circuit(4, 20, seed=seed, measure=True)
        validator = QsanValidator(QsanConfig())
        expected = StatevectorSimulator(seed=qsan.QSAN_SAMPLE_SEED).run(
            circuit, validator.config.sample_shots
        )
        assert validator._semantics(circuit, "counts") == dict(expected)
