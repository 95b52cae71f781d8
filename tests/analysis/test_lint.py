"""Per-rule tests for repro-lint (positive and negative fixtures)."""

import textwrap

from repro.analysis import lint
from repro.analysis.lint import lint_source


SERVICE_PATH = "src/repro/transpiler/service.py"
PASSES_PATH = "src/repro/transpiler/passes/custom.py"


def findings(source, path, select=None):
    return lint_source(textwrap.dedent(source), path, select)


def rule_ids(source, path, select=None):
    return [f.rule for f in findings(source, path, select)]


class TestPCK001:
    def test_boundary_class_with_lock_and_no_hook_flagged(self):
        src = """
        import threading
        class AnalysisCache:
            def __init__(self):
                self._lock = threading.RLock()
        """
        found = findings(src, SERVICE_PATH)
        assert [f.rule for f in found] == ["PCK001"]
        assert "unpicklable" in found[0].message

    def test_boundary_class_with_getstate_clean(self):
        src = """
        import threading
        class AnalysisCache:
            def __init__(self):
                self._lock = threading.RLock()
            def __getstate__(self):
                state = dict(self.__dict__)
                state.pop("_lock")
                return state
        """
        assert rule_ids(src, SERVICE_PATH) == []

    def test_boundary_class_with_reduce_clean(self):
        src = """
        class ContractViolation(Exception):
            def __reduce__(self):
                return (ContractViolation, self.args)
        """
        assert rule_ids(src, SERVICE_PATH) == []

    def test_registered_picklable_plain_class_clean(self):
        src = """
        class PassMetrics:
            name = ""
        """
        assert rule_ids(src, SERVICE_PATH) == []

    def test_unregistered_boundary_class_flagged(self):
        # Target is boundary-registered but not registered picklable-as-is
        src = """
        class Target:
            pass
        """
        found = findings(src, SERVICE_PATH)
        assert [f.rule for f in found] == ["PCK001"]
        assert "registered" in found[0].message

    def test_non_boundary_class_with_lock_ignored(self):
        src = """
        import threading
        class CompileService:
            def __init__(self):
                self._lock = threading.RLock()
        """
        assert rule_ids(src, SERVICE_PATH) == []


class TestDET001:
    def test_time_in_fingerprint_flagged(self):
        src = """
        import time
        def job_fingerprint(payload):
            return hash((payload, time.time()))
        """
        found = findings(src, SERVICE_PATH)
        assert [f.rule for f in found] == ["DET001"]
        assert "time.time" in found[0].message

    def test_random_in_cache_key_flagged(self):
        src = """
        import random
        def make_cache_key(job):
            return (job, random.random())
        """
        assert rule_ids(src, SERVICE_PATH) == ["DET001"]

    def test_uuid4_and_numpy_random_flagged(self):
        src = """
        import uuid
        import numpy as np
        def entry_key(job):
            return (uuid.uuid4(), np.random.rand())
        """
        assert rule_ids(src, SERVICE_PATH) == ["DET001", "DET001"]

    def test_from_import_detected(self):
        src = """
        from time import perf_counter
        def digest_of(job):
            return (job, perf_counter())
        """
        assert rule_ids(src, SERVICE_PATH) == ["DET001"]

    def test_datetime_now_flagged(self):
        src = """
        import datetime
        def snapshot_fingerprint(job):
            return (job, datetime.datetime.now())
        """
        assert rule_ids(src, SERVICE_PATH) == ["DET001"]

    def test_clock_outside_key_producer_allowed(self):
        src = """
        import time
        def run_pass(p):
            start = time.perf_counter()
            return time.perf_counter() - start
        """
        assert rule_ids(src, SERVICE_PATH) == []

    def test_pragma_suppresses(self):
        src = """
        import time
        def job_fingerprint(payload):
            return hash((payload, time.time()))  # repro-lint: ignore[DET001]
        """
        assert rule_ids(src, SERVICE_PATH) == []

    def test_deterministic_fingerprint_clean(self):
        src = """
        import hashlib
        def job_fingerprint(payload):
            return hashlib.sha256(repr(payload).encode()).hexdigest()
        """
        assert rule_ids(src, SERVICE_PATH) == []


class TestLCK001:
    def test_unlocked_mutation_flagged(self):
        src = """
        _MEMO = {}
        def remember(key, value):
            _MEMO[key] = value
        """
        found = findings(src, SERVICE_PATH)
        assert [f.rule for f in found] == ["LCK001"]
        assert "_MEMO" in found[0].message

    def test_mutation_under_lock_clean(self):
        src = """
        import threading
        _MEMO = {}
        _LOCK = threading.Lock()
        def remember(key, value):
            with _LOCK:
                _MEMO[key] = value
        """
        assert rule_ids(src, SERVICE_PATH) == []

    def test_method_mutators_detected(self):
        src = """
        _SEEN = set()
        def note(item):
            _SEEN.add(item)
        """
        assert rule_ids(src, SERVICE_PATH) == ["LCK001"]

    def test_nested_function_does_not_inherit_lock(self):
        src = """
        import threading
        _ITEMS = []
        _LOCK = threading.Lock()
        def outer():
            with _LOCK:
                def callback():
                    _ITEMS.append(1)
                return callback
        """
        assert rule_ids(src, SERVICE_PATH) == ["LCK001"]

    def test_lock_inside_conditional_respected(self):
        src = """
        import threading
        _MEMO = {}
        _LOCK = threading.Lock()
        def remember(key, value):
            if key is not None:
                with _LOCK:
                    _MEMO[key] = value
        """
        assert rule_ids(src, SERVICE_PATH) == []

    def test_conditional_mutation_flagged_once(self):
        src = """
        _MEMO = {}
        def remember(key, value):
            if key is not None:
                _MEMO[key] = value
        """
        assert rule_ids(src, SERVICE_PATH) == ["LCK001"]

    def test_module_level_mutation_allowed(self):
        # import-time registration is single-threaded
        src = """
        _REGISTRY = {}
        _REGISTRY["default"] = object()
        """
        assert rule_ids(src, SERVICE_PATH) == []

    def test_out_of_scope_module_ignored(self):
        src = """
        _MEMO = {}
        def remember(key, value):
            _MEMO[key] = value
        """
        assert rule_ids(src, "src/repro/rpo/qbo.py") == []

    def test_immutable_module_constant_ignored(self):
        src = """
        _NAMES = ("a", "b")
        _ACTIVE = None
        def use():
            return _NAMES, _ACTIVE
        """
        assert rule_ids(src, SERVICE_PATH) == []


class TestCIR001:
    def test_direct_record_construction_flagged(self):
        src = """
        from repro.circuit.quantumcircuit import CircuitInstruction
        def decode(circuit, op, qubits):
            return CircuitInstruction(op, qubits, ())
        """
        found = findings(src, PASSES_PATH)
        assert [f.rule for f in found] == ["CIR001"]
        assert "CircuitInstruction()" in found[0].message

    def test_qualified_and_make_constructions_flagged(self):
        src = """
        import repro.circuit.quantumcircuit as qc
        def decode(op):
            a = qc.CircuitInstruction(op, (0,))
            b = qc.CircuitInstruction._make((op, (0,), ()))
            return a, b
        """
        assert rule_ids(src, PASSES_PATH) == ["CIR001", "CIR001"]

    def test_data_mutators_flagged(self):
        src = """
        def splice(circuit, other, record):
            circuit.data.append(record)
            circuit.data.extend(other.data)
            self_out = circuit
            self_out.data.insert(0, record)
            append = circuit.data.append
            append(record)
        """
        # the alias on line 7 is flagged where the mutator is taken
        assert [f.line for f in findings(src, PASSES_PATH)] == [3, 4, 6, 7]

    def test_call_result_data_flagged(self):
        src = """
        def splice(make, record):
            make().data.append(record)
        """
        found = findings(src, PASSES_PATH)
        assert [f.rule for f in found] == ["CIR001"]
        assert "<expr>.data.append" in found[0].message

    def test_checked_paths_clean(self):
        src = """
        def build(circuit, op, records, data):
            circuit.append(op, (0, 1))
            records.append(op)
            data.append(op)
            list(circuit.data).append(op)
            return circuit.data[0], len(circuit.data)
        """
        assert rule_ids(src, PASSES_PATH) == []

    def test_quantumcircuit_module_exempt(self):
        src = """
        class QuantumCircuit:
            def append(self, op, qubits, clbits=()):
                self.data.append(CircuitInstruction(op, qubits, clbits))
        """
        assert rule_ids(src, "src/repro/circuit/quantumcircuit.py") == []
        assert rule_ids(src, "src/repro/circuit/serialization.py") == ["CIR001", "CIR001"]

    def test_src_tree_is_clean(self):
        from pathlib import Path

        src_root = Path(__file__).resolve().parents[2] / "src"
        assert lint.lint_paths([str(src_root)], select={"CIR001"}) == []


class TestMAT001:
    def test_to_matrix_call_flagged(self):
        src = """
        def track(tracker, operation, qubit):
            tracker.apply_1q_gate(qubit, operation.to_matrix())
        """
        found = findings(src, PASSES_PATH)
        assert [f.rule for f in found] == ["MAT001"]
        assert found[0].line == 3
        assert "operation.to_matrix" in found[0].message

    def test_alias_and_call_result_flagged(self):
        src = """
        def gather(ops, make):
            build = ops[0].to_matrix
            return build(), make().to_matrix()
        """
        found = findings(src, PASSES_PATH)
        assert [f.rule for f in found] == ["MAT001", "MAT001"]
        assert [f.line for f in found] == [3, 4]
        assert all("<expr>.to_matrix" in f.message for f in found)

    def test_non_gate_class_flagged(self):
        src = """
        class QuantumCircuit:
            def to_matrix(self):
                return [op.to_matrix() for op in self.ops]
        """
        assert rule_ids(src, "src/repro/circuit/quantumcircuit.py") == ["MAT001"]

    def test_memo_reads_clean(self):
        src = """
        def track(tracker, operation, qubit):
            tracker.apply_1q_gate(qubit, operation.matrix)
            return "to_matrix"
        """
        assert rule_ids(src, PASSES_PATH) == []

    def test_gate_classes_exempt(self):
        src = """
        from repro.circuit import instruction

        class U2Gate(Gate):
            def to_matrix(self):
                return U3Gate(1.5, 0.0, 0.0).to_matrix()

        class Controlled(instruction.ControlledGate):
            def to_matrix(self):
                def build():
                    return self.base_gate.to_matrix()
                return build()

        class Gate(Instruction):
            @property
            def matrix(self):
                return self.to_matrix()
        """
        assert rule_ids(src, "src/repro/gates/parametric.py") == []

    def test_pragma_suppresses(self):
        src = """
        def check(op):
            return op.to_matrix()  # repro-lint: ignore[MAT001] fresh copy wanted
        """
        assert rule_ids(src, PASSES_PATH) == []

    def test_src_tree_is_clean(self):
        from pathlib import Path

        src_root = Path(__file__).resolve().parents[2] / "src"
        assert lint.lint_paths([str(src_root)], select={"MAT001"}) == []


class TestDriver:
    def test_src_tree_is_clean_under_every_rule(self):
        from pathlib import Path

        src_root = Path(__file__).resolve().parents[2] / "src"
        assert lint.lint_paths([str(src_root)]) == []

    def test_pass_without_scheduling_metadata_is_clean(self):
        src = """
        from repro.transpiler.passmanager import AnalysisPass, TransformationPass

        class CountThings(AnalysisPass):
            def analyze(self, circuit, props):
                props["things"] = circuit.size()

        class DoNothing(TransformationPass):
            def transform(self, circuit, props):
                return circuit
        """
        assert rule_ids(src, PASSES_PATH) == []

    def test_skip_file_pragma(self):
        src = """\
        # repro-lint: skip-file
        _MEMO = {}
        def remember(key, value):
            _MEMO[key] = value
        """
        assert rule_ids(src, SERVICE_PATH) == []

    def test_select_filters_rules(self):
        src = """
        import time
        _MEMO = {}
        def cache_key(job):
            _MEMO[0] = time.time()
        """
        assert rule_ids(src, SERVICE_PATH) == ["DET001", "LCK001"]
        assert rule_ids(src, SERVICE_PATH, select={"DET001"}) == ["DET001"]
        assert rule_ids(src, SERVICE_PATH, select={"LCK001"}) == ["LCK001"]

    def test_multi_rule_pragma(self):
        src = """
        import time
        _MEMO = {}
        def cache_key(job):
            _MEMO[0] = time.time()  # repro-lint: ignore[DET001, LCK001]
        """
        assert rule_ids(src, SERVICE_PATH) == []

    def test_pragma_names_only_the_rules_it_lists(self):
        src = """
        import time
        _MEMO = {}
        def cache_key(job):
            _MEMO[0] = time.time()  # repro-lint: ignore[LCK001]
        """
        assert rule_ids(src, SERVICE_PATH) == ["DET001"]

    def test_findings_sorted_and_rendered(self):
        src = """
        import time
        def b_key(job):
            return (job, time.time())
        def a_key(job):
            return (job, time.monotonic())
        """
        found = findings(src, SERVICE_PATH)
        assert [f.rule for f in found] == ["DET001", "DET001"]
        assert [f.line for f in found] == sorted(f.line for f in found)
        rendered = found[0].render()
        assert SERVICE_PATH in rendered and "DET001" in rendered
        assert rendered.startswith(f"{SERVICE_PATH}:{found[0].line}: DET001 ")

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint.main([str(clean)]) == 0
        dirty = tmp_path / "repro" / "transpiler"
        dirty.mkdir(parents=True)
        bad = dirty / "service.py"
        bad.write_text("_MEMO = {}\ndef f(k):\n    _MEMO[k] = 1\n")
        assert lint.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "LCK001" in out

    def test_cli_list_rules(self, capsys):
        assert lint.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("PCK001", "DET001", "LCK001", "CIR001", "MAT001"):
            assert rule_id in out
        for retired in ("RES001", "PAS001"):
            assert retired not in out

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        result = lint.lint_paths([str(bad)])
        assert [f.rule for f in result] == ["E999"]
