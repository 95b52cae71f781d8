"""Tests for the requirements-aware scheduler and TranspileResult metrics."""

import threading

import pytest

from repro.circuit import QuantumCircuit
from repro.transpiler import PassManager, TranspilerError
from repro.transpiler.passmanager import (
    AnalysisPass,
    DoWhileController,
    PropertySet,
    TransformationPass,
    TranspileResult,
)
from repro.transpiler.passes import CXCancellation, FixedPoint, Size


class Noop(TransformationPass):
    def transform(self, circuit, props):
        return circuit


class RebuildUnchanged(TransformationPass):
    """Returns a fresh but structurally identical circuit."""

    def transform(self, circuit, props):
        return circuit.copy()


class AddX(TransformationPass):
    equivalence = "none"  # test machinery: changes semantics on purpose

    def transform(self, circuit, props):
        out = circuit.copy()
        out.x(0)
        return out


class NeedsLayout(TransformationPass):
    requires = ("layout",)

    def transform(self, circuit, props):
        return circuit


class TestTranspileResult:
    def test_run_with_result_shape(self):
        pm = PassManager([Size(), AddX(), Size()])
        result = pm.run_with_result(QuantumCircuit(1))
        assert isinstance(result, TranspileResult)
        assert result.circuit.size() == 1
        assert result.properties["size"] == 1
        assert [m.name for m in result.metrics] == ["Size", "AddX", "Size"]
        assert result.time > 0

    def test_metrics_record_gate_and_depth_delta(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        pm = PassManager([CXCancellation()])
        result = pm.run_with_result(circuit)
        (metric,) = result.metrics
        assert metric.size_before == 2
        assert metric.size_after == 0
        assert metric.size_delta == -2
        assert metric.depth_delta == -2
        assert metric.rewrites == 1  # one cancelled pair

    def test_run_returns_circuit(self):
        pm = PassManager([AddX()])
        out = pm.run(QuantumCircuit(1))
        assert isinstance(out, QuantumCircuit)
        assert out.size() == 1

    def test_pass_times_come_from_metrics_not_properties(self):
        properties = PropertySet()
        result = PassManager([Noop()]).run_with_result(QuantumCircuit(1), properties)
        assert [name for name, _ in result.pass_times] == ["Noop"]
        assert [metric.name for metric in result.metrics] == ["Noop"]
        assert "pass_times" not in properties


class TestAnalysisSkipping:
    def test_second_identical_analysis_skipped(self):
        pm = PassManager([Size(), Size()])
        result = pm.run_with_result(QuantumCircuit(1))
        assert [m.skipped for m in result.metrics] == [False, True]

    def test_analysis_stays_valid_across_unchanged_transform(self):
        pm = PassManager([Size(), RebuildUnchanged(), Size()])
        result = pm.run_with_result(QuantumCircuit(1))
        assert [m.skipped for m in result.metrics] == [False, False, True]

    def test_changed_transform_invalidates(self):
        pm = PassManager([Size(), AddX(), Size()])
        result = pm.run_with_result(QuantumCircuit(1))
        assert [m.skipped for m in result.metrics] == [False, False, False]
        assert result.properties["size"] == 1

    def test_skipped_analysis_keeps_property_correct(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        pm = PassManager([Size(), Noop(), Size()])
        result = pm.run_with_result(circuit)
        assert result.metrics[2].skipped
        assert result.properties["size"] == 1

    def test_fixed_point_never_skipped(self):
        # FixedPoint is stateful: skipping it would stall the level-3 loop
        pm = PassManager([Size(), FixedPoint("size"), Size(), FixedPoint("size")])
        result = pm.run_with_result(QuantumCircuit(1))
        skipped = {m.name: m.skipped for m in result.metrics if "FixedPoint" in m.name}
        assert skipped == {"FixedPoint(size)": False}
        assert result.properties["size_fixed_point"]


class TestPropertyWritesCountAsChanges:
    """Regression: a structurally-unchanged transformation pass used to
    keep every analysis valid even when it wrote new properties."""

    def test_undeclared_write_invalidates_analyses(self):
        class WritesUndeclared(TransformationPass):
            def transform(self, circuit, props):
                props["novel"] = 1
                return circuit

        pm = PassManager([Size(), WritesUndeclared(), Size()])
        # validate="off": this deliberately-undeclared write exercises the
        # scheduler's skip logic, not the sanitizer (which would raise).
        result = pm.run_with_result(QuantumCircuit(1), validate="off")
        # the hidden write must invalidate: the second Size re-runs
        assert [m.skipped for m in result.metrics] == [False, False, False]

    def test_undeclared_delete_invalidates_analyses(self):
        class DeletesProperty(TransformationPass):
            def transform(self, circuit, props):
                props.pop("size", None)
                return circuit

        pm = PassManager([Size(), DeletesProperty(), Size()])
        result = pm.run_with_result(QuantumCircuit(1), validate="off")
        assert [m.skipped for m in result.metrics] == [False, False, False]
        assert result.properties["size"] == 0

    def test_declared_write_on_unchanged_circuit_keeps_validity(self):
        class WritesDeclared(TransformationPass):
            writes = ("routing_flag",)

            def transform(self, circuit, props):
                props["routing_flag"] = True
                return circuit

        pm = PassManager([Size(), WritesDeclared(), Size()])
        result = pm.run_with_result(QuantumCircuit(1))
        # publishing a declared artifact is not a hidden change: skip holds
        assert [m.skipped for m in result.metrics] == [False, False, True]

    def test_bookkeeping_writes_do_not_invalidate(self):
        class TouchesBookkeeping(TransformationPass):
            def transform(self, circuit, props):
                props["_scratch"] = object()
                return circuit

        pm = PassManager([Size(), TouchesBookkeeping(), Size()])
        result = pm.run_with_result(QuantumCircuit(1))
        assert [m.skipped for m in result.metrics] == [False, False, True]


class TestRequires:
    def test_missing_requirement_raises(self):
        pm = PassManager([NeedsLayout()])
        with pytest.raises(TranspilerError, match="requires property 'layout'"):
            pm.run(QuantumCircuit(1))

    def test_requirement_satisfied_by_property(self):
        properties = PropertySet()
        properties["layout"] = object()
        PassManager([NeedsLayout()]).run(QuantumCircuit(1), properties)


class TestLoopMetrics:
    def _counting_loop(self, max_iterations=10, stop_after=3):
        class Count(AnalysisPass):
            writes = ("n",)  # stateful counter: declared write, never skipped

            def analyze(self, circuit, props):
                props["n"] = props.get("n", 0) + 1

        return DoWhileController(
            [Count()],
            do_while=lambda ps: ps["n"] < stop_after,
            max_iterations=max_iterations,
        )

    def test_converged_loop(self):
        pm = PassManager([self._counting_loop(stop_after=3)])
        result = pm.run_with_result(QuantumCircuit(1))
        (loop,) = result.loops
        assert loop.iterations == 3
        assert loop.converged
        assert len(loop.iteration_times) == 3
        assert all(t >= 0 for t in loop.iteration_times)
        assert loop.time >= sum(loop.iteration_times)

    def test_exhausted_loop_not_converged(self):
        pm = PassManager([self._counting_loop(max_iterations=2, stop_after=99)])
        result = pm.run_with_result(QuantumCircuit(1))
        (loop,) = result.loops
        assert loop.iterations == 2
        assert not loop.converged

    def test_loop_metrics_live_on_the_result_only(self):
        pm = PassManager([self._counting_loop()])
        result = pm.run_with_result(QuantumCircuit(1))
        (loop,) = result.loops
        assert loop.converged
        assert "loop_metrics" not in result.properties


class TestConcurrency:
    def test_concurrent_runs_do_not_race(self):
        """Satellite: one manager, many threads, isolated results."""

        class RecordWidth(AnalysisPass):
            provides = ("width",)

            def analyze(self, circuit, props):
                props["width"] = circuit.num_qubits

        pm = PassManager([RecordWidth(), AddX()])
        results: dict[int, TranspileResult] = {}

        def work(width: int) -> None:
            for _ in range(20):
                results[width] = pm.run_with_result(QuantumCircuit(width))

        threads = [threading.Thread(target=work, args=(w,)) for w in (1, 2, 3, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for width, result in results.items():
            assert result.properties["width"] == width
            assert result.circuit.num_qubits == width

    def test_pooled_batch_rewrite_counts_match_serial(self):
        """Rewrite metrics are per-run state: no bleed between the jobs a
        pool worker runs back to back."""
        from repro.backends import FakeMelbourne
        from repro.transpiler import CompileService, transpile

        backend = FakeMelbourne()
        circuit = QuantumCircuit(3, 3)
        circuit.x(1)
        circuit.h(2)
        circuit.cx(0, 2)
        circuit.cx(1, 2)
        circuit.measure_all()

        def total(results):
            return sum(m.rewrites for r in results for m in r.metrics)

        kwargs = dict(
            backend=backend, pipeline="rpo", seed=[0, 1, 2, 3], full_result=True
        )
        serial = transpile([circuit.copy() for _ in range(4)], **kwargs)
        with CompileService(
            mode="process", max_workers=2, result_cache=False
        ) as service:
            pooled = transpile(
                [circuit.copy() for _ in range(4)], service=service, **kwargs
            )
        assert total(serial) == total(pooled) > 0
