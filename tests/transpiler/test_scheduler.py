"""Tests for the pass manager's run loop and TranspileResult metrics."""

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
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.layout import Layout
from repro.transpiler.passes import ApplyLayout, CXCancellation, FixedPoint, Size


class Noop(TransformationPass):
    def transform(self, circuit, props):
        return circuit


class AddX(TransformationPass):
    equivalence = "none"  # test machinery: changes semantics on purpose

    def transform(self, circuit, props):
        out = circuit.copy()
        out.x(0)
        return out


class TestTranspileResult:
    def test_run_with_result_shape(self):
        pm = PassManager([Size(), AddX(), Size()])
        result = pm.run_with_result(QuantumCircuit(1))
        assert isinstance(result, TranspileResult)
        assert result.circuit.size() == 1
        assert result.properties["size"] == 1
        assert [m.name for m in result.metrics] == ["Size", "AddX", "Size"]
        assert result.time > 0

    def test_metrics_record_rewrites(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        pm = PassManager([CXCancellation()])
        result = pm.run_with_result(circuit)
        (metric,) = result.metrics
        assert metric.name == "CXCancellation"
        assert metric.rewrites == 1  # one cancelled pair
        assert result.circuit.size() == 0

    def test_run_returns_circuit(self):
        pm = PassManager([AddX()])
        out = pm.run(QuantumCircuit(1))
        assert isinstance(out, QuantumCircuit)
        assert out.size() == 1

    def test_pass_times_come_from_metrics_not_properties(self):
        properties = PropertySet()
        result = PassManager([Noop()]).run_with_result(QuantumCircuit(1), properties)
        assert [metric.name for metric in result.metrics] == ["Noop"]
        assert all(metric.time >= 0 for metric in result.metrics)
        assert "pass_times" not in properties


class TestRunsItsSchedule:
    def test_every_scheduled_analysis_runs(self):
        """An analysis scheduled twice runs twice, and ``Size`` runs in
        both iterations of a two-iteration fixed-point loop."""
        calls = []

        class CountingSize(Size):
            def analyze(self, circuit, props):
                calls.append(circuit.size())
                super().analyze(circuit, props)

        circuit = QuantumCircuit(1)
        circuit.x(0)
        result = PassManager([CountingSize(), CountingSize()]).run_with_result(circuit)
        assert calls == [1, 1]
        assert [m.name for m in result.metrics] == ["CountingSize", "CountingSize"]

        calls.clear()
        loop = DoWhileController(
            [CountingSize(), FixedPoint("size")],
            do_while=lambda ps: not ps["size_fixed_point"],
        )
        result = PassManager([loop]).run_with_result(circuit)
        (metrics,) = result.loops
        assert metrics.iterations == 2 and metrics.converged
        assert calls == [1, 1]
        assert [m.name for m in result.metrics] == ["CountingSize", "FixedPoint(size)"] * 2

    def test_pass_returning_none_is_a_typed_error(self):
        class ReturnsNone(TransformationPass):
            def transform(self, circuit, props):
                return None

        with pytest.raises(TranspilerError, match="pass ReturnsNone returned None"):
            PassManager([ReturnsNone()]).run(QuantumCircuit(1))

    def test_analysis_after_a_changing_transform_sees_the_new_circuit(self):
        result = PassManager([Size(), AddX(), Size()]).run_with_result(QuantumCircuit(1))
        assert [m.name for m in result.metrics] == ["Size", "AddX", "Size"]
        assert result.properties["size"] == 1

    def test_analysis_after_an_unchanged_transform_stays_correct(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        result = PassManager([Size(), Noop(), Size()]).run_with_result(circuit)
        assert [m.name for m in result.metrics] == ["Size", "Noop", "Size"]
        assert result.properties["size"] == 1

    def test_fixed_point_runs_at_every_position(self):
        # FixedPoint is stateful: its second run compares against the first
        pm = PassManager([Size(), FixedPoint("size"), Size(), FixedPoint("size")])
        result = pm.run_with_result(QuantumCircuit(1))
        names = [m.name for m in result.metrics]
        assert names.count("FixedPoint(size)") == 2
        assert result.properties["size_fixed_point"]

    def test_property_deleted_by_a_transform_is_recomputed(self):
        class DeletesSize(TransformationPass):
            def transform(self, circuit, props):
                props.pop("size", None)
                return circuit

        circuit = QuantumCircuit(1)
        circuit.x(0)
        result = PassManager([Size(), DeletesSize(), Size()]).run_with_result(circuit)
        assert result.properties["size"] == 1

    def test_properties_written_by_a_transform_reach_the_result(self):
        class WritesFlag(TransformationPass):
            def transform(self, circuit, props):
                props["routing_flag"] = True
                return circuit

        result = PassManager([WritesFlag(), Size()]).run_with_result(QuantumCircuit(1))
        assert result.properties["routing_flag"] is True
        assert result.properties["size"] == 0

    def test_passes_and_loops_run_in_schedule_order(self):
        calls = []

        class Record(AnalysisPass):
            def __init__(self, label):
                self.label = label

            def analyze(self, circuit, props):
                calls.append(self.label)
                if self.label == "b":
                    props["b_runs"] = props.get("b_runs", 0) + 1

        loop = DoWhileController(
            [Record("b"), Record("c")], do_while=lambda ps: ps["b_runs"] < 2
        )
        PassManager([Record("a"), loop, Record("d")]).run(QuantumCircuit(1))
        assert calls == ["a", "b", "c", "b", "c", "d"]

    @pytest.mark.parametrize("pipeline", ["level1", "level2"])
    def test_preset_loop_runs_size_every_iteration(self, pipeline):
        """Levels 1 and 2 were the only presets whose ``Size`` runs could
        be skipped; now each loop iteration runs it once."""
        from repro.algorithms import quantum_phase_estimation
        from repro.backends import FakeMelbourne
        from repro.transpiler import transpile

        result = transpile(
            quantum_phase_estimation(3),
            target=FakeMelbourne(),
            pipeline=pipeline,
            seed=1,
            full_result=True,
        )
        (loop,) = result.loops
        assert loop.iterations >= 2
        sizes = [m for m in result.metrics if m.name == "Size"]
        assert len(sizes) == loop.iterations
        assert result.properties["size"] == result.circuit.size()


class TestApplyLayoutNeedsLayout:
    def test_missing_layout_raises(self):
        pm = PassManager([ApplyLayout(CouplingMap.line(2))])
        with pytest.raises(TranspilerError, match="ApplyLayout requires a layout"):
            pm.run(QuantumCircuit(1))

    def test_layout_property_satisfies_apply_layout(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        properties = PropertySet()
        properties["layout"] = Layout({0: 1})
        out = PassManager([ApplyLayout(CouplingMap.line(2))]).run(circuit, properties)
        assert out.num_qubits == 2
        assert [inst.qubits for inst in out.data] == [(1,)]


class TestNoSchedulingMetadata:
    """Passes declare no scheduling metadata and metrics record no skips:
    nothing reads either since every scheduled pass runs."""

    @staticmethod
    def _pass_classes():
        import repro.transpiler.passes as passes
        from repro.rpo import HoareOptimizer, QBOPass, QPOPass
        from repro.transpiler.passmanager import BasePass

        shipped = [getattr(passes, name) for name in passes.__all__]
        shipped = [c for c in shipped if isinstance(c, type) and issubclass(c, BasePass)]
        return [BasePass, AnalysisPass, TransformationPass, HoareOptimizer,
                QBOPass, QPOPass, *shipped]

    @pytest.mark.parametrize(
        "attribute", ["requires", "provides", "preserves", "invalidates", "writes"]
    )
    def test_no_pass_declares(self, attribute):
        offenders = [c.__name__ for c in self._pass_classes() if hasattr(c, attribute)]
        assert offenders == []

    def test_pass_metrics_have_no_skip_flag(self):
        result = PassManager([Size(), Size()]).run_with_result(QuantumCircuit(1))
        assert all(not hasattr(m, "skipped") for m in result.metrics)


class TestLoopMetrics:
    def _counting_loop(self, max_iterations=10, stop_after=3):
        class Count(AnalysisPass):
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
            target=backend, pipeline="rpo", seed=[0, 1, 2, 3], full_result=True
        )
        serial = transpile([circuit.copy() for _ in range(4)], **kwargs)
        with CompileService(
            mode="process", max_workers=2, result_cache=False
        ) as service:
            pooled = transpile(
                [circuit.copy() for _ in range(4)], service=service, **kwargs
            )
        assert total(serial) == total(pooled) > 0
