"""Tests for the first-class ``Target`` abstraction.

A ``Target`` must behave as a value object (hashable, comparable,
picklable, payload-round-trippable), resolve named presets, coerce from
every historical loose-kwarg form, and thread through ``pass_manager_for``
and ``transpile()`` -- including per-circuit targets in one batch.
"""

import pickle

import pytest

from repro.backends import FakeAlmaden, FakeMelbourne
from repro.circuit import QuantumCircuit
from repro.transpiler import (
    CouplingMap,
    Target,
    TranspilerError,
    pass_manager_for,
    transpile,
)
from repro.transpiler.target import resolve_targets

from tests.helpers import respects_coupling


class TestTargetValueSemantics:
    def test_equal_targets_hash_equal(self):
        a = Target(CouplingMap.line(4), name="dev")
        b = Target(CouplingMap.line(4), name="dev")
        assert a == b
        assert hash(a) == hash(b)

    def test_different_edges_differ(self):
        a = Target(CouplingMap.line(4), name="dev")
        b = Target(CouplingMap.ring(4), name="dev")
        assert a != b

    def test_different_basis_differ(self):
        a = Target(CouplingMap.line(3))
        b = Target(CouplingMap.line(3), basis=("u3", "cx"))
        assert a != b

    def test_properties_participate_in_identity(self):
        backend = FakeMelbourne()
        bare = Target(backend.coupling_map, name=backend.name)
        calibrated = Target(
            backend.coupling_map, properties=backend.properties, name=backend.name
        )
        assert bare != calibrated
        assert Target.from_backend(backend) == Target.from_backend(FakeMelbourne())

    def test_usable_as_dict_key(self):
        table = {Target.preset("linear:3"): "a", Target.preset("ring:3"): "b"}
        assert table[Target.preset("linear:3")] == "a"

    def test_pickle_round_trip(self):
        target = Target.from_backend(FakeMelbourne())
        clone = pickle.loads(pickle.dumps(target))
        assert clone == target
        assert hash(clone) == hash(target)
        assert clone.coupling_map.edges == target.coupling_map.edges
        assert clone.properties.two_qubit_error == target.properties.two_qubit_error

    def test_payload_round_trip(self):
        target = Target.from_backend(FakeAlmaden())
        clone = Target.from_payload(target.to_payload())
        assert clone == target
        # payloads are hashable (worker-side memoization keys on them)
        assert hash(target.to_payload()) == hash(clone.to_payload())

    def test_payload_without_properties(self):
        target = Target.preset("grid:2x3")
        clone = Target.from_payload(target.to_payload())
        assert clone == target
        assert clone.properties is None

    def test_label_and_repr(self):
        target = Target.preset("linear:5")
        assert target.label == "linear:5[5q]"
        assert "linear:5" in repr(target)

    def test_rejects_non_coupling(self):
        with pytest.raises(TranspilerError, match="CouplingMap"):
            Target("not a coupling map")


class TestTargetPresets:
    def test_device_presets(self):
        melbourne = Target.preset("melbourne")
        assert melbourne.num_qubits == 15
        assert melbourne.properties is not None
        assert Target.preset("almaden").num_qubits == 20
        assert Target.preset("rochester").num_qubits == 53

    def test_manhattan_style_grid(self):
        manhattan = Target.preset("manhattan")
        assert manhattan.num_qubits == 65
        assert manhattan.coupling_map.is_connected()

    def test_parameterized_presets(self):
        assert Target.preset("linear:6").coupling_map.edges == CouplingMap.line(6).edges
        assert len(Target.preset("ring:5").coupling_map.edges) == 5
        assert Target.preset("grid:3x4").num_qubits == 12
        assert Target.preset("full:4").coupling_map.are_coupled(0, 3)

    def test_unknown_preset_rejected(self):
        with pytest.raises(TranspilerError, match="preset"):
            Target.preset("starship")

    def test_bad_suffix_rejected(self):
        with pytest.raises(TranspilerError):
            Target.preset("linear:many")
        with pytest.raises(TranspilerError):
            Target.preset("grid:3")

    def test_presets_are_built_once_per_spec_and_basis(self, monkeypatch):
        import repro.backends as backends
        from repro.transpiler.target import _preset

        built = []

        def counting():
            built.append(1)
            return FakeMelbourne()

        _preset.cache_clear()
        monkeypatch.setattr(backends, "FakeMelbourne", counting)
        try:
            first = Target.preset("melbourne")
            assert Target.preset(" Melbourne ") is first
            assert Target.preset("melbourne", basis=list(first.basis)) is first
            assert len(built) == 1
            other_basis = Target.preset("melbourne", basis=("u3", "cx"))
            assert other_basis is not first and other_basis.basis == ("u3", "cx")
            assert len(built) == 2
            assert Target.preset("linear:5") is Target.preset("LINEAR:5")
            assert Target.preset("linear:5") is not Target.preset("linear:6")
        finally:
            _preset.cache_clear()  # drop the targets built from the stub

    def test_failed_presets_are_not_remembered(self):
        for _ in range(2):
            with pytest.raises(TranspilerError, match="fixed size"):
                Target.preset("melbourne:3")
            with pytest.raises(TranspilerError, match="unknown target preset 'Starship'"):
                Target.preset("Starship")
        with pytest.raises(TranspilerError, match="suffix"):
            Target.preset("linear")

    def test_fixed_presets_reject_size_suffix(self):
        """Regression test: asking for "melbourne:20" must fail loudly,
        not silently return the 15-qubit device."""
        for spec in ("melbourne:20", "manhattan:9", "rochester:2"):
            with pytest.raises(TranspilerError, match="fixed size"):
                Target.preset(spec)


class TestTargetCoercion:
    def test_target_passes_through(self):
        target = Target.preset("linear:3")
        assert Target.coerce(target) is target

    def test_string_resolves_preset(self):
        assert Target.coerce("melbourne").num_qubits == 15

    def test_coupling_map_wrapped(self):
        coupling = CouplingMap.ring(4)
        target = Target.coerce(coupling, basis=("u3", "cx"))
        assert target.coupling_map is coupling
        assert target.basis == ("u3", "cx")

    def test_backend_wrapped(self):
        backend = FakeMelbourne()
        target = Target.coerce(backend)
        assert target.name == "fake_melbourne"
        assert target.properties is backend.properties

    def test_backend_target_method(self):
        backend = FakeMelbourne()
        assert backend.target() == Target.from_backend(backend)
        assert backend.target(basis=("u3", "cx")).basis == ("u3", "cx")

    def test_garbage_rejected(self):
        with pytest.raises(TranspilerError):
            Target.coerce(42)


class TestResolveTargets:
    def _batch(self, *widths):
        return [QuantumCircuit(w) for w in widths]

    def test_explicit_sequence_wins(self):
        batch = self._batch(3, 3)
        targets = resolve_targets(
            batch, ["linear:5", "ring:5"], FakeMelbourne(), None, None, ("u3", "cx")
        )
        assert [t.name for t in targets] == ["linear:5", "ring:5"]

    def test_sequence_length_must_match(self):
        with pytest.raises(TranspilerError, match="targets"):
            resolve_targets(self._batch(2, 2), ["linear:5"], None, None, None, ())

    def test_backend_applies_to_all(self):
        targets = resolve_targets(
            self._batch(2, 3), None, FakeMelbourne(), None, None, ("u3", "cx")
        )
        assert targets[0] is targets[1]
        assert targets[0].name == "fake_melbourne"

    def test_default_is_full_connectivity_per_width(self):
        targets = resolve_targets(self._batch(2, 3, 2), None, None, None, None, ("cx",))
        assert targets[0].num_qubits == 2
        assert targets[1].num_qubits == 3
        assert targets[0] is targets[2]  # memoized per width

    def test_bare_backend_properties_survive_fallback(self):
        """Regression test: backend_properties without a coupling map must
        still reach the target (noise-aware layout depends on it)."""
        properties = FakeMelbourne().properties
        targets = resolve_targets(self._batch(3), None, None, None, properties, ("cx",))
        assert targets[0].properties is properties
        assert targets[0].name == "full:3"


class TestTargetsThroughPipelines:
    def _circuit(self):
        circuit = QuantumCircuit(4, 4)
        circuit.h(0)
        for control in range(3):
            circuit.cx(control, control + 1)
        circuit.cx(0, 3)
        circuit.measure_all()
        return circuit

    @pytest.mark.parametrize("pipeline", ["level1", "level3", "rpo", "hoare"])
    def test_pass_manager_for_accepts_target(self, pipeline):
        target = Target.preset("linear:5")
        pm = pass_manager_for(pipeline, target, seed=0)
        compiled = pm.run(self._circuit())
        assert respects_coupling(compiled, target.coupling_map)

    def test_pass_manager_for_accepts_preset_name(self):
        pm = pass_manager_for("level1", "linear:5", seed=0)
        assert pm.run(self._circuit()) is not None

    def test_legacy_coupling_kwargs_still_work(self):
        backend = FakeMelbourne()
        pm = pass_manager_for(
            "rpo",
            backend.coupling_map,
            backend_properties=backend.properties,
            seed=0,
        )
        legacy = pm.run(self._circuit())
        via_target = pass_manager_for(
            "rpo", Target.from_backend(backend), seed=0
        ).run(self._circuit())
        assert legacy.count_ops() == via_target.count_ops()

    def test_transpile_accepts_target_kwarg(self):
        target = Target.preset("ring:6")
        compiled = transpile(self._circuit(), target=target, pipeline="rpo", seed=0)
        assert respects_coupling(compiled, target.coupling_map)

    def test_transpile_accepts_preset_name(self):
        compiled = transpile(self._circuit(), target="melbourne", seed=0)
        assert compiled.num_qubits == 15

    def test_heterogeneous_batch_in_one_call(self):
        targets = [Target.preset("linear:6"), Target.preset("ring:6")]
        results = transpile(
            [self._circuit(), self._circuit()],
            target=targets,
            pipeline="rpo",
            seed=[0, 0],
            executor="serial",
            full_result=True,
        )
        for result, target in zip(results, targets):
            assert result.properties["target"] == target
            assert respects_coupling(result.circuit, target.coupling_map)

    def test_target_length_mismatch_rejected(self):
        with pytest.raises(TranspilerError, match="targets"):
            transpile(
                [self._circuit()], target=["linear:6", "ring:6"], executor="serial"
            )

    def test_per_target_metrics_in_batch_report(self):
        from repro.transpiler import aggregate_batch

        results = transpile(
            [self._circuit(), self._circuit(), self._circuit()],
            target=["linear:6", "ring:6", "linear:6"],
            pipeline="rpo",
            seed=[0, 0, 0],
            executor="serial",
            full_result=True,
        )
        report = aggregate_batch(results)
        assert set(report["by_target"]) == {"linear:6[6q]", "ring:6[6q]"}
        assert report["by_target"]["linear:6[6q]"]["num_circuits"] == 2
        assert report["by_target"]["ring:6[6q]"]["num_circuits"] == 1
        assert report["by_target"]["ring:6[6q]"]["num_qubits"] == 6

    def test_same_label_different_targets_not_merged(self):
        """Regression test: two distinct targets sharing a name and width
        must stay separate ``by_target`` entries, not silently merge."""
        from repro.transpiler import CouplingMap, aggregate_batch

        line = Target(CouplingMap.line(6))  # both default to name "custom"
        ring = Target(CouplingMap.ring(6))
        assert line.label == ring.label
        results = transpile(
            [self._circuit(), self._circuit()],
            target=[line, ring],
            pipeline="level1",
            seed=[0, 0],
            executor="serial",
            full_result=True,
        )
        report = aggregate_batch(results)
        assert len(report["by_target"]) == 2
        assert set(report["by_target"]) == {"custom[6q]", "custom[6q]#2"}
        for entry in report["by_target"].values():
            assert entry["num_circuits"] == 1
