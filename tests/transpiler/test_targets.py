"""Tests for the first-class ``Target`` abstraction.

A ``Target`` must behave as a value object (hashable, comparable,
picklable, payload-round-trippable), resolve named presets, coerce from
every value ``target=`` accepts, and thread through ``pass_manager_for``
and ``transpile()`` -- including per-circuit targets in one batch -- with
the same resolution on the in-process, service and remote fronts.
"""

import pickle

import pytest

from repro.algorithms import quantum_phase_estimation
from repro.backends import FakeAlmaden, FakeMelbourne
from repro.circuit import QuantumCircuit
from repro.server import CompileServer
from repro.transpiler import (
    CompileService,
    CouplingMap,
    Target,
    TranspilerError,
    pass_manager_for,
    transpile,
)
from repro.transpiler.passes import IBM_BASIS
from repro.transpiler.service import resolve_target

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
        target = Target.coerce(coupling)
        assert target.coupling_map is coupling
        assert target.basis == IBM_BASIS
        assert target.properties is None

    def test_custom_basis_is_part_of_the_target(self):
        coupling = CouplingMap.ring(4)
        target = Target(coupling, basis=("u3", "cx"))
        assert Target.coerce(target) is target
        assert Target.full(3, basis=("u3", "cx")).basis == ("u3", "cx")

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


class TestResolveTarget:
    def test_explicit_target_wins_over_default(self):
        circuit = QuantumCircuit(3)
        default = Target.preset("ring:5")
        assert resolve_target(circuit, "linear:5", default) is Target.preset("linear:5")
        assert resolve_target(circuit, None, default) is default

    def test_default_is_the_shared_full_preset_of_the_width(self):
        two, three = QuantumCircuit(2), QuantumCircuit(3)
        assert resolve_target(two, None, None) is Target.preset("full:2")
        assert resolve_target(three, None, None) == Target.full(3)
        assert resolve_target(QuantumCircuit(2), None, None) is resolve_target(
            two, None, None
        )

    def test_rejects_non_circuits(self):
        with pytest.raises(TranspilerError, match="QuantumCircuit"):
            resolve_target("not a circuit", None, None)


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


@pytest.fixture(scope="module")
def level1_server():
    with CompileServer(mode="serial", pipeline="level1") as srv:
        yield srv.start()


def _transpile_on(front, server, circuits, **kwargs):
    """``transpile()`` through one compile front, with full results."""
    kwargs.setdefault("pipeline", "level1")
    if front == "in-process":
        return transpile(circuits, full_result=True, **kwargs)
    if front == "service":
        with CompileService(mode="serial") as service:
            return transpile(circuits, full_result=True, service=service, **kwargs)
    return transpile(circuits, full_result=True, endpoint=server.endpoint, **kwargs)


FRONTS = ["in-process", "service", "remote"]


class TestOneTargetSpelling:
    """``target=`` is the one way to name a device, resolved alike on every
    front."""

    @pytest.mark.parametrize("front", FRONTS)
    @pytest.mark.parametrize(
        "value, expected",
        [
            (Target.preset("grid:2x3"), [Target.preset("grid:2x3")] * 2),
            ("melbourne", [Target.preset("melbourne")] * 2),
            (FakeMelbourne(), [Target.from_backend(FakeMelbourne())] * 2),
            (CouplingMap.line(5), [Target(CouplingMap.line(5))] * 2),
            (
                ["ring:5", FakeAlmaden()],
                [Target.preset("ring:5"), Target.from_backend(FakeAlmaden())],
            ),
        ],
        ids=["target", "preset-name", "backend", "coupling-map", "per-circuit"],
    )
    def test_target_resolves_alike(self, level1_server, front, value, expected):
        circuits = [QuantumCircuit(3), QuantumCircuit(3)]
        for circuit in circuits:
            circuit.h(0)
            circuit.cx(0, 2)
        results = _transpile_on(front, level1_server, circuits, target=value, seed=0)
        assert [result.properties["target"] for result in results] == expected

    @pytest.mark.parametrize("front", FRONTS)
    def test_unset_target_shares_one_target_per_width(self, level1_server, front):
        circuits = [QuantumCircuit(3), QuantumCircuit(4), QuantumCircuit(3)]
        results = _transpile_on(front, level1_server, circuits, seed=0)
        first, wide, second = (result.properties["target"] for result in results)
        assert first == Target.full(3) and wide == Target.full(4)
        assert first is second

    def test_backend_and_preset_name_compile_identically(self):
        circuit = quantum_phase_estimation(4)
        via_backend = transpile(
            circuit.copy(), target=FakeMelbourne(), pipeline="rpo", seed=0
        )
        via_name = transpile(circuit.copy(), target="melbourne", pipeline="rpo", seed=0)
        assert via_backend.global_phase.hex() == via_name.global_phase.hex()
        assert len(via_backend.data) == len(via_name.data)
        for a, b in zip(via_backend.data, via_name.data):
            assert a.operation.name == b.operation.name
            assert (a.qubits, a.clbits) == (b.qubits, b.clbits)
            assert [float(p).hex() for p in a.operation.params] == [
                float(p).hex() for p in b.operation.params
            ]

    @pytest.mark.parametrize(
        "keyword", ["backend", "coupling_map", "backend_properties", "basis_gates"]
    )
    def test_loose_device_keywords_are_gone(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            transpile(QuantumCircuit(2), **{keyword: None})


class TestU3OnlyBasis:
    """A target whose basis has ``u3`` but neither ``u1`` nor ``u2`` gets
    only ``u3`` one-qubit gates from every pipeline, and the IBM basis keeps
    its ``u1``/``u2``/``u3`` outputs bit for bit."""

    BASIS = ("u3", "cx")

    @pytest.mark.parametrize(
        "pipeline", ["level0", "level1", "level2", "level3", "rpo", "hoare"]
    )
    @pytest.mark.parametrize("seed", [5, 11])
    def test_every_pipeline_stays_in_the_basis(self, pipeline, seed):
        from tests.helpers import random_circuit

        target = Target(CouplingMap.line(3), basis=self.BASIS)
        circuit = random_circuit(3, 15, seed=seed, measure=True)
        compiled = transpile(
            circuit, target=target, pipeline=pipeline, seed=1, validate="full"
        )
        names = {instruction.operation.name for instruction in compiled.data}
        assert names <= set(self.BASIS) | {"measure", "barrier"}
        assert "u3" in names

    def test_fused_runs_are_single_u3_gates(self):
        import numpy as np

        from repro.transpiler.passes import Optimize1qGates
        from repro.transpiler.passmanager import PropertySet

        from tests.helpers import assert_unitarily_equal

        circuit = QuantumCircuit(3)
        circuit.h(0).s(0)  # a u2
        circuit.t(1).s(1)  # a u1
        circuit.rx(0.3, 2).rz(0.2, 2)  # a u3
        circuit.cx(0, 1)
        circuit.z(2).z(2)  # the identity: no gate
        out = Optimize1qGates(self.BASIS).run(circuit, PropertySet())
        assert dict(out.count_ops()) == {"u3": 3, "cx": 1}
        assert_unitarily_equal(circuit, out)
        [diagonal] = [
            instruction.operation.params
            for instruction in out.data
            if instruction.qubits == (1,)
        ]
        assert diagonal[:2] == [0.0, 0.0] and np.isclose(diagonal[2], 3 * np.pi / 4)

    @pytest.mark.parametrize(
        "basis, expected",
        [(("u1", "u3", "cx"), {"u1", "u3"}), (("u2", "u3", "cx"), {"u2", "u3"})],
    )
    def test_partial_bases_get_u3_for_what_they_lack(self, basis, expected):
        from repro.transpiler.passes import Optimize1qGates
        from repro.transpiler.passmanager import PropertySet

        from tests.helpers import assert_unitarily_equal

        circuit = QuantumCircuit(3)
        circuit.h(0).s(0)  # a u2
        circuit.t(1).s(1)  # a u1
        circuit.rx(0.3, 2).rz(0.2, 2)  # a u3
        out = Optimize1qGates(basis).run(circuit, PropertySet())
        assert set(out.count_ops()) == expected
        assert out.size() == 3
        assert_unitarily_equal(circuit, out)

    def test_ibm_basis_output_is_unchanged(self):
        from repro.transpiler.passes import Optimize1qGates
        from repro.transpiler.passmanager import PropertySet

        from tests.helpers import exact_form, random_circuit

        circuit = random_circuit(4, 60, seed=3)
        default = Optimize1qGates().run(circuit, PropertySet())
        ibm = Optimize1qGates(IBM_BASIS).run(circuit, PropertySet())
        assert exact_form(default) == exact_form(ibm)
        assert {"u1", "u2"} & set(default.count_ops())
