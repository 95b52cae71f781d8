"""Tests for the compact circuit payload format.

The process-pool executor depends on payload round-trips being exact, so
these tests cover every operation family the gate library exposes plus the
raw-object fallback, and check the payloads actually are smaller than plain
pickles (the point of the format).
"""

import math
import pickle

import numpy as np
import pytest

from repro.circuit import (
    QuantumCircuit,
    circuit_from_payload,
    circuit_to_payload,
)
from repro.circuit import Gate
from repro.gates import CXGate, MCXGate


def _composite_gate() -> Gate:
    """A plain :class:`Gate` whose manually-assigned definition is its only
    record of semantics -- the case serialization must never strip."""
    definition = QuantumCircuit(2)
    definition.h(0)
    definition.cx(0, 1)
    definition.s(1)
    gate = Gate("mystery", 2)
    gate._definition = definition
    return gate


def _assert_roundtrip(circuit: QuantumCircuit) -> QuantumCircuit:
    rebuilt = circuit_from_payload(circuit_to_payload(circuit))
    assert rebuilt.num_qubits == circuit.num_qubits
    assert rebuilt.num_clbits == circuit.num_clbits
    assert abs(rebuilt.global_phase - circuit.global_phase) < 1e-12
    assert len(rebuilt.data) == len(circuit.data)
    for got, expected in zip(rebuilt.data, circuit.data):
        assert got.operation.name == expected.operation.name
        assert got.qubits == expected.qubits
        assert got.clbits == expected.clbits
        assert np.allclose(got.operation.params, expected.operation.params)
        got_ctrl = getattr(got.operation, "ctrl_state", None)
        expected_ctrl = getattr(expected.operation, "ctrl_state", None)
        assert got_ctrl == expected_ctrl
        assert got.operation.label == expected.operation.label
    return rebuilt


class TestPayloadRoundTrip:
    def test_standard_and_parametric_gates(self):
        circuit = QuantumCircuit(3, 3, global_phase=0.25)
        circuit.h(0)
        circuit.x(1)
        circuit.sdg(2)
        circuit.rx(0.3, 0)
        circuit.u3(0.1, 0.2, 0.3, 1)
        circuit.u2(0.4, 0.5, 2)
        _assert_roundtrip(circuit)

    def test_controlled_and_multi_qubit_gates(self):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 1)
        circuit.append(CXGate(ctrl_state=0), (2, 3))  # open control
        circuit.cp(math.pi / 8, 1, 2)
        circuit.crz(0.7, 0, 4)
        circuit.ccx(0, 1, 2)
        circuit.cswap(0, 1, 2)
        circuit.mcx((0, 1, 2), 4)
        circuit.mcz((0, 1), 3)
        circuit.swap(3, 4)
        circuit.swapz(0, 1)
        _assert_roundtrip(circuit)

    def test_directives_and_non_unitary(self):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.barrier()
        circuit.annotate(1, 0.5, 1.5)
        circuit.annotate_zero(0)
        circuit.reset(1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        _assert_roundtrip(circuit)

    def test_unitary_gate_matrix_preserved(self):
        matrix = np.array([[0, 1], [1, 0]], dtype=complex)
        circuit = QuantumCircuit(1)
        circuit.unitary(matrix, (0,), label="flip")
        rebuilt = _assert_roundtrip(circuit)
        assert np.allclose(rebuilt.data[0].operation.to_matrix(), matrix)
        assert rebuilt.data[0].operation.label == "flip"

    def test_raw_fallback_for_exotic_operations(self):
        # an ad-hoc composite gate has no registry spec: the payload carries
        # the object itself (with its authoritative definition intact)
        circuit = QuantumCircuit(2)
        exotic = _composite_gate()
        circuit.append(exotic, (0, 1))
        payload = circuit_to_payload(circuit)
        rebuilt = circuit_from_payload(pickle.loads(pickle.dumps(payload)))
        assert rebuilt.data[0].operation.name == exotic.name
        assert np.allclose(
            rebuilt.data[0].operation.definition.to_matrix(),
            exotic.definition.to_matrix(),
        )

    def test_labels_preserved_and_not_deduped_away(self):
        from repro.gates import XGate

        circuit = QuantumCircuit(1)
        circuit.append(XGate(), (0,))
        labeled = XGate()
        labeled.label = "debug-flip"
        circuit.append(labeled, (0,))
        rebuilt = _assert_roundtrip(circuit)
        assert rebuilt.data[0].operation.label is None
        assert rebuilt.data[1].operation.label == "debug-flip"
        # distinct labels must not collapse to one table entry
        assert rebuilt.data[0].operation is not rebuilt.data[1].operation

    def test_repeated_operations_share_table_entry(self):
        circuit = QuantumCircuit(2)
        for _ in range(10):
            circuit.cx(0, 1)
        payload = circuit_to_payload(circuit)
        table = payload[5]
        assert len(table) == 1
        rebuilt = circuit_from_payload(payload)
        ops = {id(inst.operation) for inst in rebuilt.data}
        assert len(ops) == 1  # one shared gate object per table entry

    def test_payload_smaller_than_pickle(self):
        from repro.algorithms import quantum_phase_estimation

        circuit = quantum_phase_estimation(4)
        # touch the definitions, as a transpile would
        for inst in circuit.data:
            inst.operation.definition
        payload_size = len(pickle.dumps(circuit_to_payload(circuit)))
        pickle_size = len(pickle.dumps(circuit))
        assert payload_size < pickle_size

    def test_version_check(self):
        payload = circuit_to_payload(QuantumCircuit(1))
        bad = (99,) + payload[1:]
        with pytest.raises(ValueError, match="version"):
            circuit_from_payload(bad)


class TestMalformedPayloads:
    """Decoding checks every record the way ``QuantumCircuit.append`` does."""

    def _payload(self, records):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure(1, 0)
        version, name, nq, nc, phase, table, data = circuit_to_payload(circuit)
        assert [entry[0] for entry in table] == ["HGate", "CXGate", "Measure"]
        return (version, name, nq, nc, phase, table, data[:1] + tuple(records))

    @pytest.mark.parametrize(
        "record, error, message",
        [
            ((1, (0, 5), ()), IndexError, "qubit 5 out of range (0..1)"),
            ((0, (-1,), ()), IndexError, "qubit -1 out of range (0..1)"),
            ((1, (1, 1), ()), ValueError, "duplicate qubit arguments (1, 1)"),
            ((2, (0,), (3,)), IndexError, "clbit 3 out of range (0..0)"),
            ((1, (0,), ()), ValueError, "cx expects 2 qubits, got 1"),
            ((2, (0,), ()), ValueError, "measure expects 1 clbits, got 0"),
        ],
    )
    def test_decoding_raises_appends_error(self, record, error, message):
        with pytest.raises(error) as caught:
            circuit_from_payload(self._payload([record]))
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_well_formed_records_still_decode(self):
        circuit = circuit_from_payload(self._payload([(1, [1, 0], []), (2, (0,), (0,))]))
        assert [(i.operation.name, i.qubits, i.clbits) for i in circuit.data] == [
            ("h", (0,), ()),
            ("cx", (1, 0), ()),
            ("measure", (0,), (0,)),
        ]


class TestDefinitionStripping:
    def test_rebuildable_definition_dropped_from_pickle(self):
        gate = MCXGate(2)
        _ = gate.definition  # memoize
        restored = pickle.loads(pickle.dumps(gate))
        assert restored._definition is None
        assert restored.definition is not None  # rebuilt on demand

    def test_authoritative_definition_kept(self):
        gate = _composite_gate()  # plain Gate carrying its only semantics
        restored = pickle.loads(pickle.dumps(gate))
        assert restored._definition is not None
        assert np.allclose(
            restored.definition.to_matrix(), gate.definition.to_matrix()
        )
