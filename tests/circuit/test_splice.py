"""``QuantumCircuit.splice``: carried records, checked new records, edit
order and exact phase summation."""

import math

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.quantumcircuit import NO_PHASE, CircuitInstruction
from repro.gates import CXGate, HGate, U1Gate, XGate
from repro.transpiler.passmanager import RecordEdits

from tests.circuit.test_quantumcircuit import TestAppend
from tests.helpers import exact_form, random_circuit


def reference_splice(circuit: QuantumCircuit, edits) -> QuantumCircuit:
    """Position by position: the replacements of every edit at ``at`` in
    edit order, then record ``at`` unless removed; phases one ``+=`` each."""
    output = circuit.copy_empty_like()
    removed = {index for indices, _, _, _ in edits for index in indices}
    for position in range(len(circuit.data) + 1):
        for _, at, replacement, _ in edits:
            if at != position:
                continue
            for item in replacement:
                if isinstance(item, int):
                    record = circuit.data[item]
                    output.append(record.operation, record.qubits, record.clbits)
                else:
                    output.append(*item)
        if position < len(circuit.data) and position not in removed:
            record = circuit.data[position]
            output.append(record.operation, record.qubits, record.clbits)
    for _, _, _, phase in edits:
        output.global_phase += phase
    return output


def random_edits(circuit: QuantumCircuit, rng: np.random.Generator) -> list:
    size = len(circuit.data)
    order = [int(i) for i in rng.permutation(size)]
    edits = []
    while order and rng.random() < 0.9:
        take = int(rng.integers(0, min(4, len(order)) + 1))
        indices, order = order[:take], order[take:]
        replacement = []
        for _ in range(int(rng.integers(0, 4))):
            if size and rng.random() < 0.5:
                replacement.append(int(rng.integers(size)))
            else:
                qubit = int(rng.integers(circuit.num_qubits))
                replacement.append((U1Gate(float(rng.normal())), (qubit,), ()))
        phase = float(rng.normal() * 10.0 ** rng.integers(-12, 3))
        edits.append((indices, int(rng.integers(size + 1)), replacement, phase))
    return edits


class TestSplice:
    def test_no_edits_returns_the_circuit_itself(self):
        circuit = random_circuit(3, 12, seed=1)
        assert circuit.splice([]) is circuit
        assert circuit.splice(()) is circuit

    def test_carried_records_are_the_input_objects(self):
        circuit = random_circuit(3, 12, seed=2)
        out = circuit.splice([((0, 5), 9, [5, 0], NO_PHASE)])
        assert out is not circuit
        kept = [i for i in range(12) if i not in (0, 5)]
        expected = kept[:7] + [5, 0] + kept[7:]
        assert len(out.data) == 12
        for record, index in zip(out.data, expected):
            assert record is circuit.data[index]

    def test_the_input_is_left_unchanged(self):
        circuit = random_circuit(3, 12, seed=3)
        before, data = exact_form(circuit), list(circuit.data)
        circuit.splice([((1, 2), 3, [(XGate(), (0,), ())], 0.5)])
        assert exact_form(circuit) == before
        assert all(a is b for a, b in zip(circuit.data, data))

    def test_new_records_are_coerced_like_append(self):
        circuit = QuantumCircuit(3, 2)
        gate = CXGate()
        out = circuit.splice([((), 0, [(gate, [np.int64(0), 2], ())], NO_PHASE)])
        assert out.data == [CircuitInstruction(gate, (0, 2), ())]
        assert type(out.data[0]) is CircuitInstruction
        assert all(type(q) is int for q in out.data[0].qubits)

    def test_edits_at_one_position_keep_edit_order(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).x(1)
        first, second, third = HGate(), XGate(), CXGate()
        out = circuit.splice(
            [
                ((), 2, [(first, (1,), ())], NO_PHASE),
                ((0,), 1, [(second, (0,), ())], NO_PHASE),
                ((), 2, [(third, (0, 1), ()), 0], NO_PHASE),
            ]
        )
        assert [record.operation for record in out.data] == [
            second,
            circuit.data[1].operation,
            first,
            third,
            circuit.data[0].operation,
        ]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_positional_reference(self, seed):
        rng = np.random.default_rng([seed, 7])
        circuit = random_circuit(3, int(rng.integers(0, 20)), seed=seed)
        circuit.global_phase = float(rng.normal())
        edits = random_edits(circuit, rng)
        assert exact_form(circuit.splice(edits)) == exact_form(reference_splice(circuit, edits))

    @pytest.mark.parametrize("seed", range(20))
    def test_phase_terms_sum_like_sequential_adds(self, seed):
        rng = np.random.default_rng([seed, 11])
        circuit = QuantumCircuit(1, global_phase=float(rng.normal() * 1e3))
        circuit.h(0)
        terms = [float(rng.normal() * 10.0 ** rng.integers(-16, 4)) for _ in range(25)]
        expected = circuit.global_phase
        for term in terms:
            expected += term
        out = circuit.splice([((), 1, (), term) for term in terms])
        assert out.global_phase.hex() == expected.hex()

    @pytest.mark.parametrize("start", [0.0, -0.0, 1.5, -2.25, math.pi])
    def test_no_phase_leaves_the_phase_bit_for_bit(self, start):
        circuit = QuantumCircuit(2, global_phase=start)
        circuit.cx(0, 1).cx(0, 1)
        out = circuit.splice([((0, 1), 1, (), NO_PHASE)])
        assert out.global_phase.hex() == start.hex()
        assert out.data == []

    @pytest.mark.parametrize("gate, qubits, clbits, error, message", TestAppend.FAILURES)
    def test_a_new_record_fails_exactly_as_append(self, gate, qubits, clbits, error, message):
        circuit = QuantumCircuit(3, 2)
        circuit.h(0)
        with pytest.raises(error) as caught:
            circuit.splice([((0,), 0, [(gate(), qubits, clbits)], NO_PHASE)])
        assert type(caught.value) is error
        assert str(caught.value) == message
        assert len(circuit.data) == 1

    @pytest.mark.parametrize(
        "edits",
        [
            [((1, 1), 0, (), NO_PHASE)],
            [((0, 2), 0, (), NO_PHASE), ((2,), 3, (), NO_PHASE)],
            [(range(3), 0, (), NO_PHASE), ((1,), 0, (), NO_PHASE)],
        ],
        ids=["within-an-edit", "across-edits", "range-then-index"],
    )
    def test_an_index_removed_twice_raises(self, edits):
        circuit = random_circuit(2, 3, seed=4)
        with pytest.raises(ValueError, match="twice"):
            circuit.splice(edits)

    @pytest.mark.parametrize("at", [-1, 4, 100])
    def test_a_position_out_of_range_raises(self, at):
        circuit = random_circuit(2, 3, seed=5)
        with pytest.raises(ValueError, match=r"position .* outside 0\.\.3"):
            circuit.splice([((), at, (), NO_PHASE)])

    @pytest.mark.parametrize("index", [-1, 3])
    def test_indices_out_of_range_raise(self, index):
        circuit = random_circuit(2, 3, seed=6)
        with pytest.raises(ValueError, match=r"carried index"):
            circuit.splice([((), 0, [index], NO_PHASE)])
        with pytest.raises(ValueError, match=r"removes an index outside"):
            circuit.splice([((index,), 0, (), NO_PHASE)])

    def test_the_end_position_appends(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        out = circuit.splice([((), 1, [0], NO_PHASE)])
        assert [record is circuit.data[0] for record in out.data] == [True, True]


class TestRecordEdits:
    def test_records_that_stay_themselves_make_no_edit(self):
        circuit = random_circuit(3, 10, seed=8)
        recorder = RecordEdits()
        for index, record in enumerate(circuit.data):
            recorder.visit(index, record)
            recorder.append(*record)
        assert recorder.close() == []

    def test_rewritten_records_carry_and_split_phase_terms(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).x(1)
        recorder = RecordEdits()
        fresh = XGate()
        recorder.visit(0, circuit.data[0])
        recorder.add_phase(0.25)
        recorder.visit(1, circuit.data[1])
        recorder.append(fresh, (0,))
        recorder.append(*circuit.data[1])
        recorder.add_phase(0.5)
        recorder.add_phase(-1.0)
        recorder.visit(2, circuit.data[2])
        recorder.append(*circuit.data[2])
        assert recorder.close() == [
            ((0,), 0, [], 0.25),
            ((1,), 1, [(fresh, (0,), ()), 1], 0.5),
            ((), 1, (), -1.0),
        ]
