"""QPO keeps a gate that has no matrix and sends its wires to unknown.

An opaque gate (no definition, no matrix) has no provable successor
state.  QPO meets it in three places: phase 1's one-qubit rule, phase 2's
tracker replay of a record it keeps, and phase 2's block unitary.  In each
the gate stays as it is and the tracker forgets the wire, so no later rule
fires on a state the pass cannot know.
"""

from repro.circuit import QuantumCircuit
from repro.circuit.instruction import Gate
from repro.rpo.qpo import QPOPass
from repro.transpiler.passmanager import PropertySet

from tests.helpers import exact_form


def _opaque() -> Gate:
    return Gate("opaque", 1, [])


def _assert_carried(out: QuantumCircuit, circuit: QuantumCircuit) -> None:
    assert exact_form(out) == exact_form(circuit)
    for got, want in zip(out.data, circuit.data):
        assert got is want


class TestQPOOpaqueGates:
    def test_block_holding_an_opaque_gate_is_kept(self):
        # a replaceable block (two CNOTs, both input states known) whose
        # unitary cannot be built: the block edit keeps it
        circuit = QuantumCircuit(2)
        circuit.u3(0.3, 0.2, 0, 0)
        circuit.cx(0, 1)
        circuit.append(_opaque(), [1])
        circuit.cx(0, 1)
        out = QPOPass().run(circuit, PropertySet())
        _assert_carried(out, circuit)

    def test_replayed_opaque_gate_on_a_known_wire_forgets_it(self):
        # phase 2 replays the opaque gate on the still-known |0> wire when
        # the barrier flushes it; the wire goes unknown, so the block after
        # it is not replaced (from |00> it would be: cx . h . cx leaves
        # |0>|+>, a product state prepared without CNOTs)
        circuit = QuantumCircuit(2)
        circuit.append(_opaque(), [0])
        circuit.barrier(0)
        circuit.cx(0, 1)
        circuit.h(1)
        circuit.cx(0, 1)
        out = QPOPass().run(circuit, PropertySet())
        _assert_carried(out, circuit)

        reference = QuantumCircuit(2)
        reference.barrier(0)
        reference.cx(0, 1)
        reference.h(1)
        reference.cx(0, 1)
        replaced = QPOPass().run(reference, PropertySet())
        assert replaced.count_ops().get("cx", 0) < 2

    def test_opaque_gate_in_phase_one_forgets_its_wire(self):
        # without the opaque gate the |0> control would remove the CNOT
        circuit = QuantumCircuit(2)
        circuit.append(_opaque(), [0])
        circuit.cx(0, 1)
        out = QPOPass(optimize_blocks=False).run(circuit, PropertySet())
        _assert_carried(out, circuit)

        reference = QuantumCircuit(2)
        reference.cx(0, 1)
        assert len(QPOPass(optimize_blocks=False).run(reference, PropertySet()).data) == 0
