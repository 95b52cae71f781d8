"""Optimize1qGates and ConsolidateBlocks keep a gate with no matrix.

A one-qubit gate with no definition and no matrix cannot be fused into a
run or multiplied into a block.  Both passes treat it as a fence: it ends
the run, or closes the block, on its wire and stays where it is.
``ConsolidateBlocks`` fences a two-qubit gate with no matrix the same way.
"""

from repro.circuit import QuantumCircuit
from repro.circuit.instruction import Gate
from repro.transpiler.passes import ConsolidateBlocks, Optimize1qGates
from repro.transpiler.passmanager import PropertySet


def _opaque() -> Gate:
    return Gate("opaque", 1, [])


def _names(circuit):
    return [(i.operation.name, i.qubits) for i in circuit.data]


def test_optimize_1q_gates_ends_the_run_at_an_opaque_gate():
    circuit = QuantumCircuit(1)
    circuit.h(0)
    circuit.append(_opaque(), [0])
    circuit.t(0)
    circuit.t(0)
    out = Optimize1qGates().run(circuit, PropertySet())
    assert _names(out) == [("u2", (0,)), ("opaque", (0,)), ("u1", (0,))]
    assert out.data[1] is circuit.data[1]


def test_consolidate_blocks_closes_the_block_at_an_opaque_gate():
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    circuit.append(_opaque(), [1])
    circuit.cx(0, 1)
    circuit.cx(1, 0)
    out = ConsolidateBlocks().run(circuit, PropertySet())
    assert len(out.data) == len(circuit.data)
    for got, want in zip(out.data, circuit.data):
        assert got is want

    # a block on each side of the fence: each is the identity and goes,
    # which it could not if the fence had joined either block
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    circuit.cx(0, 1)
    circuit.append(_opaque(), [1])
    circuit.cx(1, 0)
    circuit.cx(1, 0)
    out = ConsolidateBlocks().run(circuit, PropertySet())
    assert _names(out) == [("opaque", (1,))]
    assert out.data[0] is circuit.data[2]


def test_consolidate_blocks_fences_an_opaque_two_qubit_gate():
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    circuit.append(Gate("o2", 2, []), [0, 1])
    circuit.cx(0, 1)
    out = ConsolidateBlocks().run(circuit, PropertySet())
    assert len(out.data) == len(circuit.data)
    for got, want in zip(out.data, circuit.data):
        assert got is want


def test_consolidate_blocks_closes_both_wires_at_an_opaque_two_qubit_gate():
    # an identity block on each side of the fence goes; the fence stays
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    circuit.cx(0, 1)
    circuit.append(Gate("o2", 2, []), [1, 0])
    circuit.cx(1, 0)
    circuit.cx(1, 0)
    out = ConsolidateBlocks().run(circuit, PropertySet())
    assert _names(out) == [("o2", (1, 0))]
    assert out.data[0] is circuit.data[2]
