"""``QuantumCircuit.depth`` against the reference wire-level loop.

``depth`` takes a fast path for one- and two-qubit records without clbits;
``reference_depth`` is the plain loop it replaced, which lifts every wire
an operation touches (clbits included) to one past the deepest of them.
Random circuits mix both kinds of record with barriers, measurements,
clbit-only instructions and gates on three or more qubits.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction


def reference_depth(circuit: QuantumCircuit) -> int:
    levels = [0] * (circuit.num_qubits + circuit.num_clbits)
    depth = 0
    for instruction in circuit.data:
        if instruction.operation.is_directive:
            continue
        wires = list(instruction.qubits) + [circuit.num_qubits + c for c in instruction.clbits]
        level = 1 + max(levels[w] for w in wires)
        for wire in wires:
            levels[wire] = level
        depth = max(depth, level)
    return depth


KINDS = ("1q", "2q", "3q", "mcx", "measure", "tick", "barrier", "reset")


@st.composite
def circuits(draw):
    num_qubits = draw(st.integers(1, 5))
    num_clbits = draw(st.integers(0, 3))
    circuit = QuantumCircuit(num_qubits, num_clbits) if num_clbits else QuantumCircuit(num_qubits)
    qubit = st.integers(0, num_qubits - 1)
    for kind in draw(st.lists(st.sampled_from(KINDS), max_size=40)):
        if kind == "1q":
            circuit.h(draw(qubit))
        elif kind == "2q" and num_qubits >= 2:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            circuit.cx(a, b)
        elif kind == "3q" and num_qubits >= 3:
            a, b, c = draw(st.lists(qubit, min_size=3, max_size=3, unique=True))
            circuit.ccx(a, b, c)
        elif kind == "mcx" and num_qubits >= 4:
            wires = draw(st.lists(qubit, min_size=4, max_size=4, unique=True))
            circuit.mcx(wires[:-1], wires[-1])
        elif kind == "measure" and num_clbits:
            circuit.measure(draw(qubit), draw(st.integers(0, num_clbits - 1)))
        elif kind == "tick" and num_clbits:
            circuit.append(Instruction("tick", 0, 1), (), (draw(st.integers(0, num_clbits - 1)),))
        elif kind == "barrier":
            circuit.barrier()
        elif kind == "reset":
            circuit.reset(draw(qubit))
    return circuit


@settings(max_examples=300, deadline=None, derandomize=True)
@given(circuit=circuits())
def test_depth_matches_reference(circuit):
    assert circuit.depth() == reference_depth(circuit)


@pytest.mark.parametrize("num_qubits, num_clbits", [(0, 0), (1, 0), (3, 2)])
def test_empty_circuits_have_depth_zero(num_qubits, num_clbits):
    wires = (num_qubits, num_clbits) if num_clbits else (num_qubits,)
    circuit = QuantumCircuit(*wires)
    assert circuit.depth() == reference_depth(circuit) == 0


def test_wireless_operation_raises_like_the_reference():
    circuit = QuantumCircuit(1)
    circuit.append(Instruction("marker", 0, 0), ())
    with pytest.raises(ValueError):
        reference_depth(circuit)
    with pytest.raises(ValueError):
        circuit.depth()
