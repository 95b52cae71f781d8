"""Quantum circuit intermediate representation.

The IR mirrors the layered design of production quantum compilers:

* :class:`~repro.circuit.instruction.Instruction` /
  :class:`~repro.circuit.instruction.Gate` -- operations, optionally with a
  ``definition`` sub-circuit (used by the unroller);
* :class:`~repro.circuit.register.QuantumRegister` /
  :class:`~repro.circuit.register.ClassicalRegister` -- named wire groups;
* :class:`~repro.circuit.quantumcircuit.QuantumCircuit` -- the builder API
  programs are written against and the form every transpiler pass reads
  and rewrites (qubits are plain integer wire indices).

Matrix conventions are little-endian throughout: bit ``k`` of a state/matrix
index corresponds to the ``k``-th qubit argument of a gate, and to qubit
``k`` of a circuit.
"""

from repro.circuit.instruction import Instruction, Gate, ControlledGate
from repro.circuit.register import QuantumRegister, ClassicalRegister
from repro.circuit.quantumcircuit import QuantumCircuit, CircuitInstruction
from repro.circuit.compact import remove_idle_qubits
from repro.circuit.qasm import to_qasm, from_qasm
from repro.circuit.serialization import circuit_from_payload, circuit_to_payload

__all__ = [
    "Instruction",
    "Gate",
    "ControlledGate",
    "QuantumRegister",
    "ClassicalRegister",
    "QuantumCircuit",
    "CircuitInstruction",
    "remove_idle_qubits",
    "to_qasm",
    "from_qasm",
    "circuit_to_payload",
    "circuit_from_payload",
]
