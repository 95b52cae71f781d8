"""Shared test utilities.

The central notion is *functional equivalence* (the paper's correctness
contract for RPO, Sec. I): two circuits are equivalent when they produce the
same state from |0...0> -- or, for measured circuits, the same exact
distribution over classical bits.  Unitary-preserving passes are held to the
stricter full-matrix equality.
"""

from __future__ import annotations

import numpy as np

from repro.circuit import QuantumCircuit
from repro.linalg.random import as_rng
from repro.simulators import circuit_unitary, simulate_statevector

ATOL = 1e-8


def strip_measurements(circuit: QuantumCircuit) -> tuple[QuantumCircuit, list]:
    """Drop terminal measurements; return (circuit, [(qubit, clbit), ...])."""
    stripped = circuit.copy_empty_like()
    measures = []
    for instruction in circuit.data:
        if instruction.operation.name == "measure":
            measures.append((instruction.qubits[0], instruction.clbits[0]))
            continue
        stripped.append(instruction.operation, instruction.qubits, instruction.clbits)
    return stripped, measures


def clbit_distribution(circuit: QuantumCircuit) -> dict[str, float]:
    """Exact outcome distribution over classical bits (terminal measures)."""
    stripped, measures = strip_measurements(circuit)
    state = simulate_statevector(stripped)
    probabilities = np.abs(state) ** 2
    num_clbits = circuit.num_clbits
    distribution: dict[str, float] = {}
    for outcome, probability in enumerate(probabilities):
        if probability < 1e-14:
            continue
        bits = 0
        for qubit, clbit in measures:  # the last write to a clbit wins
            bits = (bits & ~(1 << clbit)) | (((outcome >> qubit) & 1) << clbit)
        key = format(bits, f"0{num_clbits}b")
        distribution[key] = distribution.get(key, 0.0) + float(probability)
    return distribution


def assert_same_distribution(a: QuantumCircuit, b: QuantumCircuit, atol=1e-7):
    dist_a = clbit_distribution(a)
    dist_b = clbit_distribution(b)
    keys = set(dist_a) | set(dist_b)
    for key in keys:
        assert abs(dist_a.get(key, 0.0) - dist_b.get(key, 0.0)) < atol, (
            f"distributions differ at {key}: "
            f"{dist_a.get(key, 0.0):.6f} vs {dist_b.get(key, 0.0):.6f}"
        )


def assert_functionally_equivalent(a: QuantumCircuit, b: QuantumCircuit, atol=1e-7):
    """Same action on |0...0> up to global phase (measurement-free)."""
    state_a = simulate_statevector(a)
    state_b = simulate_statevector(b)
    overlap = abs(np.vdot(state_a, state_b))
    assert abs(overlap - 1.0) < atol, f"|<a|b>| = {overlap:.9f} != 1"


def assert_unitarily_equal(a: QuantumCircuit, b: QuantumCircuit, atol=1e-7):
    ua, ub = circuit_unitary(a), circuit_unitary(b)
    assert np.abs(ua - ub).max() < atol, (
        f"unitaries differ by {np.abs(ua - ub).max():.2e}"
    )


def exact_form(circuit: QuantumCircuit) -> list:
    """Every gate with its parameters -- and the global phase -- as exact
    ``float.hex`` strings, for bit-for-bit circuit comparisons."""

    def exact(value):
        return float(value).hex() if isinstance(value, (int, float)) else repr(value)

    return [exact(circuit.global_phase)] + [
        (
            instruction.operation.name,
            instruction.qubits,
            instruction.clbits,
            [exact(param) for param in instruction.operation.params],
        )
        for instruction in circuit.data
    ]


def random_circuit(
    num_qubits: int,
    num_gates: int,
    seed=None,
    gate_set: str = "full",
    measure: bool = False,
) -> QuantumCircuit:
    """A seeded random circuit over a configurable gate set."""
    rng = as_rng(seed)
    circuit = QuantumCircuit(num_qubits, num_qubits if measure else 0)
    one_qubit = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u3"]
    two_qubit = ["cx", "cz", "swap", "cp"]
    three_qubit = ["ccx", "cswap"] if gate_set == "full" else []
    for _ in range(num_gates):
        width = rng.choice([1, 1, 2, 2, 3] if three_qubit and num_qubits >= 3 else [1, 1, 2])
        if width == 1:
            name = one_qubit[int(rng.integers(len(one_qubit)))]
            qubit = int(rng.integers(num_qubits))
            if name in ("rx", "ry", "rz"):
                getattr(circuit, name)(float(rng.uniform(0, 2 * np.pi)), qubit)
            elif name == "u3":
                circuit.u3(*(float(x) for x in rng.uniform(0, 2 * np.pi, 3)), qubit)
            else:
                getattr(circuit, name)(qubit)
        elif width == 2 and num_qubits >= 2:
            name = two_qubit[int(rng.integers(len(two_qubit)))]
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            if name == "cp":
                circuit.cp(float(rng.uniform(0, 2 * np.pi)), a, b)
            else:
                getattr(circuit, name)(a, b)
        elif num_qubits >= 3:
            name = three_qubit[int(rng.integers(len(three_qubit)))]
            a, b, c = (int(q) for q in rng.choice(num_qubits, size=3, replace=False))
            getattr(circuit, name)(a, b, c)
    if measure:
        for qubit in range(num_qubits):
            circuit.measure(qubit, qubit)
    return circuit


def respects_coupling(circuit: QuantumCircuit, coupling) -> bool:
    """True when every two-qubit gate acts on a coupled physical pair.

    The device-validity check for routed circuits: after layout/routing
    against a :class:`~repro.transpiler.target.Target`, no multi-qubit
    gate may span qubits its coupling map does not connect.
    """
    for instruction in circuit.data:
        if len(instruction.qubits) == 2 and instruction.operation.name not in (
            "measure",
            "barrier",
        ):
            a, b = instruction.qubits
            if not coupling.are_coupled(a, b):
                return False
    return True
