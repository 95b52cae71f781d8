"""Output checks: every returned circuit against its input, by simulation.

A compiled circuit lives on the device's physical qubits.  Input qubit
``v`` starts on physical qubit ``layout[v]`` and, after routing, ends on
``final_permutation[layout[v]]``; every other physical qubit must end in
``|0>``.  Measurement-free circuits are compared as statevectors from
``|0...0>`` (up to global phase, to the fidelity RPO's relaxed rewrites
promise); measured circuits by their exact clbit distributions, read from
the statevector before the terminal measurements.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.simulators import StatevectorSimulator

#: RPO drops gates that are the identity *on the tracked state* up to
#: this fidelity; distributions are compared at the same scale
FIDELITY_TOL = 1e-6
PROBABILITY_ATOL = 1e-6


def _split_measures(circuit: QuantumCircuit):
    """``(circuit without measures, {qubit: clbit})``; raises if a
    measurement is followed by another operation on its qubit."""
    body = circuit.copy_empty_like()
    measures: dict[int, int] = {}
    for instruction in circuit.data:
        name = instruction.operation.name
        if name == "measure":
            measures[instruction.qubits[0]] = instruction.clbits[0]
        elif name == "barrier":
            continue
        elif any(qubit in measures for qubit in instruction.qubits):
            raise ValueError(f"non-terminal measurement before {name}")
        else:
            body.append(instruction.operation, instruction.qubits, instruction.clbits)
    return body, measures


def _distribution(state: np.ndarray, measures: dict[int, int], num_clbits: int):
    probabilities = np.abs(state) ** 2
    indices = np.arange(len(state), dtype=np.int64)
    outcome = np.zeros_like(indices)
    for qubit, clbit in measures.items():
        outcome |= ((indices >> qubit) & 1) << clbit
    return np.bincount(outcome, weights=probabilities, minlength=2**num_clbits)


def _placement(properties, num_qubits: int) -> list[int]:
    layout = properties.get("layout")
    permutation = properties.get("final_permutation")
    if layout is None:
        raise ValueError("result carries no layout")
    physical = [layout.physical(qubit) for qubit in range(num_qubits)]
    if permutation is not None:
        physical = [permutation[wire] for wire in physical]
    return physical


def check_result(circuit: QuantumCircuit, result, simulator=None) -> str | None:
    """``None`` when ``result`` (a ``TranspileResult``) computes the same
    thing as ``circuit``, else a one-line reason."""
    simulator = simulator or StatevectorSimulator()
    try:
        body_in, measures_in = _split_measures(circuit)
        body_out, measures_out = _split_measures(result.circuit)
        placement = _placement(result.properties, circuit.num_qubits)
        state_in = simulator.statevector(body_in)
        state_out = simulator.statevector(body_out)
    except Exception as exc:  # noqa: BLE001 - any failure is a failed check
        return f"{type(exc).__name__}: {exc}"
    if measures_in:
        expected = {placement[q]: c for q, c in measures_in.items()}
        if expected != measures_out:
            return "measurement map differs under the layout"
        width = circuit.num_clbits
        if result.circuit.num_clbits != width:
            return "clbit count differs"
        reference = _distribution(state_in, measures_in, width)
        observed = _distribution(state_out, measures_out, width)
        if not np.allclose(reference, observed, atol=PROBABILITY_ATOL):
            return "clbit distributions differ"
        return None
    if measures_out:
        return "output measures an unmeasured input"
    source = np.arange(2**circuit.num_qubits, dtype=np.int64)
    gather = np.zeros_like(source)
    for qubit, wire in enumerate(placement):
        gather |= ((source >> qubit) & 1) << wire
    fidelity = abs(np.vdot(state_in, state_out[gather])) ** 2
    if fidelity < 1.0 - FIDELITY_TOL:
        return f"statevector fidelity {fidelity:.9f}"
    return None
