"""Full-circuit unitary extraction.

Computes the little-endian unitary of a measurement-free circuit by
evolving the columns of the identity through the statevector engine; this
is considerably faster than dense matrix-matrix embedding for wider
circuits and is the backbone of the unitary-equivalence checks in the
test-suite.

Two layers of batching keep it fast: the circuit is lowered through the
gate-fusion pre-step (:func:`repro.simulators.fusion.compile_program`)
so adjacent same-qubit gates apply as one fused matrix, and every gate
applies to **all** columns in a single permute/reshape/matmul instead of
once per column (the column axis rides along as an extra untouched axis,
so each column sees exactly the arithmetic the per-column path would do).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.simulators.fusion import compile_program

__all__ = ["circuit_unitary"]


def _apply_gate_columns(matrix, gate, qargs: tuple[int, ...], num_qubits: int):
    """Apply a k-qubit gate to every column of ``matrix`` at once."""
    dim = matrix.shape[0]
    k = len(qargs)
    tensor = matrix.reshape([2] * num_qubits + [dim])
    axis_of = lambda q: num_qubits - 1 - q  # noqa: E731 - tiny local helper
    ordered_targets = [axis_of(q) for q in reversed(qargs)]
    target_set = set(ordered_targets)
    # the column axis joins the rest axes: it is never a gate target
    rest_axes = [ax for ax in range(num_qubits) if ax not in target_set]
    rest_axes.append(num_qubits)
    permuted = tensor.transpose(rest_axes + ordered_targets)
    flattened = permuted.reshape(-1, 2**k)
    updated = (flattened @ gate.T).reshape(permuted.shape)
    inverse = np.argsort(rest_axes + ordered_targets).tolist()
    return updated.transpose(inverse).reshape(dim, dim)


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Return the ``2^n x 2^n`` unitary implemented by ``circuit``.

    Directives are skipped; measurements and resets raise ``ValueError``.
    """
    num_qubits = circuit.num_qubits
    dim = 2**num_qubits
    program = compile_program(circuit)
    matrix = np.eye(dim, dtype=complex)
    for kind, first, second in program.steps:
        if kind != "unitary":
            name = first.name if kind == "other" else kind
            raise ValueError(f"cannot express {name!r} as a unitary")
        matrix = _apply_gate_columns(matrix, first, second, num_qubits)
    return matrix * np.exp(1j * program.global_phase)
