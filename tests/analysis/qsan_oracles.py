"""QSAN's circuit scans as they were before they skipped TOP wires.

:func:`pure_fingerprint` drives the tracker over every operation, building
a matrix for each one-qubit gate and invalidating wires that are already
TOP; :func:`fingerprints_compatible` makes one ``np.allclose`` call per
qubit; :func:`terminal_measure_map` and :func:`has_operation` each scan the
circuit on their own.  The production code in :mod:`repro.analysis.qsan`
must agree with them bit for bit (``tests/analysis/test_qsan_parity.py``).
:func:`equal_up_to_phase` is the up-to-phase predicate as one
``np.allclose`` call, before it was batched for the window tier
(``tests/analysis/test_qsan_windows.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.rpo.pure_tracker import PureStateTracker

_Z_AXIS_EPS = 1e-9
_BLOCH_ATOL = 1e-6


def has_operation(circuit, names) -> bool:
    return any(instruction.operation.name in names for instruction in circuit.data)


def terminal_measure_map(circuit) -> dict[int, int] | None:
    """``qubit -> clbit`` for purely terminal measurements, else ``None``."""
    measured: dict[int, int] = {}
    for instruction in circuit.data:
        name = instruction.operation.name
        if name == "reset":
            return None
        if name == "measure":
            qubit = instruction.qubits[0]
            if qubit in measured:
                return None
            measured[qubit] = instruction.clbits[0]
        elif name != "barrier" and any(q in measured for q in instruction.qubits):
            return None
    return measured


def _is_z_basis(tracker, qubit: int) -> bool:
    state = tracker.state(qubit)
    if state is None:
        return False
    theta = state[0] % (2 * math.pi)
    return min(abs(theta), abs(theta - math.pi), abs(theta - 2 * math.pi)) < _Z_AXIS_EPS


def pure_fingerprint(circuit) -> PureStateTracker:
    """Drive a :class:`PureStateTracker` over every operation of ``circuit``."""
    tracker = PureStateTracker(circuit.num_qubits)
    x_matrix = np.array([[0, 1], [1, 0]], dtype=complex)
    z_matrix = np.array([[1, 0], [0, -1]], dtype=complex)
    for instruction in circuit.data:
        operation = instruction.operation
        name = operation.name
        qubits = instruction.qubits
        if name == "annot":
            tracker.apply_annotation(qubits[0], *operation.params[:2])
            continue
        if operation.is_directive:
            continue
        if name == "measure":
            tracker.apply_measure(qubits[0])
            continue
        if name == "reset":
            tracker.apply_reset(qubits[0])
            continue
        if not operation.is_gate():
            tracker.invalidate(qubits)
            continue
        if operation.num_qubits == 1:
            tracker.apply_1q_gate(qubits[0], operation.to_matrix())
            continue
        if name == "swap":
            tracker.apply_swap(*qubits)
            continue
        if name == "swapz":
            if _is_z_basis(tracker, qubits[0]) and _is_z_basis(tracker, qubits[1]):
                tracker.apply_swap(*qubits)
            else:
                tracker.invalidate(qubits)
            continue
        if name in ("cx", "cz"):
            control, target = qubits
            state = tracker.state(control)
            theta = (state[0] % (2 * math.pi)) if state is not None else None
            if theta is not None and min(theta, 2 * math.pi - theta) < _Z_AXIS_EPS:
                continue
            if theta is not None and abs(theta - math.pi) < _Z_AXIS_EPS:
                tracker.apply_1q_gate(target, x_matrix if name == "cx" else z_matrix)
                continue
            tracker.invalidate(qubits)
            continue
        tracker.invalidate(qubits)
    return tracker


def _bloch_vector(state) -> np.ndarray:
    theta, phi = state
    return np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )


def fingerprints_compatible(before, after, placement=None) -> int | None:
    """First qubit where two tracker fingerprints provably disagree."""
    for qubit in range(len(before.known)):
        wire = placement[qubit] if placement is not None else qubit
        left = before.state(qubit)
        right = after.state(wire)
        if left is None or right is None:
            continue
        if not np.allclose(_bloch_vector(left), _bloch_vector(right), atol=_BLOCH_ATOL):
            return qubit
    return None


def equal_up_to_phase(reference, candidate, atol: float = 1e-8) -> bool:
    """Equality up to a global phase taken at the reference's largest entry."""
    reference = np.asarray(reference).ravel()
    candidate = np.asarray(candidate).ravel()
    if reference.shape != candidate.shape:
        return False
    anchor = int(np.argmax(np.abs(reference)))
    if abs(reference[anchor]) < 1e-12:
        return bool(np.allclose(candidate, 0.0, atol=atol))
    phase = candidate[anchor] / reference[anchor]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(reference * phase, candidate, atol=atol))
