"""Per-gate reference simulator: the test oracle for the fused simulators.

One ``to_matrix()`` and one ``apply_gate_to_state`` per instruction, in
circuit order, with no fusion pre-step and no matrix cache.  This is the
path the simulators took before gate fusion; fused results must match it
to floating-point associativity.
"""

from __future__ import annotations

import numpy as np

from repro.simulators.statevector import apply_gate_to_state


def reference_statevector(circuit, initial_state=None) -> np.ndarray:
    """Final state of a gate-only circuit (directives skipped)."""
    num_qubits = circuit.num_qubits
    if initial_state is None:
        state = np.zeros(2**num_qubits, dtype=complex)
        state[0] = 1.0
    else:
        state = np.array(initial_state, dtype=complex)
    state *= np.exp(1j * circuit.global_phase)
    for instruction in circuit.data:
        operation = instruction.operation
        if operation.is_directive:
            continue
        if not operation.is_gate():
            raise ValueError(f"the reference simulates gates only, not {operation.name!r}")
        state = apply_gate_to_state(
            state, operation.to_matrix(), instruction.qubits, num_qubits
        )
    return state


def reference_unitary(circuit) -> np.ndarray:
    """The circuit's unitary, one basis column at a time."""
    dim = 2**circuit.num_qubits
    return np.column_stack(
        [reference_statevector(circuit, column) for column in np.eye(dim, dtype=complex)]
    )
