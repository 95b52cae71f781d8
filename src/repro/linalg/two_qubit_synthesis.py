"""Synthesis of arbitrary two-qubit unitaries into minimal CNOT circuits.

This is the engine behind ``ConsolidateBlocks`` (the unitary-preserving
peephole re-synthesis of Qiskit level 3, paper Sec. II-B) and behind the
QPO two-qubit-block state-preparation rewrite (paper Sec. V-D).

Strategy: determine the minimal CNOT count from the Shende--Bullock--Markov
invariants, then

* 0 CNOTs: factor into a tensor product;
* 1 CNOT : local-equivalence matching against the bare CNOT;
* 2 CNOTs: local-equivalence matching against the calibrated template
  ``CX . (Ry (x) Rz) . CX`` whose canonical class spans ``(a, b, 0)``;
* 3 CNOTs: the exact analytic identity (verified to machine precision)::

      CAN(a,b,c) = CX (Rx(-2a) (x) H) CX ((Rx(2b) S) (x) (H Rz(-2c) S)) CX (I (x) Sdg)

  where ``(x)`` has the CNOT-control qubit as its left factor.

Every produced circuit is verified against the target matrix (including
global phase); on a verification miss the routine escalates the CNOT count,
so the output is always exact even at degenerate class boundaries.

Endianness: inputs are little-endian circuit matrices on qubits ``(0, 1)``;
the left Kronecker factor therefore acts on qubit 1.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.euler import u3_params_from_unitary
from repro.linalg.kron import decompose_kron
from repro.linalg.state_prep import two_qubit_state_prep_factors
from repro.linalg.weyl import WeylDecomposition, num_cnots_required, weyl_decompose

__all__ = [
    "synthesize_two_qubit_unitary",
    "two_qubit_state_prep_circuit",
    "TwoQubitSynthesisError",
]

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = _S.conj().T
_ID = np.eye(2, dtype=complex)


class TwoQubitSynthesisError(RuntimeError):
    """Raised when no candidate circuit reproduces the target matrix."""


def _rx(theta: float) -> np.ndarray:
    cos, sin = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    cos, sin = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[cos, -sin], [sin, cos]], dtype=complex)


def _rz(phi: float) -> np.ndarray:
    return np.diag([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)]).astype(complex)


class _CircuitBuilder:
    """Accumulates a two-qubit circuit, merging adjacent one-qubit gates.

    Pending one-qubit matrices are fused and flushed as single ``u3`` gates
    whenever a CNOT arrives, keeping the emitted one-qubit gate count at most
    one per qubit per CNOT layer.
    """

    def __init__(self):
        from repro.circuit.quantumcircuit import QuantumCircuit

        self.circuit = QuantumCircuit(2)
        self._pending = [_ID.copy(), _ID.copy()]

    def add_1q(self, qubit: int, matrix: np.ndarray) -> None:
        self._pending[qubit] = matrix @ self._pending[qubit]

    def _flush(self, qubit: int) -> None:
        matrix = self._pending[qubit]
        if np.allclose(matrix, _ID, atol=1e-12):
            return
        theta, phi, lam, gamma = u3_params_from_unitary(matrix)
        self.circuit.global_phase += gamma
        if abs(theta) > 1e-12 or abs(phi + lam) > 1e-12:
            self.circuit.u3(theta, phi, lam, qubit)
        self._pending[qubit] = _ID.copy()

    def add_cx(self, control: int, target: int) -> None:
        self._flush(0)
        self._flush(1)
        self.circuit.cx(control, target)

    def finish(self, global_phase: float = 0.0):
        self._flush(0)
        self._flush(1)
        self.circuit.global_phase += global_phase
        return self.circuit


def _canonical_circuit(builder: _CircuitBuilder, a: float, b: float, c: float) -> None:
    """Append the exact 3-CNOT realisation of ``CAN(a, b, c)``.

    In the verified identity the left Kronecker factor is the CNOT control;
    in little-endian circuit terms that factor lives on qubit 1.
    """
    builder.add_1q(0, _SDG)
    builder.add_cx(1, 0)
    builder.add_1q(1, _rx(2 * b) @ _S)
    builder.add_1q(0, _H @ _rz(-2 * c) @ _S)
    builder.add_cx(1, 0)
    builder.add_1q(1, _rx(-2 * a))
    builder.add_1q(0, _H)
    builder.add_cx(1, 0)


def _emit_product(unitary: np.ndarray):
    phase, left, right = decompose_kron(unitary)
    builder = _CircuitBuilder()
    builder.add_1q(1, left)
    builder.add_1q(0, right)
    return builder.finish(float(np.angle(phase)))


def _template_matrix_cx() -> np.ndarray:
    # CX with control = left factor (qubit 1 little-endian)
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )


#: Weyl decomposition of the bare-CNOT template: the same for every 1-CNOT
#: match, so it is computed once at import.
_CX_TEMPLATE = weyl_decompose(_template_matrix_cx())


def _template_matrix_2cx(a: float, b: float) -> np.ndarray:
    cx = _template_matrix_cx()
    return cx @ np.kron(_ry(-2 * b), _rz(2 * a)) @ cx


def _two_cnot_parameters(coordinates) -> list[tuple[float, float]]:
    """Candidate ``(a, b)`` template parameters for a 2-CNOT-class target.

    The raw canonical coordinates are only a class *representative*:
    single-coordinate shifts by ``pi/2`` are free (they cost a Pauli (x)
    Pauli local and a phase), so each coordinate is folded into
    ``[0, pi/2)`` and the pairwise mirror images are enumerated.  Any folded
    triple whose smallest entry vanishes exposes the ``(a, b, 0)`` form the
    template realises; sign variants cover the orientation ambiguity.
    """
    half_pi = np.pi / 2
    folded = sorted((x % half_pi for x in coordinates), reverse=True)
    candidates = []
    mirrors = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    for flips in mirrors:
        triple = sorted(
            (
                ((half_pi - value) % half_pi) if flip else value
                for value, flip in zip(folded, flips)
            ),
            reverse=True,
        )
        if triple[-1] < 1e-7:
            a, b = triple[0], triple[1]
            for signs in ((a, b), (a, -b), (-a, b)):
                if signs not in candidates:
                    candidates.append(signs)
    return candidates


def _compose_with_template(
    target: WeylDecomposition,
    template: WeylDecomposition,
    emit_template,
    coord_tol: float = 1e-6,
):
    """Express the target through a template of the same canonical class.

    ``U = e^{i(pu - pv)} (K1u K1v^+) V (K2v^+ K2u)`` where ``V`` is the
    template (given by its Weyl decomposition) and both decompositions
    share the canonical coordinates.  Returns ``None`` when the classes do
    not match.
    """
    mismatch = max(
        abs(x - y) for x, y in zip(target.coordinates, template.coordinates)
    )
    if mismatch > coord_tol:
        return None
    builder = _CircuitBuilder()
    builder.add_1q(1, template.K2l.conj().T @ target.K2l)
    builder.add_1q(0, template.K2r.conj().T @ target.K2r)
    emit_template(builder)
    builder.add_1q(1, target.K1l @ template.K1l.conj().T)
    builder.add_1q(0, target.K1r @ template.K1r.conj().T)
    return builder.finish(target.phase - template.phase)


def synthesize_two_qubit_unitary(unitary: np.ndarray, atol: float = 1e-7):
    """Synthesise ``unitary`` into a circuit with the minimal CNOT count.

    The result reproduces the target exactly, including global phase.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise ValueError(f"expected a 4x4 unitary, got shape {unitary.shape}")

    budget = num_cnots_required(unitary, atol=atol)
    for cnots in range(budget, 4):
        candidate = _attempt(unitary, cnots)
        if candidate is None:
            continue
        if np.allclose(candidate.to_matrix(), unitary, atol=max(atol, 1e-7)):
            return candidate
    raise TwoQubitSynthesisError("exhausted all CNOT budgets")


def _attempt(unitary: np.ndarray, cnots: int):
    if cnots == 0:
        try:
            return _emit_product(unitary)
        except ValueError:
            return None
    target = weyl_decompose(unitary)
    if cnots == 1:
        return _compose_with_template(
            target, _CX_TEMPLATE, lambda builder: builder.add_cx(1, 0)
        )
    if cnots == 2:
        for a, b in _two_cnot_parameters(target.coordinates):
            template = weyl_decompose(_template_matrix_2cx(a, b))

            def emit(builder: _CircuitBuilder, a=a, b=b) -> None:
                builder.add_cx(1, 0)
                builder.add_1q(1, _ry(-2 * b))
                builder.add_1q(0, _rz(2 * a))
                builder.add_cx(1, 0)

            candidate = _compose_with_template(target, template, emit)
            if candidate is not None:
                return candidate
        return None
    # generic 3-CNOT path through the exact canonical identity
    builder = _CircuitBuilder()
    builder.add_1q(1, target.K2l)
    builder.add_1q(0, target.K2r)
    _canonical_circuit(builder, target.a, target.b, target.c)
    builder.add_1q(1, target.K1l)
    builder.add_1q(0, target.K1r)
    return builder.finish(target.phase)


def two_qubit_state_prep_circuit(statevector: np.ndarray):
    """Circuit preparing an arbitrary two-qubit state from ``|00>``.

    Implements the paper's Fig. 4 universal preparation: one CNOT plus at
    most four one-qubit gates (zero CNOTs when the state is a product).
    The output matches the target state *exactly* (global phase included).
    """
    statevector = np.asarray(statevector, dtype=complex).ravel()
    if statevector.shape != (4,):
        raise ValueError("expected a two-qubit statevector")
    norm = np.linalg.norm(statevector)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("statevector is not normalised")

    ry_angle, left, right, needs_cnot = two_qubit_state_prep_factors(statevector)
    builder = _CircuitBuilder()
    builder.add_1q(1, _ry(ry_angle))
    if needs_cnot:
        builder.add_cx(1, 0)
    builder.add_1q(1, left)
    builder.add_1q(0, right)
    circuit = builder.finish()

    produced = circuit.to_matrix()[:, 0]
    overlap = np.vdot(produced, statevector)
    if abs(abs(overlap) - 1.0) > 1e-7:
        raise TwoQubitSynthesisError("state preparation synthesis failed")
    circuit.global_phase += float(np.angle(overlap))
    return circuit
