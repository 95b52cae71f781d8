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

Synthesis runs in two steps.  :func:`plan_two_qubit_unitary` records one
candidate as a :class:`SynthesisPlan` -- the emitted ``u3``/``cx`` gate
tuples and the global phase, no circuit object -- so a caller such as
``ConsolidateBlocks`` can read a candidate's size cheaply;
:func:`plan_two_qubit_unitaries` makes many such plans over one stacked
Weyl kernel.  :func:`synthesize_two_qubit_unitary` multiplies each plan's
own gate matrices out and checks the product against the target
(including global phase); on a miss it escalates the CNOT count, so the
output is always exact even at degenerate class boundaries.  Only the plan
that passes is built into a circuit.  A caller that made the CNOT budget
and the budget plan in bulk hands both in, and synthesis plans only on
escalation.

Endianness: inputs are little-endian circuit matrices on qubits ``(0, 1)``;
the left Kronecker factor therefore acts on qubit 1.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.euler import u3_matrix, u3_params_from_unitary
from repro.linalg.kron import decompose_kron
from repro.linalg.state_prep import two_qubit_state_prep_factors
from repro.linalg.weyl import (
    MAGIC_BASIS,
    CanonicalForm,
    WeylDecomposition,
    canonical_forms,
    num_cnots_required,
    weyl_decompose,
    weyl_factors,
)

__all__ = [
    "SYNTHESIS_ERRORS",
    "SynthesisPlan",
    "plan_size_bounds",
    "plan_size_floor",
    "plan_two_qubit_unitary",
    "plan_two_qubit_unitaries",
    "synthesize_two_qubit_unitary",
    "two_qubit_state_prep_circuit",
    "TwoQubitSynthesisError",
]

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = _S.conj().T
_ID = np.eye(2, dtype=complex)
_MAGIC_DAG = MAGIC_BASIS.conj().T


class TwoQubitSynthesisError(RuntimeError):
    """Raised when no candidate circuit reproduces the target matrix."""


#: the typed failures of planning and synthesis (anything else is a bug)
SYNTHESIS_ERRORS = (TwoQubitSynthesisError, np.linalg.LinAlgError, ValueError)


def _rx(theta: float) -> np.ndarray:
    cos, sin = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    cos, sin = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[cos, -sin], [sin, cos]], dtype=complex)


def _rz(phi: float) -> np.ndarray:
    return np.diag([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)]).astype(complex)


class SynthesisPlan:
    """A two-qubit circuit as emitted gate tuples, before any circuit object.

    ``gates`` lists ``("u3", qubit, theta, phi, lam)`` and
    ``("cx", control, target)`` in time order; ``global_phase`` is the phase
    the built circuit carries.  :meth:`matrix` multiplies the gates out
    directly and :meth:`circuit` builds the :class:`QuantumCircuit`, so a
    caller can inspect a plan's size and check it before paying for either.
    """

    __slots__ = ("gates", "global_phase")

    def __init__(self, gates: list[tuple], global_phase: float):
        self.gates = gates
        self.global_phase = global_phase

    @property
    def size(self) -> int:
        """Gate count of the built circuit."""
        return len(self.gates)

    def matrix(self) -> np.ndarray:
        """Little-endian 4x4 unitary of the plan, global phase included.

        Same gate matrices, embedding and product order as
        ``self.circuit().to_matrix()``, without building the circuit.
        """
        matrix = np.eye(4, dtype=complex)
        for gate in self.gates:
            if gate[0] == "cx":
                matrix = _CX_LITTLE_ENDIAN[gate[1:]] @ matrix
                continue
            embedded = np.zeros((4, 4), dtype=complex)
            block = u3_matrix(*gate[2:])
            for rows in _WIRE_BLOCKS[gate[1]]:
                embedded[rows, rows] = block
            matrix = embedded @ matrix
        return matrix * np.exp(1j * self.global_phase)

    def circuit(self):
        """The plan as a two-qubit :class:`QuantumCircuit`."""
        from repro.circuit.quantumcircuit import QuantumCircuit

        circuit = QuantumCircuit(2)
        for gate in self.gates:
            if gate[0] == "cx":
                circuit.cx(gate[1], gate[2])
            else:
                circuit.u3(gate[2], gate[3], gate[4], gate[1])
        circuit.global_phase = self.global_phase
        return circuit


#: Little-endian CX on qubits ``(control, target)``.
_CX_LITTLE_ENDIAN = {
    (0, 1): np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    ),
    (1, 0): np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}

#: Where a one-qubit gate on each wire sits in the 4x4 matrix: one 2x2
#: block per value of the other wire.
_WIRE_BLOCKS = {0: (slice(0, 2), slice(2, 4)), 1: (slice(0, 3, 2), slice(1, 4, 2))}

#: how far from the identity, entry by entry, a one-qubit layer may be
#: and still be dropped
_IDENTITY_TOL = 1e-12


def _near_identity(matrix: np.ndarray) -> bool:
    """``np.allclose(matrix, I, rtol=0, atol=1e-12)`` for a 2x2 matrix, on
    the four entries of ``|matrix - I|`` (NaN fails).

    The distances come from numpy's own complex ``abs``, as in
    ``np.allclose``: ``math.hypot`` differs from it in the last bit.
    """
    (d00, d01), (d10, d11) = np.abs(matrix - _ID).tolist()
    return (
        d00 <= _IDENTITY_TOL
        and d01 <= _IDENTITY_TOL
        and d10 <= _IDENTITY_TOL
        and d11 <= _IDENTITY_TOL
    )


class _PlanBuilder:
    """Records a two-qubit plan, merging adjacent one-qubit gates.

    Pending one-qubit matrices are fused and flushed as single ``u3`` gates
    whenever a CNOT arrives, keeping the emitted one-qubit gate count at most
    one per qubit per CNOT layer.
    """

    def __init__(self):
        self.gates: list[tuple] = []
        self.global_phase = 0.0
        self._pending = [_ID, _ID]

    def add_1q(self, qubit: int, matrix: np.ndarray) -> None:
        self._pending[qubit] = matrix @ self._pending[qubit]

    def _flush(self, qubit: int) -> None:
        matrix = self._pending[qubit]
        if _near_identity(matrix):
            return
        theta, phi, lam, gamma = u3_params_from_unitary(matrix)
        self.global_phase += gamma
        if abs(theta) > 1e-12 or abs(phi + lam) > 1e-12:
            self.gates.append(("u3", qubit, theta, phi, lam))
        self._pending[qubit] = _ID

    def add_cx(self, control: int, target: int) -> None:
        self._flush(0)
        self._flush(1)
        self.gates.append(("cx", control, target))

    def finish(self, global_phase: float = 0.0) -> SynthesisPlan:
        self._flush(0)
        self._flush(1)
        self.global_phase += global_phase
        return SynthesisPlan(self.gates, self.global_phase)


def _canonical_circuit(builder: _PlanBuilder, a: float, b: float, c: float) -> None:
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


def _emit_product(unitary: np.ndarray) -> SynthesisPlan:
    phase, left, right = decompose_kron(unitary)
    builder = _PlanBuilder()
    builder.add_1q(1, left)
    builder.add_1q(0, right)
    return builder.finish(float(np.angle(phase)))


#: Weyl decomposition of the bare-CNOT template (control = left factor,
#: qubit 1 little-endian): the same for every 1-CNOT match, so it is
#: computed once at import.
_CX_TEMPLATE = weyl_decompose(_CX_LITTLE_ENDIAN[1, 0])


def _template_matrices_2cx(pairs: list[tuple[float, float]]) -> np.ndarray:
    """``CX . (Ry(-2b) (x) Rz(2a)) . CX`` for every ``(a, b)``, stacked;
    entry for entry the ``_ry``/``_rz`` matrices and ``np.kron``."""
    a, b = np.array(pairs, dtype=float).T
    half = -2 * b / 2
    ry = np.zeros((len(pairs), 2, 2), dtype=complex)
    ry[:, 0, 0] = ry[:, 1, 1] = np.cos(half)
    ry[:, 1, 0] = np.sin(half)
    ry[:, 0, 1] = -ry[:, 1, 0].real
    phi = 2 * a
    rz = np.zeros((len(pairs), 2, 2), dtype=complex)
    rz[:, 0, 0] = np.exp(-1j * phi / 2)
    rz[:, 1, 1] = np.exp(1j * phi / 2)
    kron = (ry[:, :, None, :, None] * rz[:, None, :, None, :]).reshape(len(pairs), 4, 4)
    cx = _CX_LITTLE_ENDIAN[1, 0]
    return cx @ kron @ cx


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


def _same_class(target, template, coord_tol: float = 1e-6) -> bool:
    """Whether two decompositions (or canonical forms) share canonical
    coordinates."""
    mismatch = max(
        abs(x - y) for x, y in zip(target.coordinates, template.coordinates)
    )
    return mismatch <= coord_tol


def _compose_with_template(
    target: WeylDecomposition, template: WeylDecomposition, emit_template
) -> SynthesisPlan:
    """Express the target through a template of the same canonical class.

    ``U = e^{i(pu - pv)} (K1u K1v^+) V (K2v^+ K2u)`` where ``V`` is the
    template (given by its Weyl decomposition) and both decompositions
    share the canonical coordinates (:func:`_same_class`).
    """
    builder = _PlanBuilder()
    builder.add_1q(1, template.K2l.conj().T @ target.K2l)
    builder.add_1q(0, template.K2r.conj().T @ target.K2r)
    emit_template(builder)
    builder.add_1q(1, target.K1l @ template.K1l.conj().T)
    builder.add_1q(0, target.K1r @ template.K1r.conj().T)
    return builder.finish(target.phase - template.phase)


def _emit_cx(builder: _PlanBuilder) -> None:
    builder.add_cx(1, 0)


def _emit_2cx(a: float, b: float):
    def emit(builder: _PlanBuilder) -> None:
        builder.add_cx(1, 0)
        builder.add_1q(1, _ry(-2 * b))
        builder.add_1q(0, _rz(2 * a))
        builder.add_cx(1, 0)

    return emit


def _emit_canonical(target: WeylDecomposition) -> SynthesisPlan:
    """The generic 3-CNOT plan through the exact canonical identity."""
    builder = _PlanBuilder()
    builder.add_1q(1, target.K2l)
    builder.add_1q(0, target.K2r)
    _canonical_circuit(builder, target.a, target.b, target.c)
    builder.add_1q(1, target.K1l)
    builder.add_1q(0, target.K1r)
    return builder.finish(target.phase)


#: fewest gates a plan with this many CNOTs can hold.  A 3-CNOT plan always
#: emits its three CNOTs plus ``Rx(2b) S``, ``H Rz(-2c) S``, ``H`` and
#: ``Rx(-2a)`` from the canonical identity: the first three are never a
#: global phase, and ``Rx(-2a)`` is one only when ``a = 0 mod pi``, which
#: no 3-CNOT class has (a coordinate ``= 0 mod pi/2`` makes the class
#: ``(b, c, 0)``, two CNOTs).  A 2-CNOT plan emits ``Rz(2a)`` between its
#: CNOTs, with ``a`` the largest folded coordinate, which is not 0 (or the
#: class would be local).
_PLAN_SIZE_FLOOR = {2: 3, 3: 7}


def plan_size_floor(cnots: int) -> int:
    """A lower bound on ``plan_two_qubit_unitary(u, cnots).size`` that holds
    for every ``u`` whose minimal CNOT count is ``cnots`` (2 or 3: the only
    counts a CX-count tie of a block with two or more CNOTs can have)."""
    return _PLAN_SIZE_FLOOR[cnots]


#: ``(B^dag W, W' B)`` per CNOT count: the frame in which every template of
#: that count's plans is diagonal.  A 3-CNOT plan whose four outer
#: one-qubit factors are phases realises ``CAN(a, b, c) (I (x) S)``, so
#: ``U (I (x) Sdg)`` is canonical; a 2-CNOT one realises
#: ``CX (Ry(-2b) (x) Rz(2a)) CX``, which ``I (x) S`` conjugates to a
#: canonical gate.  Canonical gates are diagonal in the magic basis ``B``.
_TEMPLATE_FRAMES = {
    2: (_MAGIC_DAG @ np.kron(_ID, _S), np.kron(_ID, _SDG) @ MAGIC_BASIS),
    3: (_MAGIC_DAG, np.kron(_ID, _SDG) @ MAGIC_BASIS),
}

#: a unitary whose template-frame product has an off-diagonal entry above
#: this is not its template up to phases.  Outer factors the plan drops are
#: within ~1e-12 of a phase, and a plan that is kept matches its unitary to
#: 1e-7 per entry (``allclose`` with ``rtol=0``), so such a plan's product
#: stays below ~1e-6: no plan that could be kept is refuted.
_TEMPLATE_MARGIN = 1e-3

_OFF_ROWS, _OFF_COLUMNS = np.nonzero(~np.eye(4, dtype=bool))


#: ``Ry(-2b)`` between a 2-CNOT plan's CNOTs is a gate once ``|b|`` is
#: above ~1e-11 (its off-diagonal then clears ``_near_identity``'s 1e-12);
#: the bound counts it only above this, far clear of that edge.
_ROTATION_MARGIN = 1e-6


def plan_size_bounds(unitaries, cnots, sizes=None) -> list[int]:
    """A lower bound on ``plan_two_qubit_unitary(unitaries[i], cnots[i]).size``
    for every item whose minimal CNOT count is ``cnots[i]`` (2 or 3).

    The bound is :func:`plan_size_floor` plus one when the unitary is not
    its plan's template up to phases (see :data:`_TEMPLATE_FRAMES`): then
    one of the plan's four outer one-qubit factors is a gate.  That test is
    one stacked product, with no eigendecomposition.

    ``sizes`` (optional) are the block sizes the caller means to refute.  A
    2-CNOT item whose size is one above that bound also gets its canonical
    coordinates: when every template the planner could match has
    ``|b| > 0``, the ``Ry(-2b)`` between the CNOTs is a gate too, and the
    bound rises by one.
    """
    if not len(unitaries):
        return []
    stack = np.asarray(unitaries, dtype=complex)
    left, right = (
        np.stack([_TEMPLATE_FRAMES[count][side] for count in cnots]) for side in (0, 1)
    )
    framed = left @ stack @ right
    outer = np.abs(framed[:, _OFF_ROWS, _OFF_COLUMNS]).max(axis=1) > _TEMPLATE_MARGIN
    bounds = [
        _PLAN_SIZE_FLOOR[count] + int(gate) for count, gate in zip(cnots, outer.tolist())
    ]
    if sizes is None:
        return bounds
    deciding = [
        index
        for index, (count, bound, size) in enumerate(zip(cnots, bounds, sizes))
        if count == 2 and size == bound + 1
    ]
    if deciding:
        for index, form in zip(deciding, canonical_forms(stack[deciding])):
            if isinstance(form, CanonicalForm) and all(
                abs(b) > _ROTATION_MARGIN for _, b in _two_cnot_parameters(form.coordinates)
            ):
                bounds[index] += 1
    return bounds


def synthesize_two_qubit_unitary(
    unitary: np.ndarray, atol: float = 1e-7, *, planned: tuple | None = None
):
    """Synthesise ``unitary`` into a circuit with the minimal CNOT count.

    The result reproduces the target, global phase included, to
    ``max(atol, 1e-7)`` in every entry: each candidate plan is multiplied
    out and checked against the target, and only the plan that passes is
    built into a circuit.

    ``planned`` is ``(budget, plan)`` when the caller made them in bulk:
    ``budget`` is ``num_cnots_required(unitary, atol)`` and ``plan`` the item
    :func:`plan_two_qubit_unitaries` returned for ``(unitary, budget)`` -- a
    plan, ``None``, or the typed error, which is raised.  Synthesis then
    checks that plan first and plans only when it escalates.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise ValueError(f"expected a 4x4 unitary, got shape {unitary.shape}")

    if planned is None:
        budget = num_cnots_required(unitary, atol=atol)
        plan = plan_two_qubit_unitary(unitary, budget)
    else:
        budget, plan = planned
        if isinstance(plan, Exception):
            raise plan
    for cnots in range(budget, 4):
        if cnots > budget:
            plan = plan_two_qubit_unitary(unitary, cnots)
        if plan is not None and np.allclose(plan.matrix(), unitary, rtol=0, atol=max(atol, 1e-7)):
            return plan.circuit()
    raise TwoQubitSynthesisError("exhausted all CNOT budgets")


def plan_two_qubit_unitary(unitary: np.ndarray, cnots: int) -> SynthesisPlan | None:
    """The candidate realisation of ``unitary`` with exactly ``cnots`` CNOTs.

    Returns ``None`` when the template does not match.  The plan is not
    checked against the target: :func:`synthesize_two_qubit_unitary` does
    that, and escalates ``cnots`` on a miss.  This is
    :func:`plan_two_qubit_unitaries` on one item, raising its error.
    """
    [plan] = plan_two_qubit_unitaries([unitary], [cnots])
    if isinstance(plan, Exception):
        raise plan
    return plan


def plan_two_qubit_unitaries(unitaries, cnots) -> list:
    """:func:`plan_two_qubit_unitary` of every ``(unitaries[i], cnots[i])``
    in one pass over the stacked Weyl kernel.

    Each item is a :class:`SynthesisPlan`, ``None`` (no template matches),
    or the typed error (one of :data:`SYNTHESIS_ERRORS`) that item alone
    raised; one failing item never sinks the others.  Template matching
    is coordinates first: every candidate template gets only its canonical
    coordinates, and only a target whose template matches (and that
    template) pays for the local factors.
    """
    plans: list = [None] * len(unitaries)
    weyl_items = []
    for index, (unitary, count) in enumerate(zip(unitaries, cnots)):
        if count == 0:
            try:
                plans[index] = _emit_product(unitary)
            except ValueError:
                pass  # not a tensor product: no 0-CNOT plan
            except np.linalg.LinAlgError as error:
                plans[index] = error
        else:
            weyl_items.append(index)
    if not weyl_items:
        return plans
    targets = canonical_forms(np.array([unitaries[index] for index in weyl_items]))

    # coordinates first: which template (if any) each target matches
    matches: dict = {}  # index -> (target, template, emit)
    searches = []  # (index, target form, [(a, b)])
    for index, target in zip(weyl_items, targets):
        if isinstance(target, Exception):
            plans[index] = target
        elif cnots[index] == 1:
            if _same_class(target, _CX_TEMPLATE):
                matches[index] = (target, _CX_TEMPLATE, _emit_cx)
        elif cnots[index] == 2:
            searches.append((index, target, _two_cnot_parameters(target.coordinates)))
        else:
            matches[index] = (target, None, None)
    candidates = [pair for _, _, pairs in searches for pair in pairs]
    if candidates:
        forms = iter(canonical_forms(_template_matrices_2cx(candidates)))
        for index, target, pairs in searches:
            for a, b in pairs:
                template = next(forms)
                if index in matches or isinstance(plans[index], Exception):
                    continue  # settled by an earlier candidate
                if isinstance(template, Exception):
                    plans[index] = template
                elif _same_class(target, template):
                    matches[index] = (target, template, _emit_2cx(a, b))

    # factors only for matched targets and the templates they matched
    pending = [
        form
        for target, template, _ in matches.values()
        for form in (target, template)
        if isinstance(form, CanonicalForm)
    ]
    factored = iter(weyl_factors(pending))
    for index, (target, template, emit) in matches.items():
        target = next(factored)
        if isinstance(template, CanonicalForm):
            template = next(factored)
        if isinstance(target, Exception):
            plans[index] = target
        elif isinstance(template, Exception):
            plans[index] = template
        elif template is None:
            plans[index] = _emit_canonical(target)
        else:
            plans[index] = _compose_with_template(target, template, emit)
    return plans


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
    builder = _PlanBuilder()
    builder.add_1q(1, _ry(ry_angle))
    if needs_cnot:
        builder.add_cx(1, 0)
    builder.add_1q(1, left)
    builder.add_1q(0, right)
    plan = builder.finish()

    produced = plan.matrix()[:, 0]
    overlap = np.vdot(produced, statevector)
    if abs(abs(overlap) - 1.0) > 1e-7:
        raise TwoQubitSynthesisError("state preparation synthesis failed")
    circuit = plan.circuit()
    circuit.global_phase += float(np.angle(overlap))
    return circuit
