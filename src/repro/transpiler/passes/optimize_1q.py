"""Single-qubit gate fusion (``Optimize1qGates``).

Merges maximal runs of one-qubit gates into at most one ``u1``/``u2``/``u3``
gate, tracking global phase exactly; a target basis with ``u3`` but no
``u1`` (or ``u2``) gets ``u3`` in its place.  The paper's pipeline runs
this right before QPO (Fig. 8 line 7) so that the pure-state tracker sees
fused ``u3`` gates, and again inside the fixed-point loop.

Annotations act as fences: merging a gate across an ``ANNOT`` would move it
relative to the point where the programmer's promise holds.  So does a
one-qubit gate with no matrix, which stays where it is.

One scan collects every run of the circuit, all run products are computed
in a single stacked reduction (:func:`repro.linalg.batch.chain_products`)
and the Euler angles of every merged run come from one stacked extraction
(:func:`repro.linalg.batch.u3_params_batch`).  Each run becomes one
:meth:`~repro.circuit.QuantumCircuit.splice` edit that removes its records
and puts its fused gate at the run's last record, adding the run's phase.
A one-gate run whose gate round-trips -- it fuses to an unlabelled gate of
its own class with every parameter within ``1e-12`` of its own -- makes no
edit and adds no phase, so a circuit with nothing to fuse is returned as
it is.  Every other one-gate run is rebuilt: another class, a label, or an
angle outside the range :func:`u_gate` emits (``phi``/``lam`` in
``[-pi, pi]``, a ``u1`` angle in ``[0, 2*pi)``) is put in canonical form.
:func:`u_gate` is the one rule that picks a u-gate for Euler angles;
``ConsolidateBlocks`` places its re-synthesized ``u3`` gates through it
too, so neither pass rebuilds what the other emitted.
The run products are bit-identical to a one-matmul-per-gate fold
(sequential batched fold); the fused angles may differ from the scalar
:func:`repro.linalg.euler.u3_params_from_unitary` in the last ulp because
NumPy's array ``arctan2`` rounds differently from libm's, so the tests
hold the pass to the scalar fold with structure exact and angles within
1e-12.
"""

from __future__ import annotations

import math

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.gates import U1Gate, U2Gate, U3Gate
from repro.linalg.batch import chain_products, u3_params_batch
from repro.transpiler.passmanager import PropertySet, TransformationPass
from repro.utils.angles import normalize_angle

__all__ = ["Optimize1qGates", "u_basis", "u_gate"]

_EPS = 1e-10
#: how far a one-gate run's re-extracted parameters may sit from its own
#: for the pass to keep the gate
_ROUND_TRIP = 1e-12


class Optimize1qGates(TransformationPass):
    """Fuse runs of adjacent one-qubit gates into minimal u-gates.

    ``basis`` is the target's gate basis (``None``: the IBM ``u1``/``u2``/
    ``u3`` set); :func:`u_basis` reads which u-gates it allows.
    """

    def __init__(self, basis=None):
        self.u1, self.u2 = u_basis(basis)

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        # Phase 1: scan the runs (qubit, input indices, gate matrices).  A
        # one-qubit gate with no matrix is a fence like any other record:
        # it ends the run on its wire and stays where it is.
        data = circuit.data
        runs: list[tuple[int, list[int], list]] = []
        open_runs: dict[int, int] = {}  # qubit -> index into ``runs``
        for index, (operation, qubits, _) in enumerate(data):
            if operation.is_gate() and operation.num_qubits == 1 and not operation.is_directive:
                try:
                    matrix = operation.matrix
                except NotImplementedError:
                    pass
                else:
                    run_index = open_runs.get(qubits[0])
                    if run_index is None:
                        open_runs[qubits[0]] = len(runs)
                        runs.append((qubits[0], [index], [matrix]))
                    else:
                        run = runs[run_index]
                        run[1].append(index)
                        run[2].append(matrix)
                    continue
            for qubit in qubits:
                open_runs.pop(qubit, None)

        # Phase 2: every run product in one stacked reduction, every Euler
        # extraction in one vectorized call.
        products = chain_products([matrices for _, _, matrices in runs], 2)
        # one conversion to Python floats, bit for bit ``float(np.float64)``
        params = u3_params_batch(products).tolist() if len(runs) else []

        # Phase 3: one edit per run, in run order, at the run's last
        # record.  A one-gate run whose gate round-trips makes no edit.
        edits = []
        for (qubit, indices, _), (theta, phi, lam, gamma) in zip(runs, params):
            gate = u_gate(theta, phi, lam, self.u1, self.u2)
            if (
                len(indices) == 1
                and gate is not None
                and _round_trips(data[indices[0]].operation, *gate)
            ):
                continue
            replacement = () if gate is None else ((gate[0](*gate[1]), (qubit,), ()),)
            edits.append((indices, indices[-1], replacement, gamma))
        return self.splice(circuit, edits, property_set)


def u_basis(basis) -> tuple[bool, bool]:
    """Whether a target ``basis`` takes ``u1`` and ``u2`` gates.

    A basis with ``u3`` gets a ``u3`` in place of each ``u1`` or ``u2`` it
    lacks; ``None`` (the IBM ``u1``/``u2``/``u3`` set) and a basis without
    ``u3`` get all three.
    """
    if basis is None or "u3" not in basis:
        return True, True
    return "u1" in basis, "u2" in basis


def u_gate(theta: float, phi: float, lam: float, u1: bool, u2: bool):
    """The ``(u-gate class, params)`` of ``u3(theta, phi, lam)`` in a basis
    that takes ``u1`` and/or ``u2`` as the flags say, or ``None`` when the
    gate is the identity up to phase.  ``theta`` is in ``[0, pi]``, as the
    Euler extraction gives it.

    A ``u2`` or ``u3`` gets ``phi`` and ``lam`` wrapped into ``[-pi, pi]``
    and a ``u1`` its angle into ``[0, 2*pi)``: the ranges the Euler
    extraction reads them back in, so the gate comes out of
    :class:`Optimize1qGates` as itself.  Wrapping by ``2*pi`` leaves the
    matrix as it is.
    """
    theta_n = normalize_angle(theta)
    if theta_n < _EPS or abs(theta_n - 2 * math.pi) < _EPS:
        # diagonal: a pure phase gate (or identity)
        total = normalize_angle(phi + lam)
        if total <= _EPS:
            return None
        return (U1Gate, [total]) if u1 else (U3Gate, [0.0, 0.0, total])
    if u2 and abs(theta_n - math.pi / 2) < _EPS:
        return U2Gate, [_wrap(phi), _wrap(lam)]
    return U3Gate, [theta, _wrap(phi), _wrap(lam)]


def _wrap(angle: float) -> float:
    """``angle`` less the nearest multiple of ``2*pi``: in ``[-pi, pi]``."""
    return math.remainder(angle, 2 * math.pi)


def _round_trips(operation, cls, params: list[float]) -> bool:
    """Whether ``operation`` is an unlabelled ``cls`` whose every parameter
    is within ``_ROUND_TRIP`` of ``params``: the pass keeps it as it is."""
    if type(operation) is not cls or operation.label is not None:
        return False
    return all(abs(a - b) <= _ROUND_TRIP for a, b in zip(operation.params, params))
