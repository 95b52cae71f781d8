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
and puts its fused gate at the run's last record, adding the run's phase;
only a one-gate run that comes out as itself bit for bit makes no edit and
adds no phase, so a circuit with nothing to fuse is returned as it is.
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
from repro.transpiler.cache import rewrite_counter
from repro.transpiler.passmanager import PropertySet, TransformationPass
from repro.utils.angles import normalize_angle

__all__ = ["Optimize1qGates"]

_EPS = 1e-10


class Optimize1qGates(TransformationPass):
    """Fuse runs of adjacent one-qubit gates into minimal u-gates.

    ``basis`` is the target's gate basis (``None``: the IBM ``u1``/``u2``/
    ``u3`` set).  A basis with ``u3`` gets a ``u3`` in place of each
    ``u1`` or ``u2`` it lacks; a basis without ``u3`` gets all three.
    """

    def __init__(self, basis=None):
        if basis is None or "u3" not in basis:
            basis = ("u1", "u2")
        self.u1 = "u1" in basis
        self.u2 = "u2" in basis

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        rewrites = rewrite_counter(property_set)

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
        # record.  A one-gate run whose gate comes out as itself, bit for
        # bit, makes no edit.
        edits = []
        for (qubit, indices, _), (theta, phi, lam, gamma) in zip(runs, params):
            gate = self._gate(theta, phi, lam)
            if len(indices) > 1:
                rewrites[self.name] += 1
            elif gate is not None and _same_gate(data[indices[0]].operation, *gate):
                continue
            replacement = () if gate is None else ((gate[0](*gate[1]), (qubit,), ()),)
            edits.append((indices, indices[-1], replacement, gamma))
        return circuit.splice(edits)

    def _gate(self, theta: float, phi: float, lam: float):
        """The ``(u-gate class, params)`` of a run's Euler angles, or
        ``None`` when the run is the identity up to phase."""
        theta_n = normalize_angle(theta)
        if theta_n < _EPS or abs(theta_n - 2 * math.pi) < _EPS:
            # diagonal: a pure phase gate (or identity)
            total = normalize_angle(phi + lam)
            if total <= _EPS:
                return None
            return (U1Gate, [total]) if self.u1 else (U3Gate, [0.0, 0.0, total])
        if self.u2 and abs(theta_n - math.pi / 2) < _EPS:
            return U2Gate, [phi, lam]
        return U3Gate, [theta, phi, lam]


def _same_gate(operation, cls, params: list[float]) -> bool:
    """Whether ``operation`` is the unlabelled ``cls(*params)``, every
    parameter equal bit for bit (``-0.0`` is not ``0.0``)."""
    if type(operation) is not cls or operation.label is not None:
        return False
    return list(map(float.hex, operation.params)) == list(map(float.hex, params))
