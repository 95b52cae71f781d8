"""Single-qubit gate fusion (``Optimize1qGates``).

Merges maximal runs of one-qubit gates into at most one ``u1``/``u2``/``u3``
gate, tracking global phase exactly.  The paper's pipeline runs this right
before QPO (Fig. 8 line 7) so that the pure-state tracker sees fused ``u3``
gates, and again inside the fixed-point loop.

Annotations act as fences: merging a gate across an ``ANNOT`` would move it
relative to the point where the programmer's promise holds.

One scan collects every run of the circuit, all run products are computed
in a single stacked reduction (:func:`repro.linalg.batch.chain_products`)
and the Euler angles of every merged run come from one stacked extraction
(:func:`repro.linalg.batch.u3_params_batch`).  The run products are
bit-identical to a one-matmul-per-gate fold (sequential batched fold); the
emitted angles may differ from the scalar
:func:`repro.linalg.euler.u3_params_from_unitary` in the last ulp because
NumPy's array ``arctan2`` rounds differently from libm's, so the tests
hold the pass to the scalar fold with structure exact and angles within
1e-12.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.gates import U1Gate, U2Gate, U3Gate
from repro.linalg.batch import chain_products, u3_params_batch
from repro.transpiler.cache import AnalysisCache, rewrite_counter
from repro.transpiler.passmanager import PropertySet, TransformationPass
from repro.utils.angles import normalize_angle

__all__ = ["Optimize1qGates"]

_EPS = 1e-10


class Optimize1qGates(TransformationPass):
    """Fuse runs of adjacent one-qubit gates into minimal u-gates."""

    requires = ()
    preserves = ("is_swap_mapped",)
    invalidates = ()

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        cache = AnalysisCache.ensure(property_set)
        rewrites = rewrite_counter(property_set)

        # Phase 1: scan into an ordered event list; runs carry operations
        # only (no matrix work happens during the scan).
        events: list[tuple[str, object, tuple, tuple]] = []
        runs: list[tuple[int, list]] = []  # (qubit, operations)
        pending: dict[int, int] = {}  # qubit -> index into ``runs``

        def flush(qubit: int) -> None:
            run_index = pending.pop(qubit, None)
            if run_index is not None:
                events.append(("run", run_index, (), ()))

        for instruction in circuit.data:
            operation = instruction.operation
            if (
                operation.is_gate()
                and operation.num_qubits == 1
                and not operation.is_directive
            ):
                qubit = instruction.qubits[0]
                run_index = pending.get(qubit)
                if run_index is None:
                    pending[qubit] = len(runs)
                    runs.append((qubit, [operation]))
                else:
                    runs[run_index][1].append(operation)
                continue
            for qubit in instruction.qubits:
                flush(qubit)
            events.append(
                ("raw", operation, instruction.qubits, instruction.clbits)
            )
        for qubit in sorted(pending):
            flush(qubit)

        # Phase 2: every run product in one stacked reduction, every Euler
        # extraction in one vectorized call.
        operations = [op for _, ops in runs for op in ops]
        matrices = cache.matrices(operations)
        chains: list[list[np.ndarray]] = []
        cursor = 0
        for _, ops in runs:
            chains.append(matrices[cursor : cursor + len(ops)])
            cursor += len(ops)
        products = chain_products(chains, 2)
        # one conversion to Python floats, bit for bit ``float(np.float64)``
        params = u3_params_batch(products).tolist() if len(runs) else []

        output = circuit.copy_empty_like()
        for kind, payload, qubits, clbits in events:
            if kind == "raw":
                output.append(payload, qubits, clbits)
                continue
            run_qubit, ops = runs[payload]
            if len(ops) > 1:
                rewrites[self.name] += 1
            self._emit_params(*params[payload], run_qubit, output)
        return output

    @staticmethod
    def _emit_params(
        theta: float, phi: float, lam: float, gamma: float,
        qubit: int, output: QuantumCircuit,
    ) -> None:
        output.global_phase += gamma
        theta_n = normalize_angle(theta)
        if theta_n < _EPS or abs(theta_n - 2 * math.pi) < _EPS:
            # diagonal: a pure phase gate (or identity)
            total = normalize_angle(phi + lam)
            if total > _EPS:
                output.append(U1Gate(total), (qubit,))
            return
        if abs(theta_n - math.pi / 2) < _EPS:
            output.append(U2Gate(phi, lam), (qubit,))
            return
        output.append(U3Gate(theta, phi, lam), (qubit,))
