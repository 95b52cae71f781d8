"""Tests for the shared AnalysisCache and the standard-gate matrix table.

On the paper's Table II workloads, a second pipeline run over a shared
cache answers every two-qubit synthesis from the memo, with bit-identical
output circuits.
"""

from collections import Counter

import numpy as np
import pytest

from repro.algorithms import (
    grover_circuit,
    quantum_phase_estimation,
    quantum_volume_circuit,
    ry_ansatz,
)
from repro.backends import FakeMelbourne
from repro.circuit import QuantumCircuit
from repro.gates import CXGate, HGate, XGate
from repro.gates.matrices import STANDARD_GATE_MATRICES, standard_gate_matrix
from repro.rpo import rpo_pass_manager
from repro.transpiler import AnalysisCache
from repro.transpiler.passmanager import PropertySet


class TestStandardGateTable:
    def test_fixed_gates_share_one_matrix(self):
        assert XGate().to_matrix() is XGate().to_matrix()
        assert HGate().to_matrix() is standard_gate_matrix("h")
        assert CXGate().to_matrix() is standard_gate_matrix("cx")

    def test_table_matrices_are_immutable(self):
        with pytest.raises(ValueError):
            XGate().to_matrix()[0, 0] = 5.0

    def test_table_matches_gate_semantics(self):
        for name, matrix in STANDARD_GATE_MATRICES.items():
            dim = matrix.shape[0]
            assert np.allclose(matrix @ matrix.conj().T, np.eye(dim)), name

    def test_open_control_not_table_backed(self):
        open_cx = CXGate(ctrl_state=0)
        matrix = open_cx.to_matrix()
        assert matrix is not standard_gate_matrix("cx")
        # X applied when control (qubit 0) is |0>: |00> <-> |10>
        expected = np.eye(4, dtype=complex)[[2, 1, 0, 3]]
        assert np.allclose(matrix, expected)


class TestSynthesisMemo:
    """The cache is a plain in-process memo of two-qubit syntheses:
    keyed by unitary bytes, bounded, and nothing shared between two cache
    objects.  Gate matrices live on the gates (tests/gates/test_matrix_memo.py)."""

    def test_synthesis_memo_keyed_by_unitary_bytes(self):
        from repro.gates import SwapGate

        cache = AnalysisCache()
        cx = CXGate().to_matrix()
        memo = cache.synthesis(cx)
        assert memo.budget == 1
        assert not memo.synthesized
        assert cache.synthesis(cx.copy()) is memo
        assert cache.synthesis(np.eye(4, dtype=complex)).budget == 0
        assert cache.synthesis(SwapGate().to_matrix()).budget == 3
        assert len(cache._syntheses) == 3

    def test_caches_share_no_entries(self):
        first = AnalysisCache()
        first.synthesis(CXGate().to_matrix())
        second = AnalysisCache()
        assert not second._syntheses
        assert second.synthesis(CXGate().to_matrix()) is not first.synthesis(
            CXGate().to_matrix()
        )

    def test_synthesis_table_is_bounded_fifo(self):
        from repro.transpiler.cache import _MAX_SYNTHESES

        cache = AnalysisCache()
        unitaries = [
            np.diag(np.exp(1j * np.array([0.0, 0.0, 0.0, 1e-3 * i])))
            for i in range(_MAX_SYNTHESES + 5)
        ]
        cache.syntheses(unitaries)
        assert len(cache._syntheses) == _MAX_SYNTHESES
        # the oldest entries went first
        assert unitaries[0].tobytes() not in cache._syntheses
        assert unitaries[-1].tobytes() in cache._syntheses


def _table2_workloads():
    return [
        ("qpe", quantum_phase_estimation(3)),
        ("vqe", ry_ansatz(4, depth=2, seed=11)),
        ("qv", quantum_volume_circuit(4, seed=5)),
        ("grover", grover_circuit(3, marked=5, iterations=1)),
    ]


def _run_rpo(circuit, backend, cache=None, seed=0):
    pm = rpo_pass_manager(backend, seed=seed)
    return pm.run_with_result(
        circuit.copy(), PropertySet(), analysis_cache=cache
    )


def _assert_identical(a: QuantumCircuit, b: QuantumCircuit):
    assert abs(a.global_phase - b.global_phase) < 1e-9
    assert len(a.data) == len(b.data)
    for inst_a, inst_b in zip(a.data, b.data):
        assert inst_a.operation.name == inst_b.operation.name
        assert inst_a.qubits == inst_b.qubits
        assert inst_a.clbits == inst_b.clbits
        assert np.allclose(inst_a.operation.params, inst_b.operation.params)


class TestSharedCacheAcceptance:
    """A cache shared across runs answers a repeat run's syntheses from
    its memo, with bit-identical output circuits."""

    @pytest.mark.parametrize(
        "name,circuit",
        _table2_workloads(),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_second_run_synthesizes_nothing_new(self, name, circuit):
        backend = FakeMelbourne()
        shared = AnalysisCache()

        first = _run_rpo(circuit, backend, cache=shared)
        first_stats = Counter(shared.stats)
        entries = len(shared._syntheses)
        assert entries > 0

        second = _run_rpo(circuit, backend, cache=shared)
        increment = shared.stats - first_stats
        assert increment["synth_attempts"] == 0
        assert len(shared._syntheses) == entries

        # sharing must not change the compiled circuits
        fresh = _run_rpo(circuit, backend, cache=AnalysisCache())
        _assert_identical(first.circuit, fresh.circuit)
        _assert_identical(second.circuit, fresh.circuit)
