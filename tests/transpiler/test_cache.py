"""Tests for the shared AnalysisCache and the standard-gate matrix table.

Includes the headline acceptance check of the scheduler/cache rework: on
the paper's Table II workloads, a pipeline run with a shared cache
constructs far fewer matrices than the seed path did (which built one per
``to_matrix()`` request), and a second run over the same cache constructs
fewer still -- with bit-identical output circuits.
"""

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
from repro.gates import CXGate, HGate, U1Gate, U3Gate, XGate
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


class TestMatrixCache:
    def test_hit_returns_same_object(self):
        cache = AnalysisCache()
        first = cache.matrix(U3Gate(0.1, 0.2, 0.3))
        second = cache.matrix(U3Gate(0.1, 0.2, 0.3))
        assert first is second
        assert cache.stats["matrix_misses"] == 1
        assert cache.stats["matrix_hits"] == 1

    def test_distinct_params_distinct_entries(self):
        cache = AnalysisCache()
        a = cache.matrix(U1Gate(0.5))
        b = cache.matrix(U1Gate(0.6))
        assert not np.allclose(a, b)
        assert cache.stats["matrix_misses"] == 2

    def test_table_gates_are_not_constructions(self):
        cache = AnalysisCache()
        cache.matrix(XGate())
        cache.matrix(XGate())
        assert cache.stats["matrix_table"] == 2
        assert cache.matrix_constructions == 0

    def test_unitary_gate_uncached(self):
        from repro.gates import UnitaryGate

        cache = AnalysisCache()
        gate = UnitaryGate(np.eye(2))
        cache.matrix(gate)
        cache.matrix(gate)
        assert cache.stats["matrix_uncached"] == 2

    def test_cached_matrix_matches_to_matrix(self):
        cache = AnalysisCache()
        for gate in (U3Gate(1.0, 2.0, 3.0), U1Gate(0.25), CXGate()):
            assert np.allclose(cache.matrix(gate), gate.to_matrix())


class TestInProcessMemo:
    """The cache is a plain in-process memo: bounded, read-only entries,
    and nothing shared between two cache objects."""

    def test_cached_matrices_are_read_only(self):
        cache = AnalysisCache()
        matrix = cache.matrix(U3Gate(0.1, 0.2, 0.3))
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0
        assert np.allclose(cache.matrix(U3Gate(0.1, 0.2, 0.3)), matrix)

    def test_bulk_lookup_resolves_repeats_locally(self):
        cache = AnalysisCache()
        gates = [U3Gate(0.1, 0.2, 0.3), U3Gate(0.1, 0.2, 0.3), U1Gate(0.5), XGate()]
        out = cache.matrices(gates)
        assert out[0] is out[1]
        assert cache.stats["matrix_misses"] == 2
        assert cache.stats["matrix_hits"] == 1
        assert cache.stats["matrix_table"] == 1
        for gate, matrix in zip(gates, out):
            assert np.allclose(matrix, gate.to_matrix())

    def test_matrix_table_is_bounded_fifo(self):
        from repro.transpiler.cache import _MAX_MATRICES

        cache = AnalysisCache()
        for i in range(_MAX_MATRICES + 5):
            cache.matrix(U1Gate(float(i)))
        assert len(cache._matrices) == _MAX_MATRICES
        # the oldest entries went first
        cache.matrix(U1Gate(0.0))
        assert cache.stats["matrix_misses"] == _MAX_MATRICES + 6

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
        first.matrix(U3Gate(0.1, 0.2, 0.3))
        first.synthesis(CXGate().to_matrix())
        second = AnalysisCache()
        assert not second._matrices and not second._syntheses
        second.matrix(U3Gate(0.1, 0.2, 0.3))
        assert second.stats["matrix_misses"] == 1
        assert second.stats["matrix_hits"] == 0


def _table2_workloads():
    return [
        ("qpe", quantum_phase_estimation(3)),
        ("vqe", ry_ansatz(4, depth=2, seed=11)),
        ("qv", quantum_volume_circuit(4, seed=5)),
        ("grover", grover_circuit(3, marked=5, iterations=1)),
    ]


def _run_rpo(circuit, backend, cache=None, seed=0):
    pm = rpo_pass_manager(
        backend.coupling_map, backend_properties=backend.properties, seed=seed
    )
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
    """The acceptance criterion of the scheduler/cache rework."""

    @pytest.mark.parametrize(
        "name,circuit",
        _table2_workloads(),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_second_run_constructs_fewer_matrices(self, name, circuit):
        backend = FakeMelbourne()
        shared = AnalysisCache()

        first = _run_rpo(circuit, backend, cache=shared)
        first_constructions = shared.matrix_constructions
        first_requests = shared.matrix_requests
        # the seed path built one matrix per request; the cache must beat it
        assert 0 < first_constructions < first_requests

        second = _run_rpo(circuit, backend, cache=shared)
        second_constructions = shared.matrix_constructions - first_constructions
        assert second_constructions < first_constructions

        # caching must not change the compiled circuits
        fresh = _run_rpo(circuit, backend, cache=AnalysisCache())
        _assert_identical(first.circuit, fresh.circuit)
        _assert_identical(second.circuit, fresh.circuit)
