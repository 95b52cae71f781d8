"""End-to-end tests of the RPO pipeline (paper Fig. 8)."""

import pytest

from repro.algorithms import (
    bernstein_vazirani_boolean,
    bernstein_vazirani_phase,
    grover_circuit,
    quantum_phase_estimation,
    ry_ansatz,
)
from repro.backends import FakeMelbourne
from repro.rpo import hoare_pass_manager, rpo_extended_pass_manager, rpo_pass_manager
from repro.transpiler import level_3_pass_manager
from repro.transpiler.passmanager import PropertySet

from tests.helpers import assert_same_distribution


@pytest.fixture(scope="module")
def melbourne():
    return FakeMelbourne()


def run(factory, circuit, backend, seed=0):
    pm = factory(backend, seed=seed)
    return pm.run(circuit.copy(), PropertySet())


def cx_of(circuit):
    return circuit.count_ops().get("cx", 0)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize(
        "factory", [rpo_pass_manager, rpo_extended_pass_manager, hoare_pass_manager]
    )
    def test_qpe_distribution_preserved(self, melbourne, factory):
        circuit = quantum_phase_estimation(3)
        out = run(factory, circuit, melbourne)
        assert_same_distribution(circuit, out)

    def test_bv_distribution_preserved(self, melbourne):
        circuit = bernstein_vazirani_boolean(4, 0b1011)
        out = run(rpo_pass_manager, circuit, melbourne)
        assert_same_distribution(circuit, out)

    def test_grover_distribution_preserved(self, melbourne):
        circuit = grover_circuit(3, marked=5, iterations=1)
        out = run(rpo_pass_manager, circuit, melbourne)
        assert_same_distribution(circuit, out)

    def test_grover_vchain_annotated_preserved(self, melbourne):
        circuit = grover_circuit(
            4, iterations=2, design="vchain", annotate=True
        )
        out = run(rpo_pass_manager, circuit, melbourne)
        assert_same_distribution(circuit, out)

    def test_extended_mode_preserved(self, melbourne):
        circuit = quantum_phase_estimation(4)
        out = run(rpo_extended_pass_manager, circuit, melbourne)
        assert_same_distribution(circuit, out)


class TestPaperShapes:
    def test_rpo_never_worse_than_level3(self, melbourne):
        """Paper Sec. VIII-B: RPO CNOT count <= level 3 for every circuit."""
        workloads = [
            quantum_phase_estimation(3),
            quantum_phase_estimation(5),
            ry_ansatz(4, depth=3, seed=11),
            grover_circuit(4, design="noancilla"),
        ]
        for circuit in workloads:
            for seed in range(3):
                baseline = cx_of(run(level_3_pass_manager, circuit, melbourne, seed))
                optimized = cx_of(run(rpo_pass_manager, circuit, melbourne, seed))
                assert optimized <= baseline

    def test_qpe_improves(self, melbourne):
        circuit = quantum_phase_estimation(5)
        baseline = cx_of(run(level_3_pass_manager, circuit, melbourne))
        optimized = cx_of(run(rpo_pass_manager, circuit, melbourne))
        assert optimized < baseline

    def test_bv_boolean_oracle_becomes_phase_oracle(self, melbourne):
        """Paper Sec. VIII-A / Fig. 10: QBO makes the boolean-oracle BV as
        cheap as the phase-oracle design (no CNOT gates at all)."""
        boolean = bernstein_vazirani_boolean(5, 0b10110)
        phase = bernstein_vazirani_phase(5, 0b10110)
        out_boolean = cx_of(run(rpo_pass_manager, boolean, melbourne))
        out_phase = cx_of(run(rpo_pass_manager, phase, melbourne))
        assert out_boolean == out_phase == 0

    def test_bv_not_optimized_by_level3(self, melbourne):
        boolean = bernstein_vazirani_boolean(5, 0b10110)
        assert cx_of(run(level_3_pass_manager, boolean, melbourne)) > 0

    def test_hoare_subset_of_rpo(self, melbourne):
        """Paper Sec. VIII-B: everything hoare captures, RPO captures."""
        for circuit in [
            quantum_phase_estimation(4),
            bernstein_vazirani_boolean(4, 0b1010),
        ]:
            hoare = cx_of(run(hoare_pass_manager, circuit, melbourne))
            rpo = cx_of(run(rpo_pass_manager, circuit, melbourne))
            assert rpo <= hoare

    def test_extended_at_least_as_good(self, melbourne):
        circuit = quantum_phase_estimation(5)
        faithful = cx_of(run(rpo_pass_manager, circuit, melbourne))
        extended = cx_of(run(rpo_extended_pass_manager, circuit, melbourne))
        assert extended <= faithful

    def test_annotations_help_grover(self, melbourne):
        """Paper Sec. VIII-C / Table III: annotations recover optimization
        opportunities across Grover iterations."""
        plain = grover_circuit(5, iterations=3, design="vchain", annotate=False)
        annotated = grover_circuit(5, iterations=3, design="vchain", annotate=True)
        cx_plain = cx_of(run(rpo_pass_manager, plain, melbourne))
        cx_annotated = cx_of(run(rpo_pass_manager, annotated, melbourne))
        assert cx_annotated <= cx_plain
