"""Tests for the standard transpiler passes."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.rpo.qpo import QPOPass
from repro.transpiler.cache import rewrite_counter
from repro.transpiler.passmanager import PropertySet
from repro.transpiler.passes import (
    CommutativeCancellation,
    ConsolidateBlocks,
    CXCancellation,
    Optimize1qGates,
    RemoveAnnotations,
    RemoveBarriers,
    RemoveDiagonalGatesBeforeMeasure,
    Unroller,
)
from repro.transpiler.target import Target

from tests.helpers import assert_unitarily_equal, exact_form


def run_pass(pass_, circuit):
    return pass_.run(circuit, PropertySet())


class TestUnroller:
    def test_lowers_to_basis(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.ccx(0, 1, 2)
        circuit.swap(0, 2)
        out = run_pass(Unroller(), circuit)
        assert set(out.count_ops()) <= {"u1", "u2", "u3", "id", "cx"}

    def test_preserves_unitary(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.ccx(0, 1, 2)
        circuit.cswap(0, 1, 2)
        circuit.rz(0.3, 1)
        circuit.swap(1, 2)
        out = run_pass(Unroller(), circuit)
        assert_unitarily_equal(circuit, out)

    def test_keeps_requested_gates(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        circuit.swapz(0, 1)
        out = run_pass(Unroller(("u1", "u2", "u3", "cx", "swap", "swapz")), circuit)
        assert out.count_ops() == {"swap": 1, "swapz": 1}

    def test_mcu1_gray_code(self):
        circuit = QuantumCircuit(4)
        from repro.gates import MCU1Gate

        circuit.append(MCU1Gate(0.7, 3), (0, 1, 2, 3))
        out = run_pass(Unroller(), circuit)
        assert set(out.count_ops()) <= {"u1", "u2", "u3", "cx"}
        assert_unitarily_equal(circuit, out)

    def test_unitary_gate_synthesis(self):
        from repro.gates import UnitaryGate
        from repro.linalg.random import random_unitary

        circuit = QuantumCircuit(2)
        circuit.append(UnitaryGate(random_unitary(4, 0)), (0, 1))
        out = run_pass(Unroller(), circuit)
        assert set(out.count_ops()) <= {"u1", "u2", "u3", "cx"}
        assert_unitarily_equal(circuit, out)

    def test_measure_and_directives_pass_through(self):
        circuit = QuantumCircuit(1, 1)
        circuit.annotate_zero(0)
        circuit.barrier()
        circuit.measure(0, 0)
        out = run_pass(Unroller(), circuit)
        assert out.count_ops() == {"annot": 1, "barrier": 1, "measure": 1}


class TestOptimize1q:
    def test_merges_run(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.t(0)
        circuit.h(0)
        circuit.s(0)
        out = run_pass(Optimize1qGates(), circuit)
        assert out.size() == 1
        assert_unitarily_equal(circuit, out)

    def test_cancels_to_identity(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.h(0)
        out = run_pass(Optimize1qGates(), circuit)
        assert out.size() == 0

    def test_diagonal_becomes_u1(self):
        circuit = QuantumCircuit(1)
        circuit.t(0)
        circuit.s(0)
        out = run_pass(Optimize1qGates(), circuit)
        assert out.count_ops() == {"u1": 1}
        assert_unitarily_equal(circuit, out)

    def test_pi_half_becomes_u2(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        out = run_pass(Optimize1qGates(), circuit)
        assert out.count_ops() == {"u2": 1}

    def test_cx_fences_runs(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.h(0)
        out = run_pass(Optimize1qGates(), circuit)
        assert out.count_ops()["u2"] == 2
        assert_unitarily_equal(circuit, out)

    def test_annotation_fences_runs(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.annotate(0, 1.0, 0.5)
        circuit.h(0)
        out = run_pass(Optimize1qGates(), circuit)
        assert out.count_ops()["u2"] == 2

    def test_phase_tracked(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.8, 0)
        circuit.rx(0.2, 0)
        out = run_pass(Optimize1qGates(), circuit)
        assert_unitarily_equal(circuit, out)


class TestCancellation:
    def test_cx_pair_cancels(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        out = run_pass(CXCancellation(), circuit)
        assert out.size() == 0

    def test_different_direction_kept(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        out = run_pass(CXCancellation(), circuit)
        assert out.count_ops()["cx"] == 2

    def test_interposed_gate_blocks(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.h(1)
        circuit.cx(0, 1)
        out = run_pass(CXCancellation(), circuit)
        assert out.count_ops()["cx"] == 2

    def test_cz_symmetric_cancel(self):
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        circuit.cz(1, 0)
        out = run_pass(CXCancellation(), circuit)
        assert out.size() == 0

    def test_swap_pair_cancels(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        circuit.swap(1, 0)
        out = run_pass(CXCancellation(), circuit)
        assert out.size() == 0

    def test_commutative_through_control(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.u1(0.3, 0)  # diagonal on control commutes
        circuit.cx(0, 1)
        out = run_pass(CommutativeCancellation(), circuit)
        assert out.count_ops().get("cx", 0) == 0
        assert_unitarily_equal(circuit, out)

    def test_commutative_through_shared_target(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        circuit.cx(1, 2)  # shares target: commutes
        circuit.cx(0, 2)
        out = run_pass(CommutativeCancellation(), circuit)
        assert out.count_ops()["cx"] == 1
        assert_unitarily_equal(circuit, out)

    def test_commutative_blocked_by_h(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.h(0)
        circuit.cx(0, 1)
        out = run_pass(CommutativeCancellation(), circuit)
        assert out.count_ops()["cx"] == 2


class TestNoOpPassesReturnTheirInput:
    """A pass that rewrites nothing returns its input object, so the pass
    manager's structural check short-circuits on ``is``; one that rewrites
    returns a new circuit and leaves its input alone.  The cancellation
    passes also count their rewrites."""

    @staticmethod
    def nothing_to_cancel() -> QuantumCircuit:
        circuit = QuantumCircuit(3, 1)
        circuit.cx(0, 1)
        circuit.h(1)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.barrier()
        circuit.swap(1, 2)
        circuit.measure(2, 0)
        return circuit

    @pytest.mark.parametrize("pass_type", [CXCancellation, CommutativeCancellation])
    def test_no_rewrite_returns_the_input(self, pass_type):
        circuit = self.nothing_to_cancel()
        props = PropertySet()
        out = pass_type().run(circuit, props)
        assert out is circuit
        assert pass_type.__name__ not in props.get("rewrite_counts", {})

    @pytest.mark.parametrize("pass_type", [CXCancellation, CommutativeCancellation])
    def test_a_rewrite_returns_a_new_circuit(self, pass_type):
        circuit = self.nothing_to_cancel()
        circuit.cx(0, 2)
        circuit.cx(0, 2)
        before = list(circuit.data)
        props = PropertySet()
        out = pass_type().run(circuit, props)
        assert out is not circuit
        assert circuit.data == before
        assert out.size() == circuit.size() - 2
        assert props["rewrite_counts"][pass_type.__name__] == 1

    @staticmethod
    def in_ibm_basis(barrier: bool = True) -> QuantumCircuit:
        """Basis gates, measures and a barrier: nothing any cleanup pass
        but ``RemoveBarriers`` removes, and nothing the IBM-basis
        ``Unroller`` expands (the ``u1`` is not directly before a
        measure)."""
        circuit = QuantumCircuit(2, 2)
        circuit.u3(0.1, 0.2, 0.3, 0)
        circuit.u1(0.4, 1)
        circuit.cx(0, 1)
        circuit.u2(0.5, 0.6, 1)
        if barrier:
            circuit.barrier(0)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        return circuit

    #: the Unroller and the cleanup passes: (pass, work for it to do,
    #: appended to ``in_ibm_basis``)
    CLEANUPS = {
        "Unroller": (Unroller, lambda circuit: circuit.h(1)),
        "RemoveAnnotations": (
            RemoveAnnotations,
            lambda circuit: circuit.annotate(1, 0.3, 0.2),
        ),
        "RemoveBarriers": (RemoveBarriers, lambda circuit: circuit.barrier()),
        "RemoveDiagonalGatesBeforeMeasure": (
            RemoveDiagonalGatesBeforeMeasure,
            lambda circuit: (circuit.t(0), circuit.measure(0, 1)),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CLEANUPS))
    def test_cleanup_with_nothing_to_do_returns_the_input(self, name):
        pass_type, _ = self.CLEANUPS[name]
        circuit = self.in_ibm_basis(barrier=pass_type is not RemoveBarriers)
        assert pass_type().run(circuit, PropertySet()) is circuit

    @pytest.mark.parametrize("name", sorted(CLEANUPS))
    def test_cleanup_with_work_returns_a_new_circuit(self, name):
        pass_type, add_work = self.CLEANUPS[name]
        circuit = self.in_ibm_basis()
        add_work(circuit)
        before = exact_form(circuit)
        out = pass_type().run(circuit, PropertySet())
        assert out is not circuit
        assert exact_form(circuit) == before
        assert out.size() <= circuit.size()
        assert exact_form(out) != before

    @staticmethod
    def unimprovable_blocks() -> QuantumCircuit:
        """A one-qubit gate no block holds, a 2-CNOT tie no larger than
        its proven bound and a one-CNOT block: ``ConsolidateBlocks``
        keeps no rewrite."""
        circuit = QuantumCircuit(3, 1)
        circuit.h(2)
        circuit.cx(0, 1)
        circuit.u1(0.3, 1)
        circuit.cx(0, 1)
        circuit.u1(0.3, 1)
        circuit.cx(1, 2)
        circuit.measure(2, 0)
        return circuit

    @staticmethod
    def fused() -> QuantumCircuit:
        """``in_ibm_basis`` after one ``Optimize1qGates`` run: every run is
        one gate that round-trips."""
        return Optimize1qGates().run(
            TestNoOpPassesReturnTheirInput.in_ibm_basis(), PropertySet()
        )

    @staticmethod
    def entangled() -> QuantumCircuit:
        """No QPO rule fires: the first CNOT leaves both its wires unknown
        before any other gate reads them, and no block of two or more
        CNOTs starts from known states."""
        circuit = QuantumCircuit(4)
        circuit.h(2)
        circuit.cx(2, 0)
        circuit.cx(0, 1)
        circuit.h(1)
        circuit.cx(1, 0)
        circuit.t(0)
        circuit.cx(0, 1)
        return circuit

    #: the passes that keep most records: (pass, input with nothing to
    #: rewrite, work for it to do, appended to that input)
    REWRITERS = {
        "ConsolidateBlocks": (
            ConsolidateBlocks,
            unimprovable_blocks,
            lambda circuit: [circuit.cx(0, 1) for _ in range(3)],
        ),
        "Optimize1qGates": (
            Optimize1qGates,
            fused,
            lambda circuit: (circuit.h(0), circuit.h(0)),
        ),
        # qubit 3 is still |0>: the CNOT it controls is dropped
        "QPO": (QPOPass, entangled, lambda circuit: circuit.cx(3, 1)),
    }

    @pytest.mark.parametrize("name", sorted(REWRITERS))
    def test_rewriter_with_nothing_to_do_returns_the_input(self, name):
        pass_type, build, _ = self.REWRITERS[name]
        circuit = build()
        props = PropertySet()
        assert pass_type().run(circuit, props) is circuit
        assert sum(rewrite_counter(props).values()) == 0

    @pytest.mark.parametrize("name", sorted(REWRITERS))
    def test_rewriter_with_work_returns_a_new_circuit(self, name):
        pass_type, build, add_work = self.REWRITERS[name]
        circuit = build()
        add_work(circuit)
        before = exact_form(circuit)
        props = PropertySet()
        out = pass_type().run(circuit, props)
        assert out is not circuit
        assert exact_form(circuit) == before
        assert exact_form(out) != before
        assert sum(rewrite_counter(props).values()) == 1

    def test_pipeline_metrics_of_a_no_op_pass(self):
        from repro.transpiler.passmanager import PassManager

        circuit = self.nothing_to_cancel()
        result = PassManager([CXCancellation()]).run_with_result(circuit)
        assert result.circuit is circuit
        [metrics] = result.metrics
        assert (metrics.size_before, metrics.size_after) == (circuit.size(),) * 2
        assert (metrics.depth_before, metrics.depth_after) == (circuit.depth(),) * 2
        assert metrics.rewrites == 0

    @pytest.mark.parametrize(
        "options",
        [
            {"pipeline": "level3", "target": "melbourne"},
            {"pipeline": "rpo", "target": "melbourne"},
            {"pipeline": "hoare", "target": "melbourne"},
            {"optimization_level": 0},
            {"optimization_level": 1},
            {"optimization_level": 3, "target": Target.full(3, basis=("u3", "cx"))},
        ],
        ids=["level3", "rpo", "hoare", "o0", "o1", "o3-basis"],
    )
    def test_transpile_never_returns_the_callers_circuit(self, options):
        from repro.transpiler import transpile

        empty = QuantumCircuit(2)
        in_basis = QuantumCircuit(2)
        in_basis.u3(0.1, 0.2, 0.3, 0)
        in_basis.cx(0, 1)
        for circuit in (empty, in_basis, self.nothing_to_cancel()):
            assert transpile(circuit, **options) is not circuit

    @pytest.mark.parametrize(
        "options",
        [
            {"pipeline": "level3", "target": "melbourne"},
            {"pipeline": "rpo", "target": "melbourne"},
            {"pipeline": "hoare", "target": "melbourne"},
            {"optimization_level": 0},
            {"optimization_level": 1},
            {"optimization_level": 3},
        ],
        ids=["level3", "rpo", "hoare", "o0", "o1", "o3"],
    )
    def test_transpile_leaves_the_callers_circuit_unchanged(self, options):
        """An input already in the basis passes through the first
        ``Unroller`` as the very same object; no later pass may change it
        in place."""
        from repro.transpiler import transpile

        circuit = self.in_ibm_basis()
        circuit.cx(1, 0)
        circuit.u1(0.7, 0)
        circuit.cx(1, 0)
        circuit.global_phase = 0.25
        assert Unroller().run(circuit, PropertySet()) is circuit
        before = exact_form(circuit)
        data = list(circuit.data)
        out = transpile(circuit, **options)
        assert out is not circuit
        assert circuit.data == data
        assert exact_form(circuit) == before


class TestConsolidate:
    def test_merges_cx_ladder(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.rz(0.3, 1)
        circuit.cx(0, 1)
        circuit.rx(0.2, 0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        out = run_pass(ConsolidateBlocks(), circuit)
        assert out.count_ops().get("cx", 0) <= 2
        assert_unitarily_equal(circuit, out)

    def test_swap_cx_block_melts(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        circuit.cx(0, 1)
        out = run_pass(ConsolidateBlocks(), circuit)
        # swap+cx is a 2-CNOT class block
        total = sum(
            {"cx": 1, "swap": 3, "swapz": 2}.get(name, 0) * count
            for name, count in out.count_ops().items()
        )
        assert total <= 2
        assert_unitarily_equal(circuit, out)

    def test_keeps_unprofitable_blocks(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        out = run_pass(ConsolidateBlocks(), circuit)
        assert out.count_ops() == {"cx": 1}

    def test_measure_fences_block(self):
        circuit = QuantumCircuit(2, 1)
        circuit.cx(0, 1)
        circuit.measure(1, 0)
        circuit.cx(0, 1)
        out = run_pass(ConsolidateBlocks(), circuit)
        assert out.count_ops()["cx"] == 2

    def test_preserves_unitary_random(self):
        from tests.helpers import random_circuit

        for seed in range(5):
            circuit = random_circuit(3, 25, seed=seed, gate_set="simple")
            out = run_pass(ConsolidateBlocks(), circuit)
            assert_unitarily_equal(circuit, out)


class TestRemoveDiagonal:
    def test_removes_before_measure(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.t(0)
        circuit.rz(0.3, 0)
        circuit.measure(0, 0)
        out = run_pass(RemoveDiagonalGatesBeforeMeasure(), circuit)
        assert out.count_ops() == {"h": 1, "measure": 1}

    def test_keeps_non_diagonal(self):
        circuit = QuantumCircuit(1, 1)
        circuit.t(0)
        circuit.h(0)
        circuit.measure(0, 0)
        out = run_pass(RemoveDiagonalGatesBeforeMeasure(), circuit)
        assert out.count_ops() == {"t": 1, "h": 1, "measure": 1}

    @staticmethod
    def rescanning_oracle(circuit: QuantumCircuit) -> list:
        """The pass as it was: each measure finds its own place on its wire
        with ``list.index``, rescanning the wire.  Returns the surviving
        records."""
        survivors = list(circuit.data)
        chains: dict[int, list[int]] = {}
        for index, instruction in enumerate(survivors):
            for qubit in instruction.qubits:
                chains.setdefault(qubit, []).append(index)
        for index, instruction in enumerate(survivors):
            if instruction is None or instruction.operation.name != "measure":
                continue
            chain = chains[instruction.qubits[0]]
            walk = chain.index(index) - 1
            while walk >= 0:
                earlier = survivors[chain[walk]]
                if earlier is None:
                    walk -= 1
                    continue
                diagonal = {"u1", "z", "s", "sdg", "t", "tdg", "rz"}
                if earlier.operation.name in diagonal and len(earlier.qubits) == 1:
                    survivors[chain[walk]] = None
                    walk -= 1
                    continue
                break
        return [instruction for instruction in survivors if instruction is not None]

    @pytest.mark.parametrize("seed", range(3))
    def test_many_mid_circuit_measures_on_one_wire(self, seed):
        """600 measures on wire 0, each after a random mix of diagonal,
        non-diagonal and two-qubit gates: the same survivors as the
        rescanning oracle."""
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(3, 2)
        for _ in range(600):
            for _ in range(int(rng.integers(0, 4))):
                roll = int(rng.integers(6))
                if roll == 0:
                    circuit.t(0)
                elif roll == 1:
                    circuit.rz(float(rng.uniform(-1, 1)), 0)
                elif roll == 2:
                    circuit.u1(float(rng.uniform(-1, 1)), int(rng.integers(3)))
                elif roll == 3:
                    circuit.h(0)
                elif roll == 4:
                    circuit.cx(0, int(rng.integers(1, 3)))
                else:
                    circuit.s(int(rng.integers(3)))
            circuit.measure(0, int(rng.integers(2)))
        circuit.measure(1, 1)
        out = run_pass(RemoveDiagonalGatesBeforeMeasure(), circuit)
        expected = self.rescanning_oracle(circuit)
        assert out.data == expected
        assert len(expected) < len(circuit.data)
        assert out.count_ops()["measure"] == 601
