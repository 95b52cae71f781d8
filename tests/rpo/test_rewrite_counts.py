"""QBO and QPO phase 1 count one rewrite per input record they rewrite.

The count is read from the pass's splice edits: every visited record that
is not carried as itself -- removed, replaced, or turned into a phase --
counts once, whatever rule rewrote it.  QPO's phase 2 adds one per block it
replaces by a state preparation.
"""

import pytest

from repro.circuit import QuantumCircuit
from repro.rpo import QBOPass, QPOPass
from repro.transpiler import transpile
from repro.transpiler.cache import rewrite_counter
from repro.transpiler.passmanager import PropertySet

from tests.rpo.test_top_gates import TARGET, table2_jobs


def rewrites(pass_, circuit):
    props = PropertySet()
    out = pass_.run(circuit, props)
    return out, rewrite_counter(props)[pass_.name]


def names(circuit):
    return [instruction.operation.name for instruction in circuit.data]


def top(circuit, qubit):
    """Send ``qubit`` to TOP / unknown: a T after H leaves the six basis
    states, and a CNOT onto a spare wire entangles it."""
    circuit.h(qubit)
    circuit.t(qubit)
    circuit.cx(qubit, circuit.num_qubits - 1)


class TestQBO:
    def test_one_qubit_elimination(self):  # Eq. 7
        circuit = QuantumCircuit(1)
        circuit.z(0)
        out, count = rewrites(QBOPass(), circuit)
        assert names(out) == [] and count == 1

    def test_swap_with_both_states_known(self):  # Eq. 6
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.swap(0, 1)
        out, count = rewrites(QBOPass(), circuit)
        assert "swap" not in names(out) and count == 1

    def test_swap_with_one_state_known(self):  # Eqs. 4-5
        circuit = QuantumCircuit(3)
        circuit.x(0)
        top(circuit, 1)
        circuit.swap(0, 1)
        out, count = rewrites(QBOPass(), circuit)
        assert "swapz" in names(out) and "swap" not in names(out)
        assert count == 1

    def test_swapz_demotion(self):
        circuit = QuantumCircuit(3)
        top(circuit, 0)
        circuit.swapz(0, 1)
        out, count = rewrites(QBOPass(), circuit)
        assert names(out)[-2:] == ["cx", "cx"] and count == 1

    def test_dropped_control(self):  # Table I |1> rule
        circuit = QuantumCircuit(3)
        circuit.x(0)
        top(circuit, 1)
        circuit.cx(0, 1)
        out, count = rewrites(QBOPass(), circuit)
        assert names(out)[-1] == "x" and count == 1

    def test_gate_that_never_fires(self):  # Table I |0> rule
        circuit = QuantumCircuit(3)
        top(circuit, 1)
        circuit.cx(0, 1)
        out, count = rewrites(QBOPass(), circuit)
        assert names(out).count("cx") == 1 and count == 1

    def test_controlled_phase_emission(self):  # Table I |-> rule
        circuit = QuantumCircuit(3)
        top(circuit, 0)
        circuit.x(1)
        circuit.h(1)
        circuit.cx(0, 1)
        out, count = rewrites(QBOPass(), circuit)
        assert names(out)[-1] == "u1" and count == 1

    def test_general_eigenphase_emission(self):  # Sec. V-C, generalised
        circuit = QuantumCircuit(3)
        top(circuit, 0)
        circuit.x(1)
        circuit.cp(0.3, 0, 1)
        out, count = rewrites(QBOPass(general_eigenphase=True), circuit)
        assert names(out)[-1] == "u1" and count == 1
        out, count = rewrites(QBOPass(), circuit)  # no rule for 0.3 in the paper
        assert names(out)[-1] == "cp" and count == 0

    def test_untouched_records_count_nothing(self):
        circuit = QuantumCircuit(3, 1)
        top(circuit, 0)
        circuit.barrier()
        circuit.rz(0.2, 0)
        circuit.measure(0, 0)
        out, count = rewrites(QBOPass(), circuit)
        assert out is circuit and count == 0

    def test_one_count_per_record_not_per_cascade(self):
        # the Toffoli cascades through CX and Z before it vanishes
        circuit = QuantumCircuit(4)
        circuit.x(0)
        circuit.x(1)
        circuit.x(2)
        circuit.h(2)
        circuit.ccx(0, 1, 2)
        out, count = rewrites(QBOPass(), circuit)
        assert "ccx" not in names(out) and count == 1


class TestQPOPhaseOne:
    def test_pure_state_elimination(self):  # Eq. 7, pure states
        circuit = QuantumCircuit(1)
        circuit.u3(0.4, 0.3, 0.0, 0)
        circuit.u1(0.8, 0)
        circuit.rz(0.0, 0)
        _, count = rewrites(QPOPass(optimize_blocks=False), circuit)
        assert count == 1

    def test_swap_with_both_states_known(self):  # Eq. 6
        circuit = QuantumCircuit(2)
        circuit.u3(0.4, 0.3, 0.0, 0)
        circuit.swap(0, 1)
        out, count = rewrites(QPOPass(optimize_blocks=False), circuit)
        assert "swap" not in names(out) and count == 1

    def test_swap_with_one_state_known(self):  # Eq. 5
        circuit = QuantumCircuit(3)
        circuit.u3(0.4, 0.3, 0.0, 0)
        top(circuit, 1)
        circuit.swap(0, 1)
        out, count = rewrites(QPOPass(optimize_blocks=False), circuit)
        assert "swapz" in names(out) and count == 1

    def test_swap_on_unknown_wires_is_kept(self):
        circuit = QuantumCircuit(3)
        top(circuit, 0)
        top(circuit, 1)
        circuit.swap(0, 1)
        out, count = rewrites(QPOPass(optimize_blocks=False), circuit)
        assert out is circuit and count == 0

    @pytest.mark.parametrize(
        "prep, gate, left",
        [
            ([], "cx", []),  # |0> control: never fires
            (["x"], "cx", ["x"]),  # |1> control: X on the target
            (["x"], "cz", ["z"]),  # |1> on either wire: Z on the other
        ],
    )
    def test_basis_classified_cx_and_cz(self, prep, gate, left):  # Sec. V-B
        circuit = QuantumCircuit(3)
        top(circuit, 1)
        for name in prep:
            getattr(circuit, name)(0)
        getattr(circuit, gate)(0, 1)
        out, count = rewrites(QPOPass(optimize_blocks=False), circuit)
        assert names(out)[3 + len(prep) :] == left and count == 1

    def test_phase_two_counts_each_replaced_block(self):
        circuit = QuantumCircuit(2)
        circuit.u3(0.4, 0.3, 0.0, 0)
        circuit.cx(0, 1)
        circuit.u3(1.1, 0.2, 0.0, 1)
        circuit.cx(1, 0)
        circuit.cx(0, 1)
        _, blocks_off = rewrites(QPOPass(optimize_blocks=False), circuit)
        out, count = rewrites(QPOPass(), circuit)
        assert out.num_nonlocal_gates() <= 1
        assert count == blocks_off + 1


def test_seed_one_rpo_qbo_runs_count_their_rewrites():
    """Seed-1 Table II rpo compiles: QBO's routed SWAPs, SWAPZ demotions
    and cp rewrites now show up in the per-pass metrics."""
    counts = {"QBO": [], "QPO": []}
    for job in table2_jobs(1):
        if job.pipeline != "rpo":
            continue
        result = transpile(
            job.circuit.copy(), target=TARGET, pipeline="rpo", seed=job.seed, full_result=True
        )
        for metric in result.metrics:
            if metric.name in counts:
                counts[metric.name].append(metric.rewrites)
    assert len(counts["QBO"]) == 44 and len(counts["QPO"]) == 22
    assert any(counts["QBO"]) and any(counts["QPO"])
