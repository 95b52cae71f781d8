"""The stacked transpiler passes against their serial oracles.

``ConsolidateBlocks`` computes every block unitary in one stacked fold;
:class:`SerialConsolidateBlocks` accumulates each block one ``embed_gate``
+ matmul at a time, and the two are held to **bit-identical** output (the
fold reproduces the serial matmuls exactly, and the Weyl synthesis is
deterministic given identical block matrices).  ``Optimize1qGates`` merges
every run in one stacked fold and one stacked Euler extraction;
:func:`serial_optimize_1q` folds one matmul per gate and extracts each run
with the scalar routine, and the two are held to identical structure with
angles within ``1e-12`` (NumPy's array ``arctan2`` may round the last ulp
differently from libm's -- see the pass docstring).
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.matrix_utils import embed_gate
from repro.gates.matrices import standard_gate_matrix
from repro.linalg.euler import u3_params_from_unitary
from repro.transpiler.passes import ConsolidateBlocks, Optimize1qGates
from repro.transpiler.passmanager import PropertySet

from tests.helpers import assert_unitarily_equal
from tests.transpiler.forced_consolidate import Forced, ForcedConsolidateBlocks
from tests.transpiler.presplice_passes import fused_gate


class SerialConsolidateBlocks(ConsolidateBlocks):
    """``ConsolidateBlocks`` with each block's unitary accumulated serially,
    one ``embed_gate`` + matmul per gate (local wire 0 = ``pair[0]``)."""

    def _block_matrices(self, blocks):
        unitaries = {}
        for block in blocks:
            matrix = np.eye(4, dtype=complex)
            for instruction in block.instructions:
                local = block.local_wires(instruction)
                matrix = embed_gate(instruction.operation.matrix, local, 2) @ matrix
            unitaries[id(block)] = matrix
        return unitaries


def serial_optimize_1q(circuit: QuantumCircuit) -> QuantumCircuit:
    """One-matmul-per-gate fold of every 1q run, each run's scalar Euler
    extraction emitted where the run's last gate was."""
    data = circuit.data
    runs: dict[int, tuple[int, np.ndarray]] = {}  # qubit -> (last index, product)
    fused: dict[int, tuple[int, np.ndarray]] = {}  # last index -> (qubit, product)

    def close(qubit: int) -> None:
        run = runs.pop(qubit, None)
        if run is not None:
            fused[run[0]] = (qubit, run[1])

    for index, instruction in enumerate(data):
        operation = instruction.operation
        if operation.is_gate() and operation.num_qubits == 1 and not operation.is_directive:
            qubit = instruction.qubits[0]
            matrix = operation.matrix
            current = runs.get(qubit)
            runs[qubit] = (index, matrix if current is None else matrix @ current[1])
            continue
        for qubit in instruction.qubits:
            close(qubit)
    for qubit in sorted(runs):
        close(qubit)

    output = circuit.copy_empty_like()
    for index, instruction in enumerate(data):
        operation = instruction.operation
        if index in fused:
            qubit, matrix = fused[index]
            theta, phi, lam, gamma = u3_params_from_unitary(matrix)
            output.global_phase += gamma
            gate = fused_gate(theta, phi, lam)
            if gate is not None:
                output.append(gate, (qubit,))
        elif not (
            operation.is_gate() and operation.num_qubits == 1 and not operation.is_directive
        ):
            output.append(operation, instruction.qubits, instruction.clbits)
    return output


def random_circuit(
    seed: int, num_qubits: int = 4, depth: int = 40, measures: bool = True
) -> QuantumCircuit:
    """A random mix of 1q/2q gates with barriers and (optional) fences."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.30:
            circuit.u3(
                float(rng.uniform(0, np.pi)),
                float(rng.uniform(-np.pi, np.pi)),
                float(rng.uniform(-np.pi, np.pi)),
                int(rng.integers(num_qubits)),
            )
        elif roll < 0.45:
            gate = rng.choice(["h", "s", "t", "x", "z", "sx"])
            getattr(circuit, gate)(int(rng.integers(num_qubits)))
        elif roll < 0.55:
            circuit.rz(float(rng.uniform(-np.pi, np.pi)), int(rng.integers(num_qubits)))
        elif roll < 0.90:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            gate = rng.choice(["cx", "cz", "swap", "iswap"])
            getattr(circuit, gate)(a, b)
        elif roll < 0.95:
            circuit.barrier()
        elif measures:
            qubit = int(rng.integers(num_qubits))
            circuit.measure(qubit, qubit)
    return circuit


class ForcedSerialConsolidateBlocks(Forced, SerialConsolidateBlocks):
    pass


def consolidate_both(circuit, force: bool = False):
    batched = (ForcedConsolidateBlocks if force else ConsolidateBlocks)()
    serial = (ForcedSerialConsolidateBlocks if force else SerialConsolidateBlocks)()
    return batched.run(circuit, PropertySet()), serial.run(circuit, PropertySet())


def optimize_1q_both(circuit):
    return Optimize1qGates().run(circuit, PropertySet()), serial_optimize_1q(circuit)


def assert_bit_identical(a: QuantumCircuit, b: QuantumCircuit) -> None:
    assert a.global_phase == b.global_phase
    assert len(a.data) == len(b.data)
    for left, right in zip(a.data, b.data):
        assert left.operation.name == right.operation.name
        assert left.qubits == right.qubits
        assert left.clbits == right.clbits
        assert list(left.operation.params) == list(right.operation.params)


def assert_structure_and_angles(a: QuantumCircuit, b: QuantumCircuit) -> None:
    assert abs(a.global_phase - b.global_phase) < 1e-12
    assert len(a.data) == len(b.data)
    for left, right in zip(a.data, b.data):
        assert left.operation.name == right.operation.name
        assert left.qubits == right.qubits
        assert left.clbits == right.clbits
        assert np.allclose(
            list(left.operation.params), list(right.operation.params), atol=1e-12
        )


class TestConsolidateParity:
    @pytest.mark.parametrize("seed", range(25))
    def test_bit_identical_on_random_circuits(self, seed):
        circuit = random_circuit(seed)
        batched, serial = consolidate_both(circuit)
        assert_bit_identical(batched, serial)

    @pytest.mark.parametrize("seed", range(5))
    def test_forced_resynthesis_parity(self, seed):
        circuit = random_circuit(seed + 100, num_qubits=3, depth=30)
        batched, serial = consolidate_both(circuit, force=True)
        assert_bit_identical(batched, serial)

    def test_batched_preserves_semantics(self):
        circuit = random_circuit(7, measures=False)
        out = ConsolidateBlocks().run(circuit, PropertySet())
        assert_unitarily_equal(circuit, out)

    def test_empty_and_trivial_circuits(self):
        for circuit in (QuantumCircuit(2), QuantumCircuit(1)):
            batched, serial = consolidate_both(circuit)
            assert_bit_identical(batched, serial)
        single = QuantumCircuit(2)
        single.cx(0, 1)
        batched, serial = consolidate_both(single)
        assert_bit_identical(batched, serial)

    def test_table_gates_read_the_shared_table(self):
        circuit = QuantumCircuit(2)
        for _ in range(6):
            circuit.cx(0, 1)
            circuit.h(0)
        ConsolidateBlocks().run(circuit, PropertySet())
        # all 12 gate operands resolve to the 2 standard-table matrices:
        # no gate builds a matrix of its own
        for instruction in circuit.data:
            operation = instruction.operation
            assert operation.matrix is standard_gate_matrix(operation.name)


class TestOptimize1qParity:
    @pytest.mark.parametrize("seed", range(25))
    def test_structure_and_angles_on_random_circuits(self, seed):
        circuit = random_circuit(seed + 300)
        batched, serial = optimize_1q_both(circuit)
        assert_structure_and_angles(batched, serial)

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_preserves_semantics(self, seed):
        circuit = random_circuit(seed + 400, measures=False)
        out = Optimize1qGates().run(circuit, PropertySet())
        assert_unitarily_equal(circuit, out)

    def test_pure_1q_runs_collapse(self):
        circuit = QuantumCircuit(1)
        for _ in range(10):
            circuit.h(0)
            circuit.t(0)
        batched, serial = optimize_1q_both(circuit)
        assert len(batched.data) == 1
        assert_structure_and_angles(batched, serial)

    def test_empty_circuit(self):
        batched, serial = optimize_1q_both(QuantumCircuit(3))
        assert_bit_identical(batched, serial)

    def test_identity_run_disappears(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        circuit.x(0)
        out = Optimize1qGates().run(circuit, PropertySet())
        assert len(out.data) == 0
