#!/usr/bin/env python3
"""Batched-kernel shoot-out: stacked-operand reductions vs per-matrix loops.

Measures the numeric stages that PR'd batched kernels replaced, on blocks
and runs collected from the Table-II workloads:

* **consolidation** -- every two-qubit block unitary of the workload set,
  serial (``embed_gate`` + matmul per gate, one block at a time) vs
  batched (:func:`repro.linalg.batch.two_qubit_chain_unitaries` over all
  blocks at once).  This is the stage ``ConsolidateBlocks`` runs per
  transpilation and the one ``check_regression.py --kernels`` gates.
* **runs1q** -- all single-qubit run products + Euler extractions, serial
  vs batched (:func:`chain_products` + :func:`u3_params_batch`), the
  ``Optimize1qGates`` stage.

Simulator gate fusion has no lane here: the ``qsan-full`` workload of
``e2e_bench`` measures it end to end.

Usage::

    python benchmarks/bench_kernels.py --quick --metrics-json REPORT.json
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.algorithms import (
    grover_circuit,
    quantum_phase_estimation,
    quantum_volume_circuit,
    ry_ansatz,
)
from repro.circuit.matrix_utils import embed_gate
from repro.linalg.batch import chain_products, two_qubit_chain_unitaries, u3_params_batch
from repro.linalg.euler import u3_params_from_unitary
from repro.transpiler import write_metrics_json
from repro.transpiler.passes import ConsolidateBlocks


def workloads(quick: bool):
    sizes = [4, 6, 8] if quick else [4, 6, 8, 10, 12]
    for n in sizes:
        yield f"qpe-{n}", quantum_phase_estimation(n - 1)
        yield f"vqe-{n}", ry_ansatz(n, depth=3, seed=11)
        yield f"qv-{n}", quantum_volume_circuit(n, seed=5)
        yield f"grover-{n}", grover_circuit(n, design="noancilla")


def collect_blocks(circuits) -> list:
    """All two-qubit blocks the consolidation pass would accumulate."""
    collector = ConsolidateBlocks()
    blocks = []
    for circuit in circuits:
        for _, group in collector.collect(circuit):
            if not isinstance(group, list):  # a list holds one-qubit gates
                blocks.append(group)
    return blocks


def collect_1q_runs(circuits) -> list[list[np.ndarray]]:
    """Matrix chains of every single-qubit run, as Optimize1qGates sees them."""
    chains: list[list[np.ndarray]] = []
    for circuit in circuits:
        pending: dict[int, list[np.ndarray]] = {}
        for instruction in circuit.data:
            operation = instruction.operation
            if (
                operation.is_gate()
                and operation.num_qubits == 1
                and not operation.is_directive
            ):
                pending.setdefault(instruction.qubits[0], []).append(operation.matrix)
                continue
            for qubit in instruction.qubits:
                if qubit in pending:
                    chains.append(pending.pop(qubit))
        chains.extend(pending.values())
    return chains


def best_of(repeats: int, func) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_consolidation(blocks, repeats: int) -> dict:
    def serial():
        for block in blocks:
            matrix = np.eye(4, dtype=complex)
            for instruction in block.instructions:
                local = block.local_wires(instruction)
                matrix = embed_gate(instruction.operation.matrix, local, 2) @ matrix

    def batched():
        chains = []
        for block in blocks:
            chains.append(
                [
                    (instruction.operation.matrix, block.local_wires(instruction))
                    for instruction in block.instructions
                ]
            )
        two_qubit_chain_unitaries(chains)

    serial()  # memoize every gate matrix so both paths time pure numeric work
    serial_time = best_of(repeats, serial)
    batched_time = best_of(repeats, batched)
    return {
        "blocks": len(blocks),
        "gates": sum(len(block.instructions) for block in blocks),
        "serial_s": serial_time,
        "batched_s": batched_time,
        "speedup": serial_time / batched_time if batched_time > 0 else float("inf"),
    }


def bench_1q_runs(chains, repeats: int) -> dict:
    def serial():
        for chain in chains:
            matrix = np.eye(2, dtype=complex)
            for gate in chain:
                matrix = gate @ matrix
            u3_params_from_unitary(matrix)

    def batched():
        u3_params_batch(chain_products(chains, 2))

    serial_time = best_of(repeats, serial)
    batched_time = best_of(repeats, batched)
    return {
        "runs": len(chains),
        "gates": sum(len(chain) for chain in chains),
        "serial_s": serial_time,
        "batched_s": batched_time,
        "speedup": serial_time / batched_time if batched_time > 0 else float("inf"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes (CI)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--metrics-json", metavar="PATH", help="write a report")
    args = parser.parse_args(argv)

    named = list(workloads(args.quick))
    circuits = [circuit for _, circuit in named]

    blocks = collect_blocks(circuits)
    consolidation = bench_consolidation(blocks, args.repeats)
    chains = collect_1q_runs(circuits)
    runs1q = bench_1q_runs(chains, args.repeats)

    report = {
        "workloads": [name for name, _ in named],
        "kernels": {
            "consolidation": consolidation,
            "runs1q": runs1q,
        },
    }

    print(f"{'stage':<16} {'work':>14} {'serial':>10} {'batched':>10} {'speedup':>8}")
    for stage, entry in report["kernels"].items():
        work = entry.get("gates", entry.get("circuits"))
        print(
            f"{stage:<16} {work:>14} {entry['serial_s']:>9.4f}s "
            f"{entry['batched_s']:>9.4f}s {entry['speedup']:>7.2f}x"
        )

    if args.metrics_json:
        write_metrics_json(args.metrics_json, report)
        print(f"wrote {args.metrics_json}")


if __name__ == "__main__":
    main()
