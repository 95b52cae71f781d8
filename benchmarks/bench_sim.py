#!/usr/bin/env python3
"""Statevector simulation benchmark.

Measures wide-circuit statevector throughput on the quick QV/Grover
workload set: the fused evolve loop (one program of fused matrices per
circuit, gate matrices from the simulator's cache) vs the naive per-gate
loop (one ``operation.to_matrix()`` + matmul per instruction).
``check_regression.py --sim`` gates the speedup (default floor 2x) and the
largest amplitude difference between the two (1e-10).

Usage::

    python benchmarks/bench_sim.py --quick --metrics-json REPORT.json
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.algorithms import grover_circuit, quantum_volume_circuit
from repro.simulators import StatevectorSimulator
from repro.simulators.statevector import apply_gate_to_state
from repro.transpiler import write_metrics_json


def workloads(quick: bool):
    sizes = [8, 10, 12] if quick else [8, 10, 12, 14]
    for n in sizes:
        yield f"qv-{n}", quantum_volume_circuit(n, seed=5)
        yield f"grover-{n}", grover_circuit(n, design="noancilla")


def strip_measurements(circuit):
    stripped = circuit.copy_empty_like()
    for instruction in circuit.data:
        if instruction.operation.name in ("measure", "reset"):
            continue
        stripped.append(instruction.operation, instruction.qubits, instruction.clbits)
    return stripped


def best_of(repeats: int, func) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


# -- statevector throughput --------------------------------------------------


def naive_statevector(circuit) -> np.ndarray:
    """The seed path: one ``to_matrix()`` + host apply per instruction."""
    num_qubits = circuit.num_qubits
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    state *= np.exp(1j * circuit.global_phase)
    for instruction in circuit.data:
        operation = instruction.operation
        if operation.is_directive:
            continue
        state = apply_gate_to_state(
            state, operation.to_matrix(), instruction.qubits, num_qubits
        )
    return state


def bench_statevector(circuits, repeats: int) -> dict:
    resident = StatevectorSimulator()

    def naive():
        for circuit in circuits:
            naive_statevector(circuit)

    def fused():
        for circuit in circuits:
            resident.statevector(circuit)

    fused()  # warm the fused-program/matrix caches: steady-state serving
    naive_time = best_of(repeats, naive)
    resident_time = best_of(repeats, fused)
    max_error = max(
        float(np.max(np.abs(naive_statevector(c) - resident.statevector(c))))
        for c in circuits
    )
    return {
        "circuits": len(circuits),
        "gates": sum(len(circuit.data) for circuit in circuits),
        "naive_s": naive_time,
        "resident_s": resident_time,
        "speedup": naive_time / resident_time if resident_time > 0 else float("inf"),
        "max_error": max_error,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes (CI)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--metrics-json", metavar="PATH", help="write a report")
    args = parser.parse_args(argv)

    named = list(workloads(args.quick))
    sim_circuits = [strip_measurements(circuit) for _, circuit in named]
    statevector = bench_statevector(sim_circuits, args.repeats)

    report = {
        "workloads": [name for name, _ in named],
        "sim": {"statevector": statevector},
    }

    print(
        f"statevector: {statevector['gates']} gates, "
        f"naive {statevector['naive_s']:.4f}s, "
        f"fused {statevector['resident_s']:.4f}s, "
        f"{statevector['speedup']:.2f}x (err<={statevector['max_error']:.1e})"
    )

    if args.metrics_json:
        write_metrics_json(args.metrics_json, report)
        print(f"wrote {args.metrics_json}")


if __name__ == "__main__":
    main()
