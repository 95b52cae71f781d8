#!/usr/bin/env python3
"""VQE for Max-Cut with the RY hardware-efficient ansatz (paper Sec. VII-B).

Runs the full variational loop on a small graph, then shows what RPO saves
when the optimized ansatz is compiled for a device.
"""

from repro import transpile
from repro.algorithms import ry_ansatz, vqe_maxcut
from repro.backends import FakeMelbourne


def main():
    # a 5-vertex ring plus one chord; max cut = 5
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]
    num_qubits = 5

    print("optimizing the ansatz parameters with COBYLA ...")
    best, parameters, bitstring = vqe_maxcut(
        edges, num_qubits, depth=2, seed=3, maxiter=150
    )
    print(f"best expected cut: {best:.3f}  (partition {bitstring})\n")

    ansatz = ry_ansatz(num_qubits, depth=2, parameters=parameters, measure=True)
    backend = FakeMelbourne()
    for pipeline in ("level3", "rpo"):
        compiled = transpile(ansatz.copy(), target=backend, pipeline=pipeline, seed=0)
        print(
            f"{pipeline:7s}: {compiled.count_ops().get('cx', 0):3d} CNOTs, "
            f"depth {compiled.depth()}"
        )

    # a parameter sweep is a natural serving workload: a CompileService
    # keeps one worker pool warm across the whole sweep (and across
    # sweeps -- VQE recompiles every iteration), and each worker's
    # analysis cache reuses what its earlier candidates computed
    from repro import CompileService

    with CompileService(pipeline="rpo", target=backend.target()) as service:
        sweep = [
            ry_ansatz(num_qubits, depth=2, seed=s, measure=True) for s in range(8)
        ]
        compiled_sweep = service.map(sweep, seeds=list(range(8)))
        worker_stats = service.cache.stats
    print(
        f"\nsweep: compiled {len(compiled_sweep)} candidate ansatzes through "
        f"the service ({worker_stats['synth_attempts']} two-qubit syntheses, "
        f"{worker_stats['synth_memo_hits']} memo hits)"
    )


if __name__ == "__main__":
    main()
