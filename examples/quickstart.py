#!/usr/bin/env python3
"""Quickstart: build a circuit, transpile it with and without RPO.

Demonstrates the core API surface:

* building circuits with :class:`repro.circuit.QuantumCircuit`;
* applying the paper's QBO pass directly;
* the public ``transpile()`` front-end -- one entry point for the preset
  levels, the RPO pipelines and the Hoare baseline, for single circuits
  and for batches;
* simulating the results to confirm they agree.

Transpile API
-------------

``repro.transpile`` accepts a single circuit or a batch::

    from repro import transpile

    compiled = transpile(circuit, target=backend, pipeline="rpo", seed=0)

    # a batch compiles in-process, one circuit after another, and shares
    # one AnalysisCache, so repeated workloads skip most matrix
    # constructions.  For a worker pool, pass service=CompileService(...).
    compiled_batch = transpile(
        [circuit_a, circuit_b, circuit_c],
        target=backend,
        pipeline="rpo",
        seed=[0, 1, 2],
    )

    # full_result=True returns TranspileResult objects carrying the
    # property set and structured per-pass metrics (time, gate/depth
    # delta, rewrites applied, fixed-point loop iterations)
    result = transpile(circuit, target=backend, pipeline="rpo",
                       full_result=True)
    print(result.metrics[0], result.loops)

    # aggregate_batch rolls a batch's metrics into one JSON-ready report
    # (benchmarks/check_regression.py gates CI on these)
    from repro.transpiler import AnalysisCache, aggregate_batch, write_metrics_json

    cache = AnalysisCache()
    results = transpile(
        [circuit_a, circuit_b, circuit_c],
        target=backend,
        pipeline="rpo",
        analysis_cache=cache,
        full_result=True,
    )
    report = aggregate_batch(results, cache=cache)
    write_metrics_json("metrics.json", report)

Targets and the compile service
-------------------------------

A ``Target`` names the hardware (basis + coupling + calibration) as one
hashable object, and a ``CompileService`` keeps a worker pool and its
caches warm across many batches -- the serving path::

    from repro import CompileService, Target

    with CompileService(pipeline="rpo", snapshot_path="results.snap") as svc:
        # one batch may mix targets; results carry their target
        results = svc.map(circuits, targets=[Target.preset("melbourne"),
                                             Target.preset("linear:8"), ...])
    # __exit__ persists the compiled-result cache; the next service run
    # (even in a fresh process) serves repeats of these jobs from
    # results.snap without compiling them
"""

from repro import transpile
from repro.circuit import QuantumCircuit
from repro.backends import FakeMelbourne
from repro.rpo import QBOPass
from repro.simulators import StatevectorSimulator
from repro.transpiler.passmanager import PropertySet


def main():
    # A toy circuit with statically known states: qubit 0 stays |0>, qubit 1
    # is put into |1>, qubit 2 into |+>.  RPO can prove all of this.
    circuit = QuantumCircuit(3, 3)
    circuit.x(1)
    circuit.h(2)
    circuit.cx(0, 2)      # control |0>  -> removable
    circuit.cx(1, 2)      # target |+>   -> removable
    circuit.swap(0, 1)    # both known   -> two 1q gates (Table VI)
    circuit.measure_all()

    print("original:")
    print(circuit.draw())

    qbo = QBOPass().run(circuit, PropertySet())
    print("\nafter QBO alone:", qbo.count_ops())

    backend = FakeMelbourne()

    # one front-end for every pipeline
    level3 = transpile(circuit.copy(), target=backend, optimization_level=3, seed=0)
    rpo_result = transpile(
        circuit.copy(), target=backend, pipeline="rpo", seed=0, full_result=True
    )
    rpo = rpo_result.circuit

    print(f"\nlevel 3: {level3.count_ops().get('cx', 0)} CNOTs, "
          f"depth {level3.depth()}")
    print(f"RPO    : {rpo.count_ops().get('cx', 0)} CNOTs, depth {rpo.depth()}")
    loop = rpo_result.loops[0]
    print(f"RPO fixed-point loop: {loop.iterations} iterations, "
          f"converged={loop.converged}")

    # batched transpile: the seeds compile in-process, one after another,
    # and share one AnalysisCache, so the repeats construct almost no new
    # matrices.
    from repro.transpiler import AnalysisCache, aggregate_batch

    cache = AnalysisCache()
    batch_results = transpile(
        [circuit.copy() for _ in range(3)],
        target=backend,
        pipeline="rpo",
        seed=[0, 1, 2],
        analysis_cache=cache,
        full_result=True,
    )
    print(
        "batched CNOT counts:",
        [r.circuit.count_ops().get("cx", 0) for r in batch_results],
    )

    # the per-pass metrics of the whole batch roll up into one JSON-ready
    # report -- the same shape the CI regression gate diffs
    report = aggregate_batch(batch_results, cache=cache, executor="serial")
    print(
        f"batch: {report['num_circuits']} circuits in "
        f"{report['time']['total'] * 1000:.1f}ms of compile time, "
        f"{report['cache']['stats'].get('synth_memo_hits', 0)} two-qubit "
        "syntheses answered by the analysis cache"
    )

    # the serving path: a CompileService keeps one pool (each worker with
    # a warm analysis cache) and one compiled-result cache across
    # submissions, and compiles for explicit Targets -- here the same
    # circuit lands on melbourne and on a 15-qubit line in one batch
    from repro import CompileService, Target

    with CompileService(pipeline="rpo") as service:
        hetero = service.map(
            [circuit.copy(), circuit.copy()],
            targets=[Target.from_backend(backend), Target.preset("linear:15")],
            seeds=[0, 0],
        )
        for result in hetero:
            target = result.properties["target"]
            print(
                f"{target.label:20s}: "
                f"{result.circuit.count_ops().get('cx', 0)} CNOTs, "
                f"depth {result.circuit.depth()}"
            )
        stats = service.stats()
        worker_stats = service.cache.stats
    print(
        f"service: {stats['completed']} jobs, "
        f"{stats['result_cache_hits']} result-cache hits, "
        f"{worker_stats['synth_attempts']} two-qubit syntheses in the workers, "
        f"{worker_stats['synth_memo_hits']} memo hits"
    )

    simulator = StatevectorSimulator(seed=1)
    print("\nlevel3 counts:", dict(simulator.run(level3, shots=1000)))
    print("RPO    counts:", dict(simulator.run(rpo, shots=1000)))


if __name__ == "__main__":
    main()
