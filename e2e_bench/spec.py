"""Fixed settings of the benchmark, and what each workload is for.

``python3 e2e_bench/run.py --describe`` prints this as JSON.
"""

from __future__ import annotations

#: farm-stream: requests per second of run time; fixes the stream length.
#: The stream is sent in a closed loop, one request at a time: an open loop
#: at 8-29 req/s spread its latencies by 0.25-0.4 of the median between
#: runs, because the pool worker and the load generator ran on CPUs whose
#: speeds moved independently.
FARM_REQUESTS_PER_S = 40

#: seconds the host-speed probe takes on the reference host.
#: Each compile's time is scaled by this over the probe time measured right
#: after it (see ``run.host_probe``).
REFERENCE_PROBE_S = 0.003

#: set-ups timed per run; ``setup_s`` is their median
SETUP_SAMPLES = 3

#: a seed kept out of tuning, for verifying claims
HELD_OUT_SEED = 9001

WORKLOADS = {
    "table2-cold": {
        "loop": "closed, 1 client, serial in-process transpile()",
        "inputs": "qpe/vqe/qv at 4,6,8 qubits and grover at 4,6, each under "
        "level3, hoare and rpo and routing seeds 0 and 1, on melbourne; the "
        "seed draws the vqe angles and the order; repeated in whole passes",
        "cache_at_start": "fresh AnalysisCache per compile, no result cache",
        "why": "the paper's Table II protocol; resynthesis, passes and "
        "trackers do nearly all the work while wire, cache and pool do none",
    },
    "farm-stream": {
        "loop": "closed, 1 client, 1 connection, python -m repro.server in "
        "process mode with nproc-1 workers, all pinned to one CPU",
        "inputs": "even pattern of 30% novel BV/QV/QPE jobs of 3-7 qubits in "
        "level3+rpo pairs, 45% exact repeats, 25% fresh-parameter ry_ansatz "
        "variants of 4 structures; melbourne",
        "cache_at_start": "empty result cache, warm pool",
        "why": "hits are wire, protocol and cache work, and cache writes "
        "happen beside reads; compile kernels do little",
    },
    "qsan-full": {
        "loop": "closed, 1 client, serial in-process transpile(validate='full')",
        "inputs": "qpe/qv at 4,6,8 qubits and vqe/grover at 4,6, under level3 "
        "and rpo and routing seeds 0 and 1, on melbourne; whole passes",
        "cache_at_start": "fresh AnalysisCache per compile, no result cache",
        "why": "the only path where repro.simulators and repro.analysis do "
        "most of the work",
    },
}

#: per-layer metric prefix -> the end-to-end metrics it should move, and on
#: which workloads
LAYER_MAP = {
    "linalg.*": "latency_ms_p50/p90 and throughput_per_s on table2-cold and "
    "qsan-full; miss.latency_ms_p50 only on farm-stream",
    "passes.*": "latency_ms_p50/p90 and throughput_per_s on table2-cold and "
    "qsan-full; miss.latency_ms_p50 only on farm-stream",
    "rpo.*": "latency_ms_p50, cx_total and rpo_cx_saving_pct on table2-cold",
    "frontend.overhead_ms": "latency_ms_p50 on table2-cold",
    "result_cache.*, hit.*, template.*": "hit/template latency on farm-stream; "
    "nothing on table2-cold",
    "client.*, protocol.*, serialization.*, server.*, wire.*": "hit and overall "
    "latency_ms_p50 on farm-stream",
    "service.*": "miss.latency_ms_p50 and latency_ms_p90 on farm-stream",
    "simulators.*, analysis.*": "latency on qsan-full only",
    "trace.overhead_pct": "none: traced minus untraced mean latency, as a share "
    "of the untraced mean",
}
