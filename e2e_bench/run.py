"""End-to-end benchmark of the compile stack.

Usage (from the repository root)::

    python3 e2e_bench/run.py --workload table2-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``spec.py`` or ``--describe``):

* ``table2-cold`` -- the paper's Table II protocol, closed loop, serial;
* ``farm-stream`` -- a request mix sent one at a time to ``python -m
  repro.server`` over loopback;
* ``qsan-full`` -- Table II compiles under ``validate="full"``.

The host's own speed swings by up to 1.7x between runs (other tenants),
so every compile, request and set-up is paired with a few milliseconds of
a fixed host-speed probe run right after it, and times are reported
scaled to a reference host on which the probe takes
``REFERENCE_PROBE_S``: ``wall time x REFERENCE_PROBE_S / probe time``.
Across runs the scaled compile times spread about 5x less than the raw
ones.

With ``--trace 0`` the run measures the end-to-end metrics with nothing
traced.  With ``--trace 1`` it runs the workload for half the time
untraced, then traces the stack from outside (``tracing.py``) for the
other half and reports the per-layer metrics (``layers.py``), including
the tracing overhead.  Every returned circuit is checked against its
input by simulation, outside the timed region.  The last line printed is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import queue
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout for spans and count records
OUT = os.path.join(ROOT, ".e2e_bench")

now = time.perf_counter

WORKLOAD_NAMES = ("table2-cold", "farm-stream", "qsan-full")

#: ``(name, unit)`` of every end-to-end metric
END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("miss.latency_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("cx_total", "count"),
    ("depth_total", "count"),
    ("rpo_cx_saving_pct", "%"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def source_digest() -> str:
    """Digest of the program and benchmark sources: one per commit."""
    digest = hashlib.sha1()
    files = glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
    files += glob.glob(os.path.join(HERE, "*.py"))
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_repeatable(key: str, record: dict) -> None:
    """Fail loudly when counts differ from an earlier run of the same
    sources, workload, seed and input count."""
    path = os.path.join(OUT, "counts", f"{key}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        if earlier != record:
            raise BenchmarkError(
                f"counts differ from an earlier run of the same code ({key}): "
                f"earlier {earlier}, now {record}"
            )
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True)
    os.replace(tmp, path)


def cx_and_depth(circuit) -> tuple[int, int]:
    return circuit.count_ops().get("cx", 0), circuit.depth()


def cx_saving_pct(cx_by_label: dict) -> float:
    """RPO CNOTs against level3 over the circuits compiled by both."""
    level3 = rpo = 0
    for label, cx in cx_by_label.items():
        base, _, pipeline = label.rpartition("/")
        if pipeline == "rpo" and f"{base}/level3" in cx_by_label:
            rpo += cx
            level3 += cx_by_label[f"{base}/level3"]
    return 100.0 * (1.0 - rpo / level3) if level3 else 0.0


def peak_rss_mb(pids=()) -> float:
    """Peak RSS of this process plus the given processes."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def child_pids(pid: int) -> list[int]:
    children = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.split("/")[2]))
    return children


def host_probe() -> float:
    """Seconds a fixed mix of interpreter work and small NumPy products
    takes now: the host-speed reference for the compile just before."""
    import numpy as np

    base = np.arange(64.0).reshape(8, 8) / 64.0
    start = now()
    total = 0
    for step in range(20000):
        total += step % 7
        if step % 100 == 0:
            base @ base.T
    return now() - start


class Outcome:
    """What a measured phase produced, before checking."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        #: per-latency factor to the reference host speed (1 = raw)
        self.scales: list[float] = []
        self.kinds: list[str] = []
        #: seconds the phase's throughput is taken over
        self.elapsed = 0.0
        self.passes = 1
        self.peak_rss_mb = 0.0
        #: (job, result) pairs to check and total up, one per input
        self.results: list = []

    def scaled(self) -> list[float]:
        return [latency * scale for latency, scale in zip(self.latencies, self.scales)]

    def latencies_by_kind(self) -> dict:
        grouped: dict[str, list] = {}
        for kind, latency in zip(self.kinds, self.scaled()):
            grouped.setdefault(kind, []).append(latency)
        return grouped


# -- closed loop: table2-cold and qsan-full ---------------------------------------


def closed_loop(jobs, seconds: float, validate: str, recorder=None) -> Outcome:
    """Compile ``jobs`` in whole passes, one at a time, until the next pass
    would end after ``seconds``.  Each compile is cold: a fresh
    AnalysisCache and no result cache.  The first pass's results are kept
    for checking; later passes must reproduce their CNOT counts and depths.
    """
    import repro.transpiler.frontend as frontend
    from repro.transpiler import AnalysisCache
    from spec import REFERENCE_PROBE_S

    from workloads import TARGET

    outcome = Outcome()
    outcome.passes = 0
    first: list = []
    shapes: list = []
    elapsed = pass_time = 0.0
    while outcome.passes == 0 or elapsed + pass_time <= seconds:
        inputs = [job.circuit.copy() for job in jobs]
        # a clean heap per pass: what earlier passes left must not slow
        # this one's garbage collections
        gc.collect()
        pass_time = 0.0
        for index, (job, circuit) in enumerate(zip(jobs, inputs)):
            if recorder is not None:
                recorder.set_request(f"{outcome.passes}:{index}")
            cache = AnalysisCache()
            start = now()
            try:
                result = frontend.transpile(
                    circuit,
                    target=TARGET,
                    pipeline=job.pipeline,
                    seed=job.seed,
                    executor="serial",
                    analysis_cache=cache,
                    full_result=True,
                    validate=validate,
                )
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                result = exc
            latency = now() - start
            scale = REFERENCE_PROBE_S / host_probe()
            pass_time += latency
            outcome.latencies.append(latency)
            outcome.scales.append(scale)
            if isinstance(result, Exception):
                outcome.kinds.append("error")
                shape = None
                if outcome.passes:
                    outcome.failures.append(
                        f"{job.label}: {type(result).__name__}: {result}"
                    )
            else:
                outcome.kinds.append("miss")
                result.properties.pop(AnalysisCache.PROPERTY_KEY, None)
                shape = cx_and_depth(result.circuit)
            if not outcome.passes:
                first.append(result)
                shapes.append(shape)
            elif shape is not None and shapes[index] is not None and shape != shapes[index]:
                raise BenchmarkError(f"{job.label}: output differs between passes")
        elapsed += pass_time
        outcome.passes += 1
        outcome.attempted += len(jobs)
    # the client is busy exactly while it compiles
    outcome.elapsed = sum(outcome.scaled())
    outcome.peak_rss_mb = peak_rss_mb()
    outcome.results = list(zip(jobs, first))
    return outcome


def warm_up(validate: str) -> None:
    """Small compiles through every pipeline, so lazy imports and
    process-wide tables are set up before anything is timed."""
    import repro.transpiler.frontend as frontend
    from repro.algorithms import quantum_phase_estimation, quantum_volume_circuit

    from workloads import TARGET

    for circuit in (quantum_phase_estimation(3), quantum_volume_circuit(4, seed=0)):
        for pipeline in ("level3", "hoare", "rpo"):
            frontend.transpile(
                circuit, target=TARGET, pipeline=pipeline, executor="serial",
                validate=validate,
            )


# -- request loop: farm-stream ----------------------------------------------------


class Server:
    """``python -m repro.server`` started through ``launcher.py``."""

    def __init__(self, trace_dir: str | None = None):
        command = [sys.executable, os.path.join(HERE, "launcher.py")]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        command += ["--", "--port", "0", "--mode", "process", "--target", "melbourne"]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env
        )
        # a reader thread hands over stdout lines and keeps draining the
        # pipe afterwards, so the server never blocks on a full pipe
        lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._read, args=(lines,), daemon=True).start()
        self.endpoint = None
        ready = False
        deadline = time.monotonic() + 60.0
        while not ready:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                break
            if line is None:
                break
            if "listening on " in line:
                self.endpoint = line.split("listening on ", 1)[1].split()[0]
            ready = line.strip() == "ready"
        if not ready or self.endpoint is None:
            self.stop()
            raise BenchmarkError("compile server did not start")

    def _read(self, lines: queue.Queue) -> None:
        with self.process.stdout:
            for line in self.process.stdout:
                lines.put(line)
        lines.put(None)

    def pids(self) -> list[int]:
        return [self.process.pid, *child_pids(self.process.pid)]

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def pin_to_one_cpu() -> None:
    """Run this process, and the server and workers it starts, on one CPU.

    The farm's compile runs in a pool worker, so a host-speed probe in the
    load generator only measures the CPU the compile used when they share
    it.  In a closed loop with one request in flight they run in turn, so
    sharing costs little.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def request_loop(requests, server: Server) -> Outcome:
    """Send ``requests`` one at a time, each once the previous reply is in,
    and pair each with the host-speed probe run right after it."""
    from repro.server import RemoteCompileService
    from spec import REFERENCE_PROBE_S

    from workloads import TARGET

    outcome = Outcome()
    outcome.attempted = len(requests)
    client = RemoteCompileService(server.endpoint, max_connections=1, timeout=120)
    try:
        for request in requests:
            job = request.job
            start = now()
            try:
                result = client.submit(
                    job.circuit,
                    target=TARGET,
                    pipeline=job.pipeline,
                    seed=job.seed,
                    validate="off",
                ).result(timeout=120)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                result = exc
            outcome.latencies.append(now() - start)
            outcome.scales.append(REFERENCE_PROBE_S / host_probe())
            if isinstance(result, Exception):
                outcome.kinds.append("error")
            else:
                outcome.kinds.append(result.properties.get("result_cache") or "miss")
            outcome.results.append((job, result))
        outcome.peak_rss_mb = peak_rss_mb(server.pids())
    finally:
        client.close()
    # the client is busy exactly while a request is out
    outcome.elapsed = sum(outcome.scaled())
    return outcome


# -- checking and reporting ---------------------------------------------------------


def check_outputs(outcome: Outcome) -> dict:
    """Check every returned circuit against its input; total the counts."""
    from repro.circuit.serialization import circuit_to_payload
    from repro.simulators import StatevectorSimulator

    from checks import check_result

    simulator = StatevectorSimulator()
    verdicts: dict = {}
    cx_total = depth_total = 0
    cx_by_label: dict = {}
    for job, result in outcome.results:
        if isinstance(result, Exception):
            outcome.failures.append(f"{job.label}: {type(result).__name__}: {result}")
            continue
        key = (id(job.circuit), repr(circuit_to_payload(result.circuit)))
        if key not in verdicts:
            verdicts[key] = check_result(job.circuit, result, simulator)
        if verdicts[key] is not None:
            # later passes reproduced this output, so each attempt failed
            outcome.failures += [f"{job.label}: {verdicts[key]}"] * outcome.passes
        cx, depth = cx_and_depth(result.circuit)
        cx_total += cx
        depth_total += depth
        cx_by_label[job.label] = cx
    return {
        "cx_total": cx_total,
        "depth_total": depth_total,
        "rpo_cx_saving_pct": round(cx_saving_pct(cx_by_label), 9),
    }


def end_to_end(outcome: Outcome, totals: dict, setup_s: float) -> dict:
    by_kind = outcome.latencies_by_kind()
    latencies = [
        latency for kind, values in by_kind.items() if kind != "error" for latency in values
    ]
    failed = len(outcome.failures)
    return {
        "setup_s": setup_s,
        "latency_ms_p50": 1e3 * percentile(latencies, 50),
        "latency_ms_p90": 1e3 * percentile(latencies, 90),
        "miss.latency_ms_p50": 1e3 * percentile(by_kind.get("miss", []), 50),
        "throughput_per_s": len(latencies) / outcome.elapsed,
        "ok_ratio": 1.0 - failed / max(1, outcome.attempted),
        "peak_rss_mb": outcome.peak_rss_mb,
        **totals,
    }


def run_phase(workload: str, seed: int, seconds: float, trace_dir=None, recorder=None):
    """One measured phase; returns its checked :class:`Outcome` and totals."""
    from spec import FARM_REQUESTS_PER_S

    from workloads import farm_requests, qsan_jobs, table2_jobs

    if workload == "farm-stream":
        pin_to_one_cpu()
        requests = farm_requests(seed, max(1, round(FARM_REQUESTS_PER_S * seconds)))
        server = Server(trace_dir)
        try:
            if recorder is not None:
                recorder.enabled = True
            outcome = request_loop(requests, server)
        finally:
            if recorder is not None:
                recorder.enabled = False
            server.stop()
        size = len(requests)
    else:
        if workload == "table2-cold":
            jobs, validate = table2_jobs(seed), "off"
        else:
            jobs, validate = qsan_jobs(seed), "full"
        if recorder is not None:
            recorder.enabled = True
        try:
            outcome = closed_loop(jobs, seconds, validate, recorder)
        finally:
            if recorder is not None:
                recorder.enabled = False
        size = len(jobs)
    totals = check_outputs(outcome)
    kinds = Counter(outcome.kinds[: len(outcome.results)])
    check_repeatable(
        f"{workload}-seed{seed}-n{size}-{source_digest()}",
        {**totals, "kinds": dict(sorted(kinds.items()))},
    )
    return outcome, totals


def measure_setup(workload: str, seed: int, seconds: float) -> float:
    """Imports, input generation and warm-up (server and pool start for
    farm-stream) in this process; returns seconds at the reference host
    speed."""
    start = now()
    import repro.transpiler.frontend  # noqa: F401 - timed import
    from spec import FARM_REQUESTS_PER_S, REFERENCE_PROBE_S

    from workloads import farm_requests, qsan_jobs, table2_jobs

    if workload == "farm-stream":
        import repro.server  # noqa: F401 - timed import

        pin_to_one_cpu()
        farm_requests(seed, max(1, round(FARM_REQUESTS_PER_S * seconds)))
        Server().stop()
    elif workload == "table2-cold":
        table2_jobs(seed)
        warm_up("off")
    else:
        qsan_jobs(seed)
        warm_up("full")
    return (now() - start) * REFERENCE_PROBE_S / host_probe()


def setup_probe(workload: str, seed: int, seconds: float) -> float:
    """Set-up timed in a fresh interpreter, so imports are cold again."""
    output = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return float(output.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from spec import SETUP_SAMPLES

    if not trace:
        samples = [measure_setup(workload, seed, seconds)]
        samples += [setup_probe(workload, seed, seconds) for _ in range(SETUP_SAMPLES - 1)]
        outcome, totals = run_phase(workload, seed, seconds)
        metrics = end_to_end(outcome, totals, percentile(samples, 50))
        units = dict(END_TO_END)
    else:
        from layers import UNITS, per_layer
        from tracing import Recorder, install_client, install_compile, load_spans

        half = seconds / 2.0
        measure_setup(workload, seed, half)
        plain, _ = run_phase(workload, seed, half)
        trace_dir = os.path.join(OUT, f"trace-{os.getpid()}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        recorder = Recorder()
        if workload == "farm-stream":
            install_client(recorder)
            traced_outcome, _ = run_phase(workload, seed, half, trace_dir, recorder)
        else:
            install_compile(recorder)
            traced_outcome, _ = run_phase(workload, seed, half, recorder=recorder)
        spans = recorder.spans + load_spans(
            glob.glob(os.path.join(trace_dir, "*.jsonl"))
        )
        shutil.rmtree(trace_dir, ignore_errors=True)
        # mean, not median: the farm's median moves with its hit/miss mix
        plain_mean = sum(plain.scaled()) / len(plain.latencies)
        traced_mean = sum(traced_outcome.scaled()) / len(traced_outcome.latencies)
        client = {
            "latencies_by_kind": plain.latencies_by_kind(),
            "overhead_pct": 100.0 * (traced_mean / plain_mean - 1.0),
        }
        metrics = per_layer(spans, traced_outcome.passes, client)
        units = UNITS
        outcome = plain
        outcome.attempted += traced_outcome.attempted
        outcome.failures += traced_outcome.failures
    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print the workload spec")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.describe:
        import spec

        print(json.dumps({"workloads": spec.WORKLOADS, "layers": spec.LAYER_MAP,
                          "held_out_seed": spec.HELD_OUT_SEED}, indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(measure_setup(args.workload, args.seed, args.seconds))
        return 0
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"{args.workload}: {report['attempted']} requests, {report['failed']} failed")
    for name, metric in report["metrics"].items():
        print(f"{name:<48} {metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
