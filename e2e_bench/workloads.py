"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed (and, for the farm stream,
of the stream length): the same seed always yields the same circuits,
routing seeds, request order and request dependencies.  The program under
test only ever receives the generated circuits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.algorithms import (
    bernstein_vazirani_boolean,
    grover_circuit,
    quantum_phase_estimation,
    quantum_volume_circuit,
    ry_ansatz,
)

#: every workload compiles for this device (paper Table II)
TARGET = "melbourne"


@dataclass(frozen=True)
class Job:
    """One compile: the circuit plus the knobs that select its pipeline."""

    label: str
    circuit: object
    pipeline: str
    seed: int


@dataclass(frozen=True)
class Request:
    """One farm request: a job and the mix share it was drawn from
    (``novel``, ``repeat`` or ``variant``)."""

    job: Job
    kind: str


def _table2_circuit(family: str, num_qubits: int, rng: np.random.Generator):
    if family == "qpe":
        return quantum_phase_estimation(num_qubits - 1)
    if family == "vqe":
        return ry_ansatz(num_qubits, depth=3, seed=int(rng.integers(2**31)))
    if family == "qv":
        # the qv seed picks which qubit pairs interact, and with them the
        # routing work; it stays fixed, as in benchmarks/bench_table2_main.py
        return quantum_volume_circuit(num_qubits, seed=5)
    if family == "grover":
        return grover_circuit(num_qubits, design="noancilla")
    raise ValueError(family)


#: Table II sizes per family for table2-cold (grover grows fastest)
TABLE2_SIZES = {"qpe": (4, 6, 8), "vqe": (4, 6, 8), "qv": (4, 6, 8), "grover": (4, 6)}

#: the <=8-qubit subset compiled under QSAN (vqe at 8 qubits alone costs
#: more than the rest of a pass there)
QSAN_SIZES = {"qpe": (4, 6, 8), "vqe": (4, 6), "qv": (4, 6, 8), "grover": (4, 6)}


#: routing seeds of every Table II compile: the paper's protocol compiles
#: each circuit over a fixed range of routing seeds
ROUTING_SEEDS = (0, 1)


def table2_jobs(seed: int, sizes=None, pipelines=("level3", "hoare", "rpo")) -> list[Job]:
    """The Table II set: each family at its sizes, under each pipeline and
    routing seed.

    The seed draws the vqe circuits' angles and shuffles the order of the
    whole set.  Routing seeds are fixed, so level3 and rpo compile
    identical circuits with identical seeds, and the set's CNOT totals do
    not move from one seed to the next.
    """
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for family, family_sizes in (sizes or TABLE2_SIZES).items():
        for num_qubits in family_sizes:
            circuit = _table2_circuit(family, num_qubits, rng)
            for routing_seed in ROUTING_SEEDS:
                for pipeline in pipelines:
                    label = f"{family}{num_qubits}s{routing_seed}/{pipeline}"
                    jobs.append(Job(label, circuit, pipeline, routing_seed))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def qsan_jobs(seed: int) -> list[Job]:
    return table2_jobs(seed, QSAN_SIZES, ("level3", "rpo"))


# -- the farm stream ---------------------------------------------------------

#: request mix per 20 requests: novel small circuits, exact repeats and
#: fresh-parameter ansatz variants (30% / 45% / 25%).  With the variants'
#: template-learning misses, misses are about a third of all requests, so
#: the median latency lies inside the body of the hit mode.  Closer to
#: half, it sat on the thin tail between the hit and miss modes and moved
#: by up to 40% from one seed to the next.
MIX = {"novel": 6, "repeat": 9, "variant": 5}


def _interleave(mix: dict) -> list[str]:
    """One period of the mix with each kind spread out evenly.

    A fixed, even pattern keeps misses apart the same way for every seed,
    so how often a hit queues behind a miss does not depend on the seed.
    """
    total = sum(mix.values())
    sent = dict.fromkeys(mix, 0)
    pattern = []
    for slot in range(1, total + 1):
        kind = max(mix, key=lambda k: mix[k] * slot / total - sent[k])
        sent[kind] += 1
        pattern.append(kind)
    return pattern


MIX_PATTERN = _interleave(MIX)

#: a repeat copies a request at least this many slots back
REPEAT_MIN_DISTANCE = 8

#: (width, depth, entanglement, pipeline) of the parameterized ansatz
#: structures whose fresh-parameter variants exercise template serving
VARIANT_STRUCTURES = (
    (3, 1, "linear", "level3"),
    (3, 2, "full", "rpo"),
    (4, 1, "linear", "rpo"),
    (4, 2, "linear", "level3"),
)

#: (family, width) of the novel circuits; the stream cycles through all of
#: them, so only BV secrets, routing seeds and order depend on the seed
NOVEL_SHAPES = (
    ("bv", 6), ("bv", 7),
    ("qv", 3), ("qv", 4),
    ("qpe", 3), ("qpe", 4), ("qpe", 5),
)


def _cycle(rng: np.random.Generator, items):
    """Endless seeded shuffles of ``items``, one whole cycle at a time."""
    while True:
        for index in rng.permutation(len(items)):
            yield items[index]


def _novel_circuit(rng: np.random.Generator, family: str, width: int):
    """``(key, circuit)``: a ``family`` circuit of ``width`` qubits.

    Only BV secrets are drawn, with half their bits set; QV and QPE
    circuits are fixed per width, as in Table II, and become new jobs
    through fresh routing seeds.  CNOT counts and RPO's saving thus stay
    the same for every seed.
    """
    if family == "bv":
        ones = rng.choice(width - 1, size=(width - 1) // 2, replace=False)
        secret = sum(1 << int(bit) for bit in ones)
        return (family, width, secret), bernstein_vazirani_boolean(width - 1, secret)
    if family == "qv":
        return (family, width), quantum_volume_circuit(width, seed=5)
    return (family, width), quantum_phase_estimation(width - 1)


def farm_requests(seed: int, count: int) -> list[Request]:
    """``count`` seeded requests in send order.

    Novel circuits come in pairs -- the same circuit and routing seed
    under level3, then under rpo -- so the paper's CNOT saving is also
    measured on the farm; a novel job is never sent twice as novel.  A
    repeat copies an earlier job, cycling through the job labels so every
    seed repeats the same mix.  Sent one at a time, each request meets the
    result cache in the same state on every run.
    """
    rng = np.random.default_rng([seed, 3])
    kinds = itertools.cycle(MIX_PATTERN)
    shapes = _cycle(rng, NOVEL_SHAPES)
    structures = _cycle(rng, range(len(VARIANT_STRUCTURES)))
    labels = [f"{f}{w}/{p}" for f, w in NOVEL_SHAPES for p in ("level3", "rpo")]
    labels += [f"ry{w}x{d}/{p}" for w, d, _, p in VARIANT_STRUCTURES]
    repeat_labels = _cycle(rng, labels)
    used: set = set()
    by_label: dict[str, list[int]] = {}
    requests: list[Request] = []
    pending_rpo = None
    for index in range(count):
        kind = next(kinds)
        original = None
        if kind == "repeat":
            eligible = []
            for _ in labels:
                eligible = [
                    j
                    for j in by_label.get(next(repeat_labels), [])
                    if j <= index - REPEAT_MIN_DISTANCE
                ]
                if eligible:
                    break
            if eligible:
                original = eligible[int(rng.integers(len(eligible)))]
            else:
                kind = "novel"
        if kind == "repeat":
            request = Request(requests[original].job, "repeat")
        elif kind == "novel":
            if pending_rpo is not None:
                job, pending_rpo = pending_rpo, None
            else:
                family, width = next(shapes)
                key, circuit = _novel_circuit(rng, family, width)
                routing_seed = int(rng.integers(2**16))
                while (key, routing_seed) in used:
                    routing_seed = int(rng.integers(2**16))
                used.add((key, routing_seed))
                label = f"{family}{width}"
                job = Job(f"{label}/level3", circuit, "level3", routing_seed)
                pending_rpo = Job(f"{label}/rpo", circuit, "rpo", routing_seed)
            request = Request(job, "novel")
        else:
            structure = next(structures)
            width, depth, entanglement, pipeline = VARIANT_STRUCTURES[structure]
            parameters = rng.uniform(0.1, 2 * np.pi - 0.1, size=(depth + 1, width))
            circuit = ry_ansatz(
                width, depth=depth, parameters=parameters, entanglement=entanglement
            )
            job = Job(f"ry{width}x{depth}/{pipeline}", circuit, pipeline, 7)
            request = Request(job, "variant")
        by_label.setdefault(request.job.label, []).append(index)
        requests.append(request)
    return requests
