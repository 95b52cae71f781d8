"""``ShardRouter``: fan one batch out across several compile servers.

The router owns one :class:`~repro.server.client.RemoteCompileService`
per endpoint and splits batches between them with **target-affinity
routing**: every job compiles for some
:class:`~repro.transpiler.target.Target`, and all jobs for the same
target value go to the same shard, because that shard's service cache
already holds the target's analyses (its warmed matrices, its workers'
memoized coupling data).  A target seen for the first time is pinned to
the least-loaded shard and stays pinned for the router's lifetime, so a
farm serving a handful of devices converges to one warm shard per
device instead of smearing every device's working set over every
machine.

The router mirrors the service surface (``submit()`` / ``map()`` /
``stats()`` / ``default_target``), so it *is* a service as far as
``transpile()`` is concerned::

    from repro.server import ShardRouter

    with ShardRouter(["http://farm-a:8642", "http://farm-b:8642"]) as router:
        results = router.map(circuits, targets=per_circuit_targets, seeds=seeds)

    # or through the front-end, from a list of endpoints:
    transpile(circuits, target=..., executor="remote",
              endpoint=["http://farm-a:8642", "http://farm-b:8642"])

Targets resolve once, in the router, by the same
:func:`~repro.transpiler.service.resolve_target` every front uses, so the
affinity key is the target the shard compiles for.  Each shard's
sub-batch goes out as chunked envelopes concurrently; the results come
back scattered to input order, every result stamped with the endpoint
that served it (the ``"shard"`` property), and
:func:`~repro.transpiler.metrics.aggregate_batch` merges per-shard
breakdowns into the ``by_target`` report.

When batches name their ``pipeline`` and ``optimization_level``
explicitly, the router also consults the *other* shards' compiled-result
caches (``GET /cache/<fingerprint>``) before dispatching -- an identical
compile another shard already served comes back without ever shipping
the job, rebuilt by the shared
:func:`~repro.transpiler.service.result_from_payload`
(``peer_cache=False`` turns this off).  A peer that cannot answer is a
miss counted in ``stats()["peer_cache"]["peer_errors"]``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Sequence

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.circuit.serialization import circuit_to_payload
from repro.server.client import SHARD_PROPERTY, RemoteCompileService
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.passes import IBM_BASIS
from repro.transpiler.passmanager import TranspileResult
from repro.transpiler.result_cache import job_fingerprint
from repro.transpiler.service import (
    CACHE_PROPERTY,
    resolve_target,
    result_from_payload,
)
from repro.transpiler.target import Target, normalize_batch

__all__ = ["ShardRouter"]


class ShardRouter:
    """Target-affinity dispatch over several compile-server endpoints."""

    def __init__(
        self,
        shards: Sequence,
        *,
        timeout: float = 300.0,
        max_connections: int = 4,
        chunk_size: int | str = "auto",
        target: Target | str | None = None,
        basis_gates=IBM_BASIS,
        peer_cache: bool = True,
    ):
        """Args:
            shards: endpoint URLs and/or prebuilt
                :class:`RemoteCompileService` clients, one per shard.
            timeout / max_connections / chunk_size: forwarded to clients
                built from bare URLs (prebuilt clients keep their own).
            target / basis_gates: router-level defaults, mirroring the
                local service.
            peer_cache: consult the *other* shards' compiled-result
                caches (``GET /cache/<fingerprint>``) before dispatching
                a :meth:`map` job to its affine shard.  Only activates
                for batches whose ``pipeline`` and ``optimization_level``
                are explicit -- the client cannot reconstruct a server's
                defaults, and a wrong guess must miss, not mis-hit.
        """
        if not shards:
            raise TranspilerError("ShardRouter needs at least one shard endpoint")
        self.shards: list[RemoteCompileService] = [
            shard
            if isinstance(shard, RemoteCompileService)
            else RemoteCompileService(
                shard,
                timeout=timeout,
                max_connections=max_connections,
                chunk_size=chunk_size,
                basis_gates=basis_gates,
            )
            for shard in shards
        ]
        self._basis = tuple(basis_gates)
        self._default_target = (
            Target.coerce(target, basis=self._basis) if target is not None else None
        )
        self.peer_cache = bool(peer_cache)
        self._lock = threading.Lock()
        #: Target -> shard index; the affinity memory.
        self._affinity: dict[Target, int] = {}
        #: jobs routed per shard, the load-balance signal for new targets
        self._routed = [0] * len(self.shards)
        self._peer_lookups = 0
        self._peer_hits = 0
        self._peer_errors = 0
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    # -- routing ------------------------------------------------------------

    @property
    def default_target(self) -> Target | None:
        return self._default_target

    def route(self, target: Target) -> int:
        """The shard index serving ``target`` (sticky; least-loaded on
        first sight).  Also counts the job against the shard's load."""
        with self._lock:
            index = self._affinity.get(target)
            if index is None:
                index = min(range(len(self.shards)), key=lambda i: self._routed[i])
                self._affinity[target] = index
            self._routed[index] += 1
            return index

    # -- service-mirror surface --------------------------------------------

    def submit(
        self,
        circuit: QuantumCircuit,
        *,
        target: Target | str | None = None,
        pipeline: str | None = None,
        optimization_level: int | None = None,
        seed: int | None = None,
        initial_layout=None,
        validate: str | None = None,
    ) -> Future:
        """Queue one compilation on the job's affine shard."""
        resolved = resolve_target(circuit, target, self._default_target, self._basis)
        shard = self.shards[self.route(resolved)]
        return shard.submit(
            circuit,
            target=resolved,
            pipeline=pipeline,
            optimization_level=optimization_level,
            seed=seed,
            initial_layout=initial_layout,
            validate=validate,
        )

    def map(
        self,
        circuits: Sequence[QuantumCircuit],
        *,
        targets=None,
        seeds=None,
        pipeline: str | None = None,
        optimization_level: int | None = None,
        initial_layout=None,
        validate: str | None = None,
        chunk_size: int | str | None = None,
    ) -> list[TranspileResult]:
        """Fan a batch across the shards; blocks, preserves input order.

        Jobs are grouped by their routed shard, each group ships as that
        shard's own chunked sub-batch, and all shards compile
        concurrently -- the wall-clock is the slowest shard's, not the
        sum.
        """
        batch = list(circuits)
        if not batch:
            return []
        per_targets, per_seeds = normalize_batch(batch, targets, seeds)
        resolved = [
            resolve_target(circuit, target, self._default_target, self._basis)
            for circuit, target in zip(batch, per_targets)
        ]
        routes = [self.route(target) for target in resolved]
        peer_served = self._peer_lookup(
            batch, resolved, routes, per_seeds,
            pipeline, optimization_level, initial_layout,
        )
        by_shard: dict[int, list[int]] = {}
        for index, shard_index in enumerate(routes):
            if index in peer_served:
                continue
            by_shard.setdefault(shard_index, []).append(index)

        def run_shard(shard_index: int, indices: list[int]) -> list[TranspileResult]:
            return self.shards[shard_index].map(
                [batch[i] for i in indices],
                targets=[resolved[i] for i in indices],
                seeds=[per_seeds[i] for i in indices],
                pipeline=pipeline,
                optimization_level=optimization_level,
                initial_layout=initial_layout,
                validate=validate,
                chunk_size=chunk_size,
            )

        pool = self._ensure_pool()
        futures = {
            shard_index: pool.submit(run_shard, shard_index, indices)
            for shard_index, indices in by_shard.items()
        }
        results: list[TranspileResult | None] = [None] * len(batch)
        for index, result in peer_served.items():
            results[index] = result
        first_error: BaseException | None = None
        for shard_index, indices in by_shard.items():
            try:
                shard_results = futures[shard_index].result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
                continue
            for index, result in zip(indices, shard_results):
                results[index] = result
        if first_error is not None:
            raise first_error
        return results  # type: ignore[return-value]

    # -- peer cache lookup ---------------------------------------------------

    def _peer_lookup(
        self, batch, resolved, routes, per_seeds,
        pipeline, optimization_level, initial_layout,
    ) -> dict[int, TranspileResult]:
        """Results served by *other* shards' caches, by batch index.

        A target's affine shard checks its own cache the moment the job
        arrives; what it cannot see is an identical compile another shard
        already did (a re-pinned target, an overlapping client).  One
        ``GET /cache/<fingerprint>`` per peer answers that before the job
        ships.  Only runs when the batch's ``pipeline`` and
        ``optimization_level`` are explicit: the exact cache key includes
        them as the *server* resolves them, so defaults left to the
        server are unknowable here -- and the fingerprint must match
        exactly or not at all.  A cache-less peer is a miss; an
        unreachable or misbehaving one (a transport or protocol error) is
        a miss counted as ``peer_errors`` in :meth:`stats`.
        """
        if (
            not self.peer_cache
            or len(self.shards) < 2
            or pipeline is None
            or optimization_level is None
            or initial_layout is not None
        ):
            return {}
        served: dict[int, TranspileResult] = {}
        for index, circuit in enumerate(batch):
            fingerprint = job_fingerprint(
                circuit_to_payload(circuit),
                resolved[index].to_payload(),
                (pipeline, optimization_level, per_seeds[index]),
            )
            if fingerprint is None:
                continue
            for shard_index, shard in enumerate(self.shards):
                if shard_index == routes[index]:
                    continue  # its own cache answers at dispatch anyway
                with self._lock:
                    self._peer_lookups += 1
                try:
                    value = shard.cache_lookup(fingerprint)
                except (TranspilerError, OSError):
                    with self._lock:
                        self._peer_errors += 1
                    continue
                if value is None:
                    continue
                result = result_from_payload(
                    value,
                    resolved[index],
                    {SHARD_PROPERTY: shard.endpoint, CACHE_PROPERTY: "peer"},
                )
                # content addressing ignores names; serve under the
                # requester's label, like the cache itself does
                result.circuit.name = circuit.name
                served[index] = result
                with self._lock:
                    self._peer_hits += 1
                break
        return served

    # -- introspection / lifecycle -----------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise TranspilerError("ShardRouter has been closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=len(self.shards), thread_name_prefix="shard-router"
                )
            return self._pool

    def stats(self) -> dict:
        """Routing table + per-shard client/server stats (JSON-ready)."""
        with self._lock:
            affinity = {
                target.label: self.shards[index].endpoint
                for target, index in self._affinity.items()
            }
            routed = {
                shard.endpoint: count
                for shard, count in zip(self.shards, self._routed)
            }
            peer = {
                "enabled": self.peer_cache,
                "lookups": self._peer_lookups,
                "hits": self._peer_hits,
                "peer_errors": self._peer_errors,
            }
        per_shard = {}
        for shard in self.shards:
            try:
                per_shard[shard.endpoint] = shard.stats()
            except TranspilerError as exc:
                per_shard[shard.endpoint] = {"unreachable": str(exc)}
        return {
            "num_shards": len(self.shards),
            "affinity": affinity,
            "jobs_routed": routed,
            "peer_cache": peer,
            "shards": per_shard,
        }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for shard in self.shards:
            shard.close()

    def shutdown(self, wait: bool = True, save: bool = True) -> None:
        """Service-surface alias of :meth:`close` (never stops the farm)."""
        self.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        endpoints = ", ".join(shard.endpoint for shard in self.shards)
        return f"<ShardRouter [{endpoints}]>"
