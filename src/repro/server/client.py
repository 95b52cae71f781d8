"""``RemoteCompileService``: the drop-in network client.

Mirrors the :class:`~repro.transpiler.service.CompileService` surface --
``submit()`` returning a :class:`concurrent.futures.Future`, blocking
order-preserving ``map()``, ``stats()``, ``default_target``, context
manager -- so anything written against a local service (including
``frontend.transpile(..., service=...)``) talks to a remote compile server
by swapping the object::

    from repro.server import RemoteCompileService
    from repro.transpiler import transpile

    with RemoteCompileService("http://compile-host:8642") as remote:
        results = remote.map(circuits, targets="melbourne", seeds=seeds)
        # or, drop-in through the front-end:
        circuits_out = transpile(circuits, target="melbourne", service=remote)

    # the one-liner: transpile() builds (and closes) the client itself
    transpile(circuits, target="melbourne",
              executor="remote", endpoint="http://compile-host:8642")

Jobs take the local service's job path up to the wire: the batch is
normalized by :func:`~repro.transpiler.target.normalize_batch`, each
target resolved by :func:`~repro.transpiler.service.resolve_target` (an
explicit target, else the client's default, else all-to-all), and each
reply rebuilt by :func:`~repro.transpiler.service.result_from_payload`.
Settings a submission leaves unset travel as ``None`` and take the
server's defaults.

Transport is stdlib ``urllib`` over the frame protocol of
:mod:`repro.server.protocol`.  ``map()`` splits the batch into **chunked
job envelopes** -- one HTTP request per chunk, several chunks in flight at
once on a small connection pool -- so a 200-circuit batch of cheap
circuits costs a handful of round-trips, not 200.  Results carry their
:class:`~repro.transpiler.target.Target`, which is how
:func:`repro.transpiler.metrics.aggregate_batch` breaks batches down per
target.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Sequence

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.circuit.serialization import circuit_to_payload
from repro.server.protocol import (
    ProtocolError,
    decode_frame,
    decode_results,
    encode_frame,
    encode_jobs,
    split_chunks,
)
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.passmanager import TranspileResult
from repro.transpiler.service import (
    _CHUNK_MAX_JOBS,
    resolve_target,
    result_from_payload,
)
from repro.transpiler.target import Target, normalize_batch

__all__ = ["RemoteCompileService"]

#: ``chunk_size="auto"``: keep at least this many chunks per connection
#: in flight, so a slow chunk cannot serialize the whole batch.
_MIN_CHUNKS_IN_FLIGHT = 2


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _checked_chunk_size(chunk_size):
    if chunk_size == "auto" or _positive_int(chunk_size):
        return chunk_size
    raise TranspilerError(f"chunk_size must be 'auto' or a positive int, got {chunk_size!r}")


class RemoteCompileService:
    """A compile-service client speaking the frame protocol over HTTP."""

    def __init__(
        self,
        endpoint: str,
        *,
        timeout: float = 300.0,
        max_connections: int = 4,
        chunk_size: int | str = "auto",
        target: Target | str | None = None,
    ):
        """Args:
            endpoint: the server's base URL, e.g. ``"http://host:8642"``.
            timeout: per-request socket timeout in seconds.  One request
                carries a whole chunk, so size it for the chunk, not the
                circuit.
            max_connections: concurrent requests kept in flight by
                :meth:`map` (and backing :meth:`submit` futures).
            chunk_size: jobs per request -- ``"auto"`` (size by batch and
                connections), or a fixed positive integer (1 = one
                request per circuit).
            target: the client-side default target, mirroring the local
                service; jobs always ship a fully-resolved target.
                Settings a submission leaves unset ship as ``None`` and
                take the server's defaults.
        """
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 < timeout < float("inf")
        ):
            raise TranspilerError(
                f"timeout must be a positive number of seconds, got {timeout!r}"
            )
        if not _positive_int(max_connections):
            raise TranspilerError(
                f"max_connections must be a positive int, got {max_connections!r}"
            )
        self.endpoint = endpoint.rstrip("/")
        self.timeout = float(timeout)
        self.chunk_size = _checked_chunk_size(chunk_size)
        self._default_target = Target.coerce(target) if target is not None else None
        self._max_connections = max_connections
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False
        self._requests = 0
        self._jobs_sent = 0

    # -- service-mirror surface --------------------------------------------

    @property
    def default_target(self) -> Target | None:
        """The target applied to submissions that name none (mirrors
        :attr:`CompileService.default_target`, read by ``transpile``)."""
        return self._default_target

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
        """Queue one compilation; returns a future of a
        :class:`~repro.transpiler.passmanager.TranspileResult`.

        Each ``submit`` is its own single-job request; use :meth:`map`
        for batches so chunking can amortize the round-trips.
        """
        job, resolved_target = self._job(
            circuit,
            target,
            {
                "pipeline": pipeline,
                "optimization_level": optimization_level,
                "seed": seed,
                "initial_layout": initial_layout,
                "validate": validate,
            },
        )
        return self._ensure_pool().submit(self._compile_one, job, resolved_target)

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
        """Compile a batch remotely; blocks, preserves input order.

        The batch is cut into chunked job envelopes (one request each,
        up to ``max_connections`` in flight); per-job remote errors are
        re-raised here exactly as a local service's ``map`` would raise
        them.
        """
        if chunk_size is not None:
            _checked_chunk_size(chunk_size)
        batch = list(circuits)
        if not batch:
            return []
        per_targets, per_seeds = normalize_batch(batch, targets, seeds)
        jobs = []
        resolved_targets = []
        for circuit, target, seed in zip(batch, per_targets, per_seeds):
            job, resolved = self._job(
                circuit,
                target,
                {
                    "pipeline": pipeline,
                    "optimization_level": optimization_level,
                    "seed": seed,
                    "initial_layout": initial_layout,
                    "validate": validate,
                },
            )
            jobs.append(job)
            resolved_targets.append(resolved)
        chunk = self._effective_chunk_size(len(jobs), chunk_size)
        job_chunks = split_chunks(jobs, chunk)
        target_chunks = split_chunks(resolved_targets, chunk)
        pool = self._ensure_pool()
        futures = [
            pool.submit(self._compile_chunk, job_chunk, target_chunk)
            for job_chunk, target_chunk in zip(job_chunks, target_chunks)
        ]
        results: list[TranspileResult] = []
        first_error: BaseException | None = None
        for future in futures:
            for outcome in future.result():
                if isinstance(outcome, BaseException):
                    if first_error is None:
                        first_error = outcome
                else:
                    results.append(outcome)
        if first_error is not None:
            raise first_error
        return results

    # -- request plumbing ---------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise TranspilerError("RemoteCompileService has been closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_connections,
                    thread_name_prefix="remote-compile",
                )
            return self._pool

    def _job(self, circuit, target, settings: dict) -> tuple[tuple, Target]:
        """One wire job and its resolved target.  Settings left ``None``
        take the server's defaults."""
        resolved = resolve_target(circuit, target, self._default_target)
        return (circuit_to_payload(circuit), resolved.to_payload(), settings), resolved

    def _effective_chunk_size(self, batch_size: int, override) -> int:
        choice = override if override is not None else self.chunk_size
        if choice == "auto":
            # enough chunks to keep every connection busy at least twice
            # over, each chunk as large as that allows (bounded)
            per_chunk = max(
                1,
                batch_size // (self._max_connections * _MIN_CHUNKS_IN_FLIGHT),
            )
            return max(1, min(_CHUNK_MAX_JOBS, per_chunk))
        return choice

    def _compile_one(self, job: tuple, target: Target) -> TranspileResult:
        """POST a one-job chunk; returns its result or raises its error."""
        (outcome,) = self._compile_chunk([job], [target])
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def _compile_chunk(self, jobs: list[tuple], targets: list[Target]) -> list:
        """POST one chunk; returns per-job TranspileResult-or-exception."""
        frame = encode_frame(encode_jobs(jobs))
        with self._lock:
            self._requests += 1
            self._jobs_sent += len(jobs)
        outcomes = decode_results(self._post("/compile", frame))
        if len(outcomes) != len(jobs):
            raise ProtocolError(
                f"server returned {len(outcomes)} results for {len(jobs)} jobs"
            )
        return [
            result_from_payload(value, target) if status == "ok" else value
            for (status, value), target in zip(outcomes, targets)
        ]

    def _post(self, path: str, frame: bytes) -> dict:
        """POST one frame; returns the reply envelope."""
        request = urllib.request.Request(
            self.endpoint + path,
            data=frame,
            headers={"Content-Type": "application/x-repro-frame"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return decode_frame(response.read())
        except urllib.error.HTTPError as exc:
            body = exc.read()
            try:
                envelope = decode_frame(body)
                detail = envelope.get("error", "")
            except ProtocolError:
                detail = body[:200].decode("utf-8", "replace")
            raise ProtocolError(
                f"compile server at {self.endpoint} answered HTTP "
                f"{exc.code}: {detail}"
            ) from None
        except urllib.error.URLError as exc:
            raise TranspilerError(
                f"cannot reach compile server at {self.endpoint}: {exc.reason}"
            ) from None

    def _get_json(self, path: str) -> dict:
        try:
            with urllib.request.urlopen(
                self.endpoint + path, timeout=self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.URLError as exc:
            raise TranspilerError(
                f"cannot reach compile server at {self.endpoint}: "
                f"{getattr(exc, 'reason', exc)}"
            ) from None

    # -- introspection / lifecycle -----------------------------------------

    def healthz(self) -> dict:
        """The server's ``/healthz`` body."""
        return self._get_json("/healthz")

    def stats(self) -> dict:
        """Client counters + the server's ``/metrics`` body."""
        remote = self._get_json("/metrics")
        with self._lock:
            local = {
                "endpoint": self.endpoint,
                "requests": self._requests,
                "jobs_sent": self._jobs_sent,
            }
        return {"client": local, **remote}

    def shutdown_server(self) -> dict:
        """Ask the server to stop (``POST /shutdown``); returns its ack."""
        request = urllib.request.Request(
            self.endpoint + "/shutdown", data=b"", method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.URLError as exc:
            raise TranspilerError(
                f"cannot reach compile server at {self.endpoint}: "
                f"{getattr(exc, 'reason', exc)}"
            ) from None

    def close(self) -> None:
        """Release the client's connection pool (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    #: Local-service compatibility: ``transpile`` and tooling written for
    #: ``CompileService`` may call ``shutdown()``; for a *client* that
    #: only ever means "stop talking", never "stop the server".
    def shutdown(self, wait: bool = True, save: bool = True) -> None:
        self.close()

    def __enter__(self) -> "RemoteCompileService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<RemoteCompileService {self.endpoint} {state}>"
