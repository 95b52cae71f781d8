"""The HTTP compile server: a wire front for one :class:`CompileService`.

:class:`CompileServer` binds a :class:`~http.server.ThreadingHTTPServer`
(stdlib only -- no new dependencies) around a persistent
:class:`~repro.transpiler.service.CompileService`, so one long-lived pool
(each worker with its own warm analysis memo) plus one compiled-result
cache serve every client on the network.  Routes:

* ``POST /compile`` -- one chunked job envelope in
  (:func:`repro.server.protocol.encode_jobs` frame), one result envelope
  out.  Jobs are handed to the service in payload form
  (:meth:`CompileService.submit_payloads`), so the server process never
  rebuilds circuits it is only going to re-flatten; per-job errors come
  back inside the result envelope, request-level garbage is HTTP 400 with
  an ``error`` envelope.
* ``GET /healthz`` -- liveness JSON (status, uptime, jobs completed);
  what a load balancer or the CI smoke job polls.
* ``GET /metrics`` -- server-side wire counters (requests, jobs,
  per-target job counts) plus the service's ``stats()``, which carries the
  compiled-result cache's hit/miss/eviction counters under
  ``"result_cache"``, as JSON.  A ``POST
  /compile`` result reports its own cache disposition in its
  ``properties["result_cache"]``.
* ``POST /shutdown`` -- graceful remote stop: drains the pool, persists
  the result-cache snapshot, exits ``serve_forever``.  For operational use
  behind a trusted network only, like every other route (the server
  deliberately binds loopback by default and speaks no auth).

Run one from the shell with ``python -m repro.server`` (see
:mod:`repro.server.__main__` for the flags) or embed one in-process::

    from repro.server import CompileServer

    with CompileServer(mode="process", pipeline="rpo") as server:
        server.start()                       # background thread
        print("serving on", server.endpoint)
        ...
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.server.protocol import (
    ProtocolError,
    decode_frame,
    decode_jobs,
    encode_error,
    encode_frame,
    encode_results,
)
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.service import TARGET_PROPERTY, CompileService, result_payload

__all__ = ["CompileServer"]

#: Content type of protocol frames on the wire.
FRAME_CONTENT_TYPE = "application/x-repro-frame"

#: Request bodies above this are refused before reading (HTTP 413).
MAX_REQUEST_BYTES = 256 * 1024 * 1024

#: Seconds between the serve loop's checks for a stop request: a stop
#: waits out at most one interval (socketserver's default is 0.5 s).
POLL_INTERVAL = 0.05


class _CompileHTTPServer(ThreadingHTTPServer):
    daemon_threads = True  # in-flight handlers never block interpreter exit
    compile_server: "CompileServer" = None  # attached right after construction


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    @property
    def compile_server(self) -> "CompileServer":
        return self.server.compile_server

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.compile_server.verbose:
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(
            status,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            "application/json",
        )

    def _send_frame(self, status: int, envelope: dict) -> None:
        self._send(status, encode_frame(envelope), FRAME_CONTENT_TYPE)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0))
        if length > MAX_REQUEST_BYTES:
            raise ProtocolError(f"request body of {length} bytes refused")
        return self.rfile.read(length)

    # -- routes ------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib casing
        server = self.compile_server
        if self.path == "/healthz":
            self._send_json(200, server.health())
        elif self.path == "/metrics":
            self._send_json(200, server.metrics())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self):  # noqa: N802 - stdlib casing
        server = self.compile_server
        if self.path == "/compile":
            try:
                body = self._read_body()
                response = server.handle_compile(body)
            except ProtocolError as exc:
                server._count("protocol_errors")
                self._send_frame(400, encode_error(str(exc)))
            except Exception as exc:  # noqa: BLE001 - wire boundary
                server._count("internal_errors")
                self._send_frame(500, encode_error(f"internal error: {exc}"))
            else:
                self._send_frame(200, response)
        elif self.path == "/shutdown":
            self._send_json(200, {"status": "shutting down"})
            # from a thread: shutdown() must not wait on this very handler
            threading.Thread(target=server.shutdown, daemon=True).start()
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})


class CompileServer:
    """One network-facing compile endpoint wrapping one service.

    Constructed either around a caller-owned service (``service=``) or --
    the common case -- from service keyword arguments, in which case the
    server owns the service and shuts it down (persisting its snapshot)
    with itself.  ``port=0`` binds an ephemeral free port; read
    :attr:`endpoint` after construction.
    """

    def __init__(
        self,
        service: CompileService | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        **service_kwargs,
    ):
        if service is not None and service_kwargs:
            raise TranspilerError(
                "pass either a service or service keyword arguments, not both"
            )
        self._owns_service = service is None
        self.service = (
            service if service is not None else CompileService(**service_kwargs)
        )
        self.verbose = verbose
        self._httpd = _CompileHTTPServer((host, port), _Handler)
        self._httpd.compile_server = self
        self._thread: threading.Thread | None = None
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "jobs": 0,
            "job_failures": 0,
            "protocol_errors": 0,
            "internal_errors": 0,
        }
        self._jobs_by_target: dict[str, int] = {}
        self._serving = False
        self._shutdown = False
        self._shutdown_complete = threading.Event()

    # -- addressing --------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def endpoint(self) -> str:
        """The URL clients point a ``RemoteCompileService`` at."""
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "CompileServer":
        """Serve on a daemon thread; returns self for chaining."""
        with self._lock:
            if self._thread is None and not self._shutdown:
                self._serving = True
                self._thread = threading.Thread(
                    target=self._httpd.serve_forever,
                    args=(POLL_INTERVAL,),
                    daemon=True,
                )
                self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``python -m repro.server`` path).

        Returns at once if :meth:`shutdown` came first: the listening
        socket is already closed then, and serving it would fail.
        """
        # under the lock, so shutdown() either sees the loop coming and
        # stops it, or closed the socket and is seen here
        with self._lock:
            if self._shutdown:
                return
            self._serving = True
        self._httpd.serve_forever(POLL_INTERVAL)

    def shutdown(self) -> None:
        """Stop serving; shut down (and snapshot) an owned service.

        Concurrent callers block until the working caller has finished --
        the ``POST /shutdown`` handler runs this on a daemon thread, and
        the main thread's own shutdown must not let the process exit
        while that thread is still persisting the cache snapshot.
        """
        with self._lock:
            already, self._shutdown = self._shutdown, True
            serving, self._serving = self._serving, False
        if already:
            self._shutdown_complete.wait(timeout=60.0)
            return
        try:
            if serving:
                # blocks until serve_forever exits -- only valid if started
                self._httpd.shutdown()
            self._httpd.server_close()
            if self._thread is not None:
                self._thread.join(timeout=10.0)
                self._thread = None
            if self._owns_service:
                self.service.shutdown()
        finally:
            self._shutdown_complete.set()

    def __enter__(self) -> "CompileServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- request handling ---------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def handle_compile(self, body: bytes) -> dict:
        """One compile envelope in; one result envelope out.

        Raises :class:`ProtocolError` for malformed requests (the handler
        maps it to HTTP 400); job-level failures are encoded per job so
        the rest of the chunk still returns compiled circuits.  A result
        served from the compiled-result cache says so in its own
        ``properties["result_cache"]``.
        """
        envelope = decode_frame(body)
        jobs = decode_jobs(envelope)
        self._count("requests")
        self._count("jobs", len(jobs))
        with self._lock:
            for _, target_payload, _ in jobs:
                label = str(target_payload[1]) if len(target_payload) > 1 else "?"
                self._jobs_by_target[label] = self._jobs_by_target.get(label, 0) + 1
        futures = self.service.submit_payloads(jobs)
        outcomes = []
        for future in futures:
            try:
                result = future.result()
            except Exception as exc:  # noqa: BLE001 - encoded per job
                self._count("job_failures")
                outcomes.append(("error", exc))
                continue
            value = result_payload(result)
            # the client re-attaches its own (equal) Target object; no
            # point shipping ours back
            value[4].pop(TARGET_PROPERTY, None)
            outcomes.append(("ok", value))
        return encode_results(outcomes)

    # -- introspection -----------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` body: liveness plus headline counters."""
        stats = self.service.stats()
        return {
            "status": "ok",
            "uptime": time.monotonic() - self._started,
            "mode": stats["mode"],
            "jobs_completed": stats["completed"],
            "jobs_failed": stats["failed"],
        }

    def metrics(self) -> dict:
        """The ``/metrics`` body: wire counters + full service stats."""
        with self._lock:
            counters = dict(self._counters)
            by_target = dict(self._jobs_by_target)
        return {
            "server": {
                "uptime": time.monotonic() - self._started,
                "endpoint": self.endpoint,
                **counters,
                "jobs_by_target": by_target,
            },
            "service": self.service.stats(),
            "cache": {
                "stats": {
                    k: v
                    for k, v in self.service.cache.stats.items()
                    if isinstance(v, (int, float))
                },
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompileServer {self.endpoint} service={self.service!r}>"
