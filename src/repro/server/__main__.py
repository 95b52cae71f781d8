"""``python -m repro.server`` -- boot a compile server from the shell.

Example: a warm-restarting RPO compile server on port 8642::

    python -m repro.server --port 8642 --pipeline rpo \
        --snapshot-path /var/lib/repro/results.snap --autosave-interval 60

Point clients at it with ``RemoteCompileService("http://host:8642")`` or
``transpile(..., executor="remote", endpoint="http://host:8642")``; check
``GET /healthz`` for liveness and ``GET /metrics`` for wire + service
counters.  SIGINT/SIGTERM (and ``POST /shutdown``) drain the pool and
persist the result-cache snapshot before exiting.
"""

from __future__ import annotations

import argparse
import signal
import threading

from repro.server.app import CompileServer
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.frontend import PIPELINES
from repro.transpiler.result_cache import ResultCache
from repro.transpiler.service import SERVICE_MODES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--mode",
        default="process",
        choices=SERVICE_MODES,
        help="worker pool flavour (default: process)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="pool width, a positive int (default: cores-1)",
    )
    parser.add_argument(
        "--pipeline",
        default="preset",
        choices=PIPELINES,
        help="default pipeline for jobs that name none",
    )
    parser.add_argument(
        "--optimization-level",
        type=int,
        default=1,
        help="default preset level (default 1)",
    )
    parser.add_argument(
        "--target",
        default=None,
        help='default target preset for jobs that name none ("melbourne", '
        '"linear:5", ...)',
    )
    parser.add_argument(
        "--snapshot-path",
        default=None,
        help="result-cache snapshot file (loaded at boot, saved at "
        "shutdown and by --autosave-interval)",
    )
    parser.add_argument(
        "--autosave-interval",
        type=float,
        default=0.0,
        help="seconds between background snapshot autosaves (0 = shutdown-only)",
    )
    parser.add_argument(
        "--no-result-cache",
        action="store_true",
        help="disable the compiled-result cache (every job compiles)",
    )
    parser.add_argument(
        "--result-cache-size",
        type=int,
        default=4096,
        help="LRU bound on exact result-cache entries (default 4096)",
    )
    parser.add_argument(
        "--result-cache-ttl",
        type=float,
        default=None,
        help="seconds a cached result stays servable (default: forever)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    result_cache = (
        False
        if args.no_result_cache
        else ResultCache(
            max_entries=args.result_cache_size, ttl=args.result_cache_ttl
        )
    )
    try:
        server = CompileServer(
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            mode=args.mode,
            max_workers=args.max_workers,
            pipeline=args.pipeline,
            optimization_level=args.optimization_level,
            target=args.target,
            snapshot_path=args.snapshot_path,
            autosave_interval=args.autosave_interval,
            result_cache=result_cache,
        )
    except TranspilerError as exc:  # a bad flag value, e.g. --max-workers 0
        parser.error(str(exc))

    def stop(signum, frame):  # noqa: ARG001 - signal signature
        # shutdown() must run off this thread: the handler interrupts the
        # very thread inside serve_forever, and BaseServer.shutdown()
        # waits for that loop to exit -- calling it here deadlocks.  The
        # spawned thread stops the loop; the finally block below then
        # finishes (and waits on) the full shutdown, snapshot included.
        print("shutting down", flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, stop)
    signal.signal(signal.SIGTERM, stop)
    print(
        f"compile server listening on {server.endpoint} "
        f"(mode={args.mode}, pipeline={args.pipeline})",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
