"""Start ``python -m repro.server`` for the farm workload.

Usage::

    python3 e2e_bench/launcher.py [--trace-dir DIR] [-- SERVER ARGS...]

The server's own ``main()`` runs unchanged.  Before it serves, the
launcher starts the worker pool with one tiny compile and then empties
the result cache, so pool start-up counts as set-up and every measured
request meets an empty cache.  It prints ``ready`` once that is done.
With ``--trace-dir`` it traces the server and its pool workers and
writes their spans into that directory when the server exits.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _warm_up(server) -> None:
    from repro.circuit.quantumcircuit import QuantumCircuit

    bell = QuantumCircuit(2)
    bell.h(0)
    bell.cx(0, 1)
    server.service.map([bell], seeds=[0], pipeline="level3")
    if server.service.result_cache is not None:
        server.service.result_cache.clear()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = [a for a in args.server_args if a != "--"]

    from repro.server import __main__ as server_main
    from repro.server.app import CompileServer

    recorder = None
    if args.trace_dir is not None:
        from tracing import Recorder, install_server

        recorder = Recorder()
        install_server(recorder)
        recorder.worker_sink(args.trace_dir)
        recorder.enabled = True  # workers forked from here on inherit it

    serve = CompileServer.serve_forever

    def serve_forever(self):
        _warm_up(self)
        if recorder is not None:
            # the warm-up's spans are set-up, not workload
            recorder.spans.clear()
            for path in glob.glob(os.path.join(args.trace_dir, "spans-*.jsonl")):
                os.remove(path)
        print("ready", flush=True)
        serve(self)

    CompileServer.serve_forever = serve_forever
    status = server_main.main(server_args)
    if recorder is not None:
        recorder.write(os.path.join(args.trace_dir, "server.jsonl"))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
