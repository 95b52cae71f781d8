"""Span recorder that traces the compile stack from outside.

Nothing inside ``src/`` is instrumented.  :func:`install_compile`,
:func:`install_client` and :func:`install_server` replace public
functions and methods of the stack with wrappers that time each call and
record a span ``(name, start, end, parent, request id)`` plus a few
attributes.  Spans are kept in memory and written out when the process
is done; a forked pool worker appends its spans to a per-process file
each time a top-level span ends, because workers exit without running
the parent's exit code.

Timestamps come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans of the load generator, the server
and its workers share one time axis.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time

now = time.perf_counter


def frame_digest(frame: bytes) -> str:
    """Request id of a compile request: a digest of its frame bytes, which
    the client and the server compute independently."""
    return hashlib.sha1(frame).hexdigest()[:16]


class Recorder:
    """In-memory span store of one process."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.sink: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """``(span id, request id)`` of the innermost open span, or Nones."""
        stack = self._stack()
        if stack:
            return stack[-1]["id"], stack[-1]["request"]
        return None, getattr(self._local, "request", None)

    def set_request(self, request) -> None:
        """Request id inherited by root spans opened on this thread."""
        self._local.request = request

    def open(self, name: str, request=None) -> dict:
        parent, inherited = self.current()
        span = {
            "pid": os.getpid(),
            "id": next(self._ids),
            "parent": parent,
            "name": name,
            "request": request if request is not None else inherited,
            "start": now(),
        }
        self._stack().append(span)
        return span

    def close(self, span: dict, attrs: dict | None = None, end=None) -> None:
        span["end"] = now() if end is None else end
        if attrs:
            span["attrs"] = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)
        if self.sink is not None and not stack:
            self.flush()

    def record(self, name, start, end, parent=None, request=None, attrs=None):
        """Add a finished span that was not opened on a stack (a job span
        closed by a future's callback on another thread)."""
        span = {
            "pid": os.getpid(),
            "id": next(self._ids),
            "parent": parent,
            "name": name,
            "request": request,
            "start": start,
            "end": end,
        }
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)

    def flush(self) -> None:
        """Append buffered spans to :attr:`sink` (forked workers)."""
        spans, self.spans = self.spans, []
        if spans:
            with open(self.sink, "a", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def worker_sink(self, directory: str) -> None:
        """After a fork, stream this process's spans to its own file."""

        def after_fork():
            self.spans = []
            self._local = threading.local()
            self.sink = os.path.join(directory, f"spans-{os.getpid()}.jsonl")

        os.register_at_fork(after_in_child=after_fork)


def load_spans(paths) -> list[dict]:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# -- wrapping -----------------------------------------------------------------


def traced(recorder: Recorder, fn, name, annotate=None):
    """``fn`` wrapped in a span named ``name`` (or ``name(args)``).

    ``annotate(args, result)`` returns the span's attributes; it runs after
    the span's end time was taken.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        span = recorder.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(span, {"error": True})
            raise
        end = now()
        attrs = annotate(args, result) if annotate is not None else None
        recorder.close(span, attrs, end)
        return result

    return wrapper


def replace_everywhere(original, replacement) -> int:
    """Rebind every ``repro`` module attribute that is ``original``;
    returns how many bindings changed.  Modules that did
    ``from x import f`` hold their own reference, so each is rebound."""
    changed = 0
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def trace_function(recorder, module, attr, name, annotate=None):
    original = getattr(module, attr)
    wrapper = traced(recorder, original, name, annotate)
    replace_everywhere(original, wrapper)
    return wrapper


def trace_method(recorder, cls, attr, name, annotate=None):
    setattr(cls, attr, traced(recorder, cls.__dict__[attr], name, annotate))


# -- the compile stack ----------------------------------------------------------


def _unitary_digest(args, _result):
    unitary = args[0]
    return {"unitary": hashlib.sha1(unitary.tobytes()).hexdigest()[:16]}


def install_compile(recorder: Recorder) -> None:
    """Trace the front-end, the pass manager, every pass, two-qubit
    resynthesis, QSAN checks and the simulators QSAN calls."""
    import repro.analysis.qsan as qsan
    import repro.linalg.two_qubit_synthesis as synthesis
    import repro.simulators.unitary as unitary
    import repro.transpiler.frontend as frontend
    from repro.rpo import HoareOptimizer, QBOPass, QPOPass
    from repro.simulators.statevector import StatevectorSimulator
    from repro.transpiler.passes.consolidate import ConsolidateBlocks
    from repro.transpiler.passmanager import AnalysisPass, PassManager, TransformationPass

    rpo_passes = (QBOPass, QPOPass, HoareOptimizer)

    trace_function(recorder, frontend, "transpile", "transpile")
    trace_method(recorder, PassManager, "run_with_result", "run_with_result")

    def trace_pass(run):
        @functools.wraps(run)
        def wrapper(self, circuit, properties):
            if not recorder.enabled:
                return run(self, circuit, properties)
            counts = properties.get("rewrite_counts")
            before = counts.get(self.name, 0) if counts else 0
            span = recorder.open("pass:" + type(self).__name__)
            try:
                result = run(self, circuit, properties)
            except BaseException:
                recorder.close(span, {"error": True})
                raise
            end = now()
            attrs = None
            if isinstance(self, rpo_passes):
                attrs = {"removed": circuit.size() - result.size()}
            elif isinstance(self, ConsolidateBlocks):
                attrs = {"kept": properties["rewrite_counts"][self.name] - before}
            recorder.close(span, attrs, end)
            return result

        return wrapper

    for base in (TransformationPass, AnalysisPass):
        base.run = trace_pass(base.__dict__["run"])
    trace_function(
        recorder,
        synthesis,
        "synthesize_two_qubit_unitary",
        "synth",
        _unitary_digest,
    )
    trace_method(
        recorder,
        qsan.QsanValidator,
        "check_pass",
        "qsan.check",
        lambda _args, found: {"violations": len(found)},
    )
    trace_method(recorder, StatevectorSimulator, "statevector", "sim")
    trace_method(recorder, StatevectorSimulator, "run", "sim")
    trace_function(recorder, unitary, "circuit_unitary", "sim")


# -- the wire -------------------------------------------------------------------

PROTOCOL_FUNCTIONS = (
    "encode_frame",
    "decode_frame",
    "encode_jobs",
    "decode_jobs",
    "encode_results",
    "decode_results",
)


def _install_wire(recorder: Recorder) -> None:
    import repro.circuit.serialization as serialization
    import repro.server.protocol as protocol

    for attr in PROTOCOL_FUNCTIONS:
        trace_function(recorder, protocol, attr, "protocol")
    for attr in ("circuit_to_payload", "circuit_from_payload"):
        trace_function(recorder, serialization, attr, "serialization")


def install_client(recorder: Recorder) -> None:
    """Trace the client side of the wire.

    The client request span runs from the moment the request frame is
    encoded to the moment the reply frame starts decoding, and carries the
    frame digest so the server's span of the same request can be joined.
    """
    import repro.server.client as client

    _install_wire(recorder)
    encode, decode = client.encode_frame, client.decode_frame
    local = threading.local()

    @functools.wraps(encode)
    def encode_frame(envelope):
        frame = encode(envelope)
        if recorder.enabled:
            local.pending = (frame_digest(frame), now())
        return frame

    @functools.wraps(decode)
    def decode_frame(data):
        pending = getattr(local, "pending", None)
        if pending is not None and recorder.enabled:
            local.pending = None
            digest, start = pending
            recorder.record("client.request", start, now(), request=digest)
        return decode(data)

    client.encode_frame = encode_frame
    client.decode_frame = decode_frame


def install_server(recorder: Recorder) -> None:
    """Trace the server: request handling, protocol, serialization, the
    result cache, job submission and every compile in the pool workers."""
    import repro.server.app as app
    from repro.transpiler.result_cache import ResultCache
    from repro.transpiler.service import CACHE_PROPERTY, CompileService

    _install_wire(recorder)
    install_compile(recorder)

    handle = app.CompileServer.__dict__["handle_compile"]

    @functools.wraps(handle)
    def handle_compile(self, body):
        if not recorder.enabled:
            return handle(self, body)
        span = recorder.open("server.handle_compile", request=frame_digest(body))
        try:
            return handle(self, body)
        finally:
            recorder.close(span, {"bytes_in": len(body)})

    app.CompileServer.handle_compile = handle_compile

    send = app.encode_frame

    @functools.wraps(send)
    def encode_frame(envelope):
        frame = send(envelope)
        if recorder.enabled:
            recorder.record("server.reply", now(), now(), attrs={"bytes_out": len(frame)})
        return frame

    app.encode_frame = encode_frame

    trace_method(
        recorder,
        ResultCache,
        "lookup",
        "result_cache.lookup",
        lambda _args, found: {"kind": "miss" if found is None else found[1]},
    )
    trace_method(recorder, ResultCache, "store", "result_cache.store")

    submit = CompileService.__dict__["submit_payloads"]

    @functools.wraps(submit)
    def submit_payloads(self, jobs):
        if not recorder.enabled:
            return submit(self, jobs)
        # job spans hang off the request span, so its self time excludes
        # the time spent waiting on them
        parent, request = recorder.current()
        span = recorder.open("service.submit_payloads")
        try:
            futures = submit(self, jobs)
        finally:
            recorder.close(span)

        def done(future):
            end = now()
            attrs = {}
            if not future.cancelled() and future.exception() is None:
                result = future.result()
                if result.properties.get(CACHE_PROPERTY) is None:
                    attrs["compile_s"] = result.time
            recorder.record("service.job", span["start"], end, parent, request, attrs)

        for future in futures:
            future.add_done_callback(done)
        return futures

    CompileService.submit_payloads = submit_payloads
