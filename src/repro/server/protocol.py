"""The compile server's wire protocol: versioned, length-prefixed frames.

One frame is one message.  Its layout::

    +-------+---------+------------------+----------------+
    | magic | version | body length (u32)| JSON body ...  |
    | 4 B   | 1 B     | 4 B big-endian   | length bytes   |
    +-------+---------+------------------+----------------+

The body is UTF-8 JSON, so envelopes stay greppable on the wire and
debuggable with ``curl``; binary leaves -- the compact circuit payloads of
:mod:`repro.circuit.serialization`, :class:`~repro.transpiler.target.Target`
payloads, pickled pass metrics -- ride inside it as base64 *blobs*
(:func:`pack_blob` / :func:`unpack_blob`).  The frame header makes every
message self-delimiting independently of the HTTP transport, so the same
encoding works over a raw socket, a file, or a queue.

Malformed input of any flavour -- truncated frame, wrong magic, foreign
protocol version, length/body mismatch, non-JSON body, corrupt base64 or
pickle -- raises :class:`ProtocolError` (a
:class:`~repro.transpiler.exceptions.TranspilerError`), never a bare
``struct``/``json``/``pickle`` exception, so callers have exactly one
failure mode to handle and the server can map it to HTTP 400.

Job envelopes are **chunked**: one ``compile`` envelope carries any number
of jobs (each its own circuit + target + settings blob), so a huge batch
of cheap circuits costs one request per *chunk* rather than per circuit.
:func:`split_chunks` is the (index-preserving) split helper.

Frames carry version 2 and version-1 frames are still accepted (see
:data:`ACCEPTED_VERSIONS`); the ``compile``, ``result`` and ``error``
envelopes are the same under both.  A result's compiled-result-cache
disposition travels inside its blob, in ``properties["result_cache"]``.
"""

from __future__ import annotations

import base64
import json
import pickle
import struct
from typing import Sequence

from repro.transpiler.exceptions import TranspilerError

__all__ = [
    "PROTOCOL_VERSION",
    "ACCEPTED_VERSIONS",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "pack_blob",
    "unpack_blob",
    "encode_jobs",
    "decode_jobs",
    "encode_results",
    "decode_results",
    "encode_error",
    "split_chunks",
]

#: Version byte of the frame header.
PROTOCOL_VERSION = 2

#: Versions this build decodes.  Every envelope this build speaks reads
#: the same under version 1, so those frames remain fully readable;
#: frames from the future are rejected.
ACCEPTED_VERSIONS = (1, 2)

_MAGIC = b"RPOC"
_HEADER = struct.Struct(">4sBI")

#: Frames above this are rejected before allocation -- a corrupt length
#: field must not make the receiver try to allocate gigabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class ProtocolError(TranspilerError):
    """A malformed, truncated or foreign-version wire message."""


# -- framing ----------------------------------------------------------------


def encode_frame(envelope: dict) -> bytes:
    """Serialize one envelope dict into a self-delimiting frame."""
    body = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(_MAGIC, PROTOCOL_VERSION, len(body)) + body


def decode_frame(data: bytes) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on anything off."""
    if len(data) < _HEADER.size:
        raise ProtocolError(
            f"truncated frame: {len(data)} bytes is shorter than the "
            f"{_HEADER.size}-byte header"
        )
    magic, version, length = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {_MAGIC!r})")
    if version not in ACCEPTED_VERSIONS:
        raise ProtocolError(
            f"foreign protocol version {version} (this build speaks "
            f"{', '.join(map(str, ACCEPTED_VERSIONS))})"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    body = data[_HEADER.size :]
    if len(body) != length:
        raise ProtocolError(
            f"frame length mismatch: header promises {length} body bytes, "
            f"got {len(body)}"
        )
    try:
        envelope = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from None
    if not isinstance(envelope, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(envelope).__name__}"
        )
    return envelope


# -- binary leaves ----------------------------------------------------------


def pack_blob(obj) -> str:
    """Pickle ``obj`` and wrap it base64 for a JSON envelope."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_blob(blob: str):
    """Inverse of :func:`pack_blob`; :class:`ProtocolError` on corruption."""
    if not isinstance(blob, str):
        raise ProtocolError(f"blob must be a string, got {type(blob).__name__}")
    try:
        raw = base64.b64decode(blob.encode("ascii"), validate=True)
    except Exception as exc:
        raise ProtocolError(f"corrupt base64 blob: {exc}") from None
    try:
        return pickle.loads(raw)
    except Exception as exc:
        raise ProtocolError(f"corrupt pickle blob: {exc}") from None


# -- job / result envelopes -------------------------------------------------
#
# A job is (circuit_payload, target_payload, settings) -- exactly the tuple
# the CompileService's chunked worker envelope carries, so the server can
# hand decoded jobs straight to its service.  Settings may contain
# non-JSON values (an initial Layout, None-vs-absent distinctions), so the
# whole job tuple travels as one blob.


def encode_jobs(jobs: Sequence[tuple]) -> dict:
    """A ``compile`` envelope carrying one chunk of job tuples."""
    return {
        "type": "compile",
        "protocol": PROTOCOL_VERSION,
        "jobs": [pack_blob(job) for job in jobs],
    }


def decode_jobs(envelope: dict) -> list[tuple]:
    """Job tuples of a ``compile`` envelope; validates the shape."""
    if envelope.get("type") != "compile":
        raise ProtocolError(
            f"expected a 'compile' envelope, got {envelope.get('type')!r}"
        )
    blobs = envelope.get("jobs")
    if not isinstance(blobs, list):
        raise ProtocolError("compile envelope lacks a 'jobs' list")
    jobs = []
    for blob in blobs:
        job = unpack_blob(blob)
        if not isinstance(job, tuple) or len(job) != 3:
            raise ProtocolError(
                "job blob must decode to a (circuit, target, settings) tuple"
            )
        jobs.append(job)
    return jobs


def encode_results(outcomes: Sequence[tuple]) -> dict:
    """A ``result`` envelope: per-job ``("ok", payloads)`` / ``("error", exc)``.

    Mirrors the chunked worker envelope's outcome shape -- errors stay
    per-job so one bad circuit reports *its* failure while its chunk-mates
    come back compiled.
    """
    results = []
    for status, value in outcomes:
        if status == "ok":
            results.append({"ok": True, "blob": pack_blob(value)})
        else:
            results.append(
                {
                    "ok": False,
                    "error": str(value),
                    "kind": type(value).__name__,
                }
            )
    return {
        "type": "result",
        "protocol": PROTOCOL_VERSION,
        "results": results,
    }


def decode_results(envelope: dict) -> list[tuple]:
    """Outcome tuples of a ``result`` envelope (inverse of
    :func:`encode_results`); server-side errors come back as
    :class:`~repro.transpiler.exceptions.TranspilerError` instances."""
    if envelope.get("type") == "error":
        raise ProtocolError(
            f"server error: {envelope.get('error', 'unknown failure')}"
        )
    if envelope.get("type") != "result":
        raise ProtocolError(
            f"expected a 'result' envelope, got {envelope.get('type')!r}"
        )
    entries = envelope.get("results")
    if not isinstance(entries, list):
        raise ProtocolError("result envelope lacks a 'results' list")
    outcomes = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ProtocolError("result entry must be an object")
        if entry.get("ok"):
            blob = entry.get("blob")
            if blob is None:
                raise ProtocolError("ok-result entry lacks its 'blob'")
            outcomes.append(("ok", unpack_blob(blob)))
        else:
            message = entry.get("error", "job failed remotely")
            kind = entry.get("kind")
            label = f"{kind}: {message}" if kind not in (None, "TranspilerError") else message
            outcomes.append(("error", TranspilerError(label)))
    return outcomes


def encode_error(message: str) -> dict:
    """An ``error`` envelope for request-level failures (HTTP 400/500)."""
    return {"type": "error", "protocol": PROTOCOL_VERSION, "error": str(message)}


# -- chunking ---------------------------------------------------------------


def split_chunks(items: Sequence, chunk_size: int) -> list[list]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ProtocolError(f"chunk_size must be >= 1, got {chunk_size}")
    items = list(items)
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
