"""The networked compile server: an HTTP/RPC front over the compile stack.

This package turns the in-process
:class:`~repro.transpiler.service.CompileService` into a wire service, so
one long-lived service can compile for clients on other machines -- the
step the compact job envelopes of :mod:`repro.circuit.serialization` were
shaped for.  Three pieces, bottom to top:

* :mod:`repro.server.protocol` -- versioned, length-prefixed frames
  (base64 blobs over JSON) carrying chunked job envelopes;
  anything malformed raises :class:`ProtocolError`.
* :mod:`repro.server.app` -- :class:`CompileServer`, a stdlib
  ``ThreadingHTTPServer`` wrapping one persistent service: ``POST
  /compile``, ``GET /healthz``, ``GET /metrics``, ``POST /shutdown``.
  ``python -m repro.server`` boots one from the shell.
* :mod:`repro.server.client` -- :class:`RemoteCompileService`, the
  drop-in client mirroring ``submit()``/``map()``; pass it anywhere a
  local service goes (``transpile(..., service=remote)``) or let the
  front-end build one (``executor="remote", endpoint=...``).
"""

from repro.server.app import CompileServer
from repro.server.client import RemoteCompileService
from repro.server.protocol import PROTOCOL_VERSION, ProtocolError

__all__ = [
    "CompileServer",
    "RemoteCompileService",
    "ProtocolError",
    "PROTOCOL_VERSION",
]
