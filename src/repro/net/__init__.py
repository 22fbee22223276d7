"""The network front door: wire protocol, socket server, and client.

``repro.net`` turns the in-process :class:`~repro.service.server.QueryService`
into a real network service without any dependency beyond the standard
library:

* :mod:`repro.net.protocol` — the versioned JSON wire format: bit-exact
  result encoding (Python's ``json`` round-trips ``float`` via ``repr``, so
  estimates, variances, and error bars survive the wire unchanged), the
  structured error-code taxonomy, and the envelope helpers shared by both
  ends.
* :mod:`repro.net.http` — the HTTP/1.1 framing both ends share: one header
  scan into a dict per message, ``Content-Length`` and chunked bodies, and
  one ``sendall`` per response, with the standard library's line and
  header-count limits.
* :mod:`repro.net.server` — :class:`~repro.net.server.NetworkServer`, a
  threaded HTTP/1.1 endpoint (``socketserver``) exposing submit/poll/cancel,
  chunked progressive streaming, EXPLAIN (ANALYZE), append-over-the-wire,
  Prometheus ``/metrics``, and ``/healthz`` — in front of a tenant-aware
  :class:`~repro.service.server.QueryService`.
* :mod:`repro.net.client` — :class:`~repro.net.client.Client`, a retrying
  wire client that maps structured errors back to the library's exception
  types (also exported as ``repro.client.Client``).

Load over the wire uses the one closed-loop driver,
:func:`repro.service.loadgen.run_closed_loop`, with a ``Client`` per client
thread as its transport.
"""

from repro.net.client import Client, NetTicket
from repro.net.protocol import PROTOCOL_VERSION, WireError
from repro.net.server import NetworkServer

__all__ = [
    "Client",
    "NetTicket",
    "NetworkServer",
    "PROTOCOL_VERSION",
    "WireError",
]
