"""Real HTTP transport: SOAP XRPC over loopback HTTP POST.

Mirrors the paper's deployment — an "ultra-light HTTP daemon" running
the XRPC request handler — using :mod:`http.server` from the standard
library.  Used by interop tests and the throughput benchmark to show the
protocol really is plain SOAP-over-HTTP.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.errors import FatalTransportError, TransportError
from repro.net.pool import ConnectionPool, PeerStats, fan_out
from repro.net.transport import ExchangeSpec, Transport, normalize_peer_uri

Handler = Callable[[str], str]


class HttpXRPCServer:
    """Serves an XRPC handler at ``POST /xrpc`` on 127.0.0.1.

    Use as a context manager::

        with HttpXRPCServer(handler) as server:
            transport = HttpTransport({"peer": server.address})
    """

    def __init__(self, handler: Handler, port: int = 0) -> None:
        self._handler = handler
        outer = self

        class _RequestHandler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
                length = int(self.headers.get("Content-Length", "0"))
                payload = self.rfile.read(length).decode("utf-8")
                try:
                    response = outer._handler(payload)
                    status = 200
                except Exception as exc:  # handler bugs become HTTP 500
                    from repro.soap.messages import build_fault
                    response = build_fault("env:Receiver", str(exc))
                    status = 500
                body = response.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type",
                                 "application/soap+xml; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence stderr
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", port), _RequestHandler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "HttpXRPCServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "HttpXRPCServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _looks_like_soap(body: str) -> bool:
    """Heuristic: does an HTTP error body carry a SOAP envelope?"""
    head = body.lstrip()
    return head.startswith("<") and "Envelope" in head[:1024]


class HttpTransport(Transport):
    """Client side: maps peer keys to ``host:port`` HTTP endpoints.

    Connections are pooled per peer and kept alive across requests;
    ``exchange_many`` fans out over destination peers with one worker
    thread each, so a bulk dispatch to N peers costs ~max (not sum) of
    the per-peer latencies.  Call :meth:`close` (or use the transport as
    a context manager) to release pooled connections.
    """

    REQUEST_HEADERS = {
        "Content-Type": "application/soap+xml; charset=utf-8",
    }

    def __init__(self, endpoints: Optional[dict[str, str]] = None,
                 timeout: float = 30.0, breakers=None) -> None:
        # Logical peer URI/host -> "127.0.0.1:<port>".
        self._endpoints = {
            normalize_peer_uri(key): value
            for key, value in (endpoints or {}).items()
        }
        # `breakers` (a repro.net.retry.BreakerRegistry) arms the pool's
        # per-address fail-fast gate; None leaves breakers to the
        # ResilientChannel layer above (the usual arrangement — arming
        # both would double-count failures).
        self._pool = ConnectionPool(timeout=timeout, breakers=breakers)

    def register_endpoint(self, peer_uri: str, address: str) -> None:
        self._endpoints[normalize_peer_uri(peer_uri)] = address

    def _resolve(self, destination: str) -> str:
        key = normalize_peer_uri(destination)
        return self._endpoints.get(key, key)

    def peer_stats(self, peer_uri: str) -> PeerStats:
        """Connection/traffic counters for one peer (observability)."""
        return self._pool.stats(self._resolve(peer_uri))

    def exchange(self, spec: ExchangeSpec) -> str:
        address = self._resolve(spec.destination)
        status, body = self._pool.request(
            address, "/xrpc", spec.payload.encode("utf-8"),
            headers=self.REQUEST_HEADERS, retry_safe=spec.retry_safe,
            timeout=spec.timeout)
        text = body.decode("utf-8", errors="replace")
        if status >= 400 and not _looks_like_soap(text):
            # A misconfigured endpoint (HTML 404 page, proxy error, ...)
            # is a transport failure, not a SOAP fault to be parsed —
            # and not one a retry can cure.
            summary = " ".join(text.split())[:120] or "<empty body>"
            raise FatalTransportError(
                f"HTTP {status} from http://{address}/xrpc with non-SOAP "
                f"body: {summary}")
        # SOAP faults ride on HTTP 500; surface the fault envelope.
        return text

    def exchange_many(self,
                      specs: list[ExchangeSpec]) -> list[str | TransportError]:
        """Concurrent per-destination fan-out over pooled connections,
        capturing per-entry failures (the resilient batch path)."""
        return fan_out(self.exchange, specs)

    def close(self) -> None:
        self._pool.close()
