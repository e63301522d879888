"""Transport interface and peer URI handling.

The paper introduces the ``xrpc://<host>[:port][/[path]]`` URI scheme
accepted by ``execute at``.  :func:`normalize_peer_uri` reduces any such
URI (or a bare host name) to the canonical ``host[:port]`` key that
transports route on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import TransportError


def normalize_peer_uri(uri: str) -> str:
    """Canonical peer key from an xrpc:// (or http://) URI or bare host."""
    for scheme in ("xrpc://", "http://", "https://"):
        if uri.startswith(scheme):
            uri = uri[len(scheme):]
            break
    return uri.split("/", 1)[0].rstrip("/") or "localhost"


@dataclass
class ExchangeSpec:
    """One request/response exchange plus its fault-tolerance contract.

    ``retry_safe``
        Whether the exchange may be replayed after the request possibly
        reached the peer.  Decided by the *caller* from the static
        analyzer's updating-ness verdict (never by sniffing the payload
        text): read-only exchanges are idempotent under XRPC's
        repeatable-read isolation, updating ones are not.
    ``timeout``
        Remaining deadline budget in seconds, or ``None`` for the
        transport's default.  Real transports turn this into a socket
        timeout so a doomed exchange cannot outlive its query.
    """

    destination: str
    payload: str
    retry_safe: bool = True
    timeout: float | None = None


class Transport(ABC):
    """Sends one SOAP message to a destination peer, returns the reply."""

    @abstractmethod
    def exchange(self, spec: ExchangeSpec) -> str:
        """One synchronous request/response exchange (HTTP POST
        semantics) with its fault-tolerance contract attached.

        Transports that can honour ``retry_safe``/``timeout`` do so
        (:class:`~repro.net.http.HttpTransport` maps ``timeout`` to the
        socket timeout and ``retry_safe`` to the stale-keep-alive retry
        rule); others may ignore them.
        """

    def exchange_many(self,
                      specs: list[ExchangeSpec]) -> list[str | TransportError]:
        """Dispatch several exchanges, capturing per-entry failures.

        The paper's implementation dispatches Bulk RPC requests to
        multiple destination peers concurrently (section 3.2).  Every
        entry runs and its result slot holds either the response string
        or the ``TransportError`` that branch raised, so the
        retry/partial-results layer above can treat peers independently.
        The default runs sequentially; transports override for true
        parallelism (HTTP threads) or virtual-time branch overlap (the
        simulated network).
        """
        results: list[str | TransportError] = []
        for spec in specs:
            try:
                results.append(self.exchange(spec))
            except TransportError as exc:
                results.append(exc)
        return results

    def close(self) -> None:
        """Release transport resources (pooled connections, threads).

        Safe to call more than once; the default transport holds none.
        """

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
