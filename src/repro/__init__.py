"""Reproduction of "XRPC: Interoperable and Efficient Distributed XQuery"
(Zhang & Boncz, VLDB 2007).

Public API highlights:

* :class:`repro.session.Database` — the unified session API: register
  documents, ``prepare``/``execute`` queries (lifted plan first,
  interpreter fallback), ``explain()`` telemetry, bounded plan cache.
* :class:`repro.rpc.XRPCPeer` — a full XRPC peer (engine + store +
  server + client); ``execute_query`` originates distributed queries
  through the same unified pipeline.
* :class:`repro.net.SimulatedNetwork` / :class:`repro.net.HttpTransport`
  — interchangeable transports.
* :class:`repro.wrapper.XRPCWrapper` — serve XRPC with any XQuery engine.
* :mod:`repro.experiments` — harnesses regenerating the paper's tables.

See README.md for a guided tour.
"""

__version__ = "1.0.0"

from repro.errors import (
    XRPCReproError,
    XQueryError,
    XRPCFault,
    TransportError,
    TransactionError,
)
from repro.session import (
    Database,
    DatabaseStats,
    ExecutionContext,
    Explain,
    PreparedQuery,
)

__all__ = [
    "__version__",
    "XRPCReproError",
    "XQueryError",
    "XRPCFault",
    "TransportError",
    "TransactionError",
    "Database",
    "DatabaseStats",
    "ExecutionContext",
    "Explain",
    "PreparedQuery",
]
