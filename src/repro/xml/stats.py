"""Parse-frontend telemetry.

:data:`PARSE_STATS` counts what the message-path parse frontend actually
did: how many documents (and how many bytes) each parser parsed, and
how often the expat frontend fell back to the pure-python parser
(malformed input re-diagnosed for uniform error
messages, or constructs outside the expat subset such as internal-subset
markup declarations).

Counters accumulate both process-wide (``snapshot()``, reported by
``Database.stats()``) and per *thread* (``snapshot_local()``): message
parsing runs on server worker threads, so per-execution deltas in
``Explain`` are taken against the executing thread's counters —
overlapping executions cannot attribute each other's parse work.  The
same discipline as :data:`repro.xdm.structural.ENCODING_STATS`.
"""

from __future__ import annotations

import threading


class ParseStats:
    """Thread-aware counters of the parse/serialize frontend."""

    FIELDS = ("documents_expat", "documents_python", "bytes_expat",
              "bytes_python", "fallbacks_to_python")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        for field in self.FIELDS:
            setattr(self, field, 0)

    def bump(self, field: str, count: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + count)
        local = self._local.__dict__  # thread-local: no lock needed
        local[field] = local.get(field, 0) + count

    def count_parse(self, parser: str, size: int) -> None:
        """Record one parsed document of *size* bytes/characters."""
        self.bump(f"documents_{parser}")
        self.bump(f"bytes_{parser}", size)

    def snapshot(self) -> dict[str, int]:
        """Process-wide totals."""
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}

    def snapshot_local(self) -> dict[str, int]:
        """The calling thread's totals (per-execution delta basis)."""
        local = self._local.__dict__
        return {field: local.get(field, 0) for field in self.FIELDS}

    def reset(self) -> None:
        with self._lock:
            for field in self.FIELDS:
                setattr(self, field, 0)
        self._local.__dict__.clear()


#: The process-wide counter instance (messages parse on any thread).
PARSE_STATS = ParseStats()
