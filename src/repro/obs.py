"""Telemetry counters: one process-wide registry, one per-execution tally.

Each subsystem declares its counter group where it lives, as a
:class:`Counters` instance with the group's field names:
:data:`~repro.xdm.structural.ENCODING_STATS` (update path),
:data:`~repro.xml.parser.PARSE_STATS` (parse frontend),
:data:`~repro.search.stats.SEARCH_STATS` (keyword search) and
:data:`~repro.net.retry.NET_STATS` (fault tolerance).  Field names are
unique across groups, so all totals live in one registry under one
lock: ``group.snapshot()`` reads a group, :func:`totals` reads them all
(``Database.stats()``).

:func:`tally` scopes counting to one execution.  It opens a fresh
:class:`collections.Counter` in a :class:`contextvars.ContextVar`, and
every ``bump`` made in that context also lands there.  Work on another
thread, or in another context (a remote peer's handler, which
:class:`~repro.net.simulated.SimulatedNetwork` runs in a fresh
:class:`contextvars.Context`, as the HTTP daemon runs it on a server
thread), counts only in the process-wide totals: concurrent executions
never charge each other, and remote work is charged to the callee.
A query's own counts are all bumped on its thread: the channel's retry
loop, reply parsing and PUL application run there, and the HTTP fan-out
workers only move bytes, so no context is copied to them.  A counter
bumped on a worker thread would need that copy to reach the tally.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

_LOCK = threading.Lock()
# Every declared field -> its process-wide total.  A plain dict, so a
# bump of an undeclared field fails loudly instead of counting silently.
_TOTALS: dict[str, int] = {}
_TALLY: ContextVar[Optional[Counter[str]]] = ContextVar(
    "repro_tally", default=None)


class Counters:
    """One subsystem's group of process-wide counters."""

    def __init__(self, *fields: str) -> None:
        self.fields = fields
        with _LOCK:
            for name in fields:
                if name in _TOTALS:
                    raise ValueError(f"counter {name!r} declared twice")
                _TOTALS[name] = 0

    def bump(self, field: str, count: int = 1) -> None:
        """Add *count* to the process-wide total and the open tally."""
        with _LOCK:
            _TOTALS[field] += count
        counts = _TALLY.get()
        if counts is not None:
            counts[field] += count

    def snapshot(self) -> dict[str, int]:
        """This group's process-wide totals."""
        with _LOCK:
            return {name: _TOTALS[name] for name in self.fields}


def totals() -> Counter[str]:
    """Every group's process-wide totals, merged."""
    with _LOCK:
        return Counter(_TOTALS)


@contextmanager
def tally() -> Iterator[Counter[str]]:
    """Count the bumps of one execution in this context.

    A tally opened inside another adds its counts to the outer one when
    it closes, so an enclosing execution still sees the nested work.
    """
    counts: Counter[str] = Counter()
    token = _TALLY.set(counts)
    try:
        yield counts
    finally:
        _TALLY.reset(token)
        outer = _TALLY.get()
        if outer is not None:
            outer.update(counts)
