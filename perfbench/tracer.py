"""Span tracing of the ``repro`` layers, installed from outside the program.

:class:`Tracer` replaces public functions of ``repro.*`` modules (and
methods of their classes) with timing wrappers, and puts the originals
back on :meth:`Tracer.uninstall`.  No file of the program under test is
changed.  Every wrapped call records one :class:`Span`: its name,
start, end, thread, parent span and the operation it belongs to.
Garbage-collector pauses are recorded as ``gc`` spans through
``gc.callbacks``.

Parents come from a per-thread stack of open spans.  A span opened on a
thread whose stack is empty is adopted:

* an ``rpc.server_handle`` span (an HTTP server thread) by the open
  ``net.exchange`` span to the same peer, so the exchange's self time is
  the time the client waited on the wire and the HTTP stack;
* any other span (a fan-out worker thread) by the innermost span open
  on the thread that runs the operation.

With one client in a closed loop, every span that starts while an
operation runs belongs to that operation, whatever its thread.

:func:`self_times` turns one operation's spans into self times with a
sweep over time.  At every instant the elapsed time goes to the open
spans that have no open child; when parallel branches overlap, the
overlapped time is shared equally between them.  Without concurrency
this is exactly "span duration minus the time its children cover", and
the self times of an operation always add up to its wall time.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

EXCHANGE = "net.exchange"
SERVER_HANDLE = "rpc.server_handle"
GC = "gc"
OP = "op"


@dataclass(eq=False, slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    thread: int
    parent: Optional["Span"]
    op: Optional[int]
    attrs: Optional[dict] = None


def _payload_size(content: Any) -> int:
    if isinstance(content, str):
        return len(content.encode("utf-8"))
    if isinstance(content, (bytes, bytearray)):
        return len(content)
    return 0


def layer_targets() -> list[tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, attrs-from-args)`` per wrapped call.

    SOAP codec functions and ``apply_updates`` are wrapped at the module
    that imported them, because that module's global is what its code
    calls.
    """
    import repro.rpc.client as client
    import repro.rpc.isolation as isolation
    import repro.rpc.peer as peer
    import repro.rpc.server as server
    import repro.xquf.pul as pul
    from repro.engine.base import Engine
    from repro.net.http import HttpTransport
    from repro.net.transport import normalize_peer_uri
    from repro.rpc.store import DocumentStore
    from repro.session import Database

    return [
        (HttpTransport, "exchange", EXCHANGE,
         lambda args: {"peer": normalize_peer_uri(args[1].destination)}),
        (server.XRPCServer, "handle", SERVER_HANDLE,
         lambda args: {"peer": args[0].peer.host}),
        (peer.XRPCPeer, "run_function", "rpc.server_call", None),
        (peer.XRPCPeer, "execute_query", "rpc.origin", None),
        (client.ClientSession, "send_txn_command", "rpc.txn", None),
        (client, "build_request", "soap.build_request", None),
        (client, "build_txn_command", "soap.build_request", None),
        (client, "parse_message", "soap.parse_reply", None),
        (server, "parse_message", "soap.parse_request", None),
        (server, "build_response", "soap.build_response", None),
        (server, "build_txn_result", "soap.build_response", None),
        (server, "build_fault", "soap.build_response", None),
        (Engine, "compile_with_stats", "engine.compile", None),
        (Engine, "analyze", "analysis.analyze", None),
        (Engine, "attempt_lifted", "pathfinder.lifted", None),
        (Engine, "record_plan", "engine.record_plan",
         lambda args: {"plan": args[1]}),
        (Database, "execute", "session.execute", None),
        (Database, "search", "search.slca", None),
        (server, "apply_updates", "xquf.apply", None),
        (peer, "apply_updates", "xquf.apply", None),
        (isolation, "apply_updates", "xquf.apply", None),
        (pul, "apply_updates", "xquf.apply", None),
        (DocumentStore, "register", "xml.register",
         lambda args: {"bytes": _payload_size(args[2] if len(args) > 2
                                              else None)}),
    ]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._open_exchanges: dict[str, list[Span]] = {}
        # (owner, attribute, original, wrapper), built on first install.
        self._swaps: list[tuple[Any, str, Any, Any]] = []
        self._installed = False

    # -- per-thread state --------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = self._local.__dict__.get("stack")
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt(self, name: str, attrs: Optional[dict]) -> Optional[Span]:
        """Parent of a span opened on a thread with no open span."""
        if name == SERVER_HANDLE and attrs is not None:
            waiting = self._open_exchanges.get(attrs["peer"])
            if waiting:
                return waiting[-1]
        try:
            return self._root_stack[-1]
        except IndexError:
            return None

    def _open(self, name: str, attrs: Optional[dict]) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._adopt(name, attrs)
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    threading.get_ident(), parent, self.op, attrs)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              extract: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            attrs = extract(args) if extract is not None else None
            span = tracer._open(name, attrs)
            if name == EXCHANGE:
                tracer._open_exchanges.setdefault(
                    attrs["peer"], []).append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                if name == EXCHANGE:
                    tracer._open_exchanges[attrs["peer"]].remove(span)
                tracer._close(span)

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open(GC, {"generation": info["generation"]})
            return
        stack = self._stack()
        if stack and stack[-1].name == GC:
            self._close(stack[-1])

    def install(self) -> None:
        """Swap every wrapper in."""
        if self._installed:
            return
        if not self._swaps:
            for owner, attribute, name, extract in layer_targets():
                original = owner.__dict__[attribute]
                self._swaps.append((owner, attribute, original,
                                    self._wrap(original, name, extract)))
        for owner, attribute, _, wrapper in self._swaps:
            setattr(owner, attribute, wrapper)
        gc.callbacks.append(self._on_gc)
        self._installed = True

    def uninstall(self) -> None:
        """Put every original back."""
        if not self._installed:
            return
        gc.callbacks.remove(self._on_gc)
        for owner, attribute, original, _ in self._swaps:
            setattr(owner, attribute, original)
        self._installed = False

    # -- operations --------------------------------------------------------

    def begin_op(self, op: int) -> Span:
        """Open the root span of one operation on the calling thread."""
        self.op = op
        self._root_stack = self._stack()
        return self._open(OP, None)

    def end_op(self, span: Span) -> None:
        self._close(span)
        self.op = None

    def by_op(self) -> dict[int, list[Span]]:
        grouped: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.op is not None:
                grouped[span.op].append(span)
        return grouped


def _depth(span: Span, memo: dict) -> int:
    depth = 0
    node = span.parent
    while node is not None:
        known = memo.get(node)
        if known is not None:
            depth += known + 1
            break
        depth += 1
        node = node.parent
    memo[span] = depth
    return depth


def self_times(root: Span, spans: list[Span]) -> dict[Span, float]:
    """Self time of every span of one operation, clipped to its root.

    Sweeps the operation's open/close events in time order and gives
    each interval to the open spans without an open child, split
    equally when branches run in parallel.
    """
    low, high = root.start, root.end
    memo: dict[Span, int] = {}
    events = []
    for span in spans:
        start, end = max(span.start, low), min(span.end, high)
        if end <= start:
            continue
        depth = _depth(span, memo)
        events.append((start, 1, depth, span.sid, span))
        events.append((end, 0, -depth, span.sid, span))
    events.sort(key=lambda event: event[:4])
    own: dict[Span, float] = defaultdict(float)
    open_children: dict[Span, int] = {}
    resolved: dict[Span, Optional[Span]] = {}
    leaves: set[Span] = set()
    previous = low
    for moment, opening, _, _, span in events:
        if leaves and moment > previous:
            share = (moment - previous) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        previous = moment
        if opening:
            parent = span.parent
            while parent is not None and parent not in open_children:
                parent = parent.parent
            resolved[span] = parent
            open_children[span] = 0
            leaves.add(span)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            parent = resolved.pop(span)
            open_children.pop(span)
            leaves.discard(span)
            if parent is not None and parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own
