"""Fault-tolerance layer: deadlines, retry/backoff, circuit breakers.

XRPC ships one bulk SOAP message per peer over real networks (ZhangB07
section 3.2), where connections drop, peers stall, and responses arrive
torn.  This module supplies the policy layer between the RPC client and
the raw :class:`~repro.net.transport.Transport`:

* :class:`Deadline` — a per-query time budget measured on the
  transport's clock (virtual in simulation, monotonic wall time over
  HTTP).  Every exchange carries the *remaining* budget as its socket
  timeout and echoes it to the remote peer in a SOAP header so doomed
  work is abandoned on both sides.
* :class:`RetryPolicy` — bounded exponential backoff with seeded,
  deterministic jitter.  Whether a failed exchange may be retried is
  decided by the error taxonomy (``request_sent``) crossed with the
  caller's ``retry_safe`` verdict — the static analyzer's updating-ness
  result, never a payload sniff.
* :class:`CircuitBreaker` / :class:`BreakerRegistry` — per-destination
  closed/open/half-open state so a dead peer fails fast
  (:class:`~repro.errors.CircuitOpenError`) instead of burning the
  deadline on every bulk round.
* :class:`ResilientChannel` — the driver tying those together around
  ``Transport.exchange``/``exchange_many``: fresh payload per attempt
  (new exchange id, current remaining budget), failure classification,
  backoff capped by the deadline, and per-entry error capture for the
  partial-results ("degrade") policy.

Every decision the layer takes is counted in :data:`NET_STATS`
(process-wide totals for ``Database.stats()``; the executing query's
:func:`~repro.obs.tally` for its ``Explain``).  A caller that passes a
:class:`NetEvents` sink also learns which peers failed, for
degraded-result reports.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (CircuitOpenError, DeadlineExceeded,
                          FatalTransportError, RetryableTransportError,
                          TransportError)
from repro.net.clock import VirtualClock, WallClock
from repro.net.transport import ExchangeSpec, Transport, normalize_peer_uri
from repro.obs import Counters

#: Fault-tolerance telemetry.  ``exchanges`` — attempts handed to the
#: transport (including retries); ``retries`` — re-attempts after a
#: retryable failure; ``retry_giveups`` — exchanges abandoned with
#: attempts exhausted; ``breaker_opens`` — closed/half-open -> open
#: transitions; ``breaker_fast_fails`` — exchanges refused without
#: touching the network because the destination's breaker was open;
#: ``deadline_expired`` — exchanges (or backoff waits) cut short by the
#: query deadline; ``degraded_peers`` — peers skipped under the
#: ``on_peer_failure="degrade"`` partial-results policy;
#: ``faults_injected`` — faults the chaos harness actually injected.
NET_STATS = Counters("exchanges", "retries", "retry_giveups",
                     "breaker_opens", "breaker_fast_fails",
                     "deadline_expired", "degraded_peers", "faults_injected")


class NetEvents:
    """Per-execution record of the peers a partial-results fan-out lost.

    Event counts go to :data:`NET_STATS` (and so to the execution's
    :func:`~repro.obs.tally`); the caller passes one of these through
    the exchange only to learn which peers failed.
    """

    def __init__(self) -> None:
        # Normalized peer keys whose exchanges were abandoned, in
        # first-failure order (feeds `failed_peers` in degraded results).
        self.failed_peers: list[str] = []
        # Peers already counted as degraded (one per peer per execution,
        # however many of its bulk groups failed).
        self.degraded_counted: set[str] = set()

    def peer_failed(self, destination: str) -> None:
        key = normalize_peer_uri(destination)
        if key not in self.failed_peers:
            self.failed_peers.append(key)


class Deadline:
    """An absolute expiry on a transport clock; ``remaining()`` >= 0.

    Built from the query's ``xrpc:timeout`` option (or an explicit
    ``timeout=`` argument) with :meth:`after`; remote peers rebuild one
    from the ``remaining`` budget echoed in the request's SOAP header,
    so the budget shrinks monotonically across hops.
    """

    def __init__(self, expires_at: float, clock) -> None:
        self.expires_at = expires_at
        self.clock = clock

    @classmethod
    def after(cls, seconds: float, clock) -> "Deadline":
        return cls(clock.now() + seconds, clock)

    def remaining(self) -> float:
        return max(0.0, self.expires_at - self.clock.now())

    def expired(self) -> bool:
        return self.clock.now() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


@dataclass
class RetryPolicy:
    """Bounded exponential backoff with seeded, deterministic jitter.

    ``backoff(attempt)`` returns the delay after the ``attempt``-th
    failure: ``base_delay * multiplier**(attempt-1)`` capped at
    ``max_delay``, scaled by a jitter factor drawn uniformly from
    ``[1-jitter, 1+jitter]``.  The jitter RNG is seeded so fault
    schedules replay identically; pass ``jitter=0`` to disable.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def backoff(self, attempt: int) -> float:
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** max(0, attempt - 1))
        if self.jitter:
            with self._lock:
                factor = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
            delay *= factor
        return delay


class CircuitBreaker:
    """Per-destination closed/open/half-open breaker state machine.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` refuses exchanges (the caller fails fast with
    :class:`~repro.errors.CircuitOpenError`) until ``cooldown`` seconds
    elapse, after which exactly one half-open probe is let through — its
    success closes the circuit, its failure re-opens it for another
    cooldown.  Thread-safe; time is supplied by the caller so the same
    machine runs on virtual and wall clocks.
    """

    def __init__(self, failure_threshold: int = 5,
                 cooldown: float = 30.0) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.opens = 0
        self._probe_in_flight = False

    def allow(self, now: float) -> bool:
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                if now - self.opened_at < self.cooldown:
                    return False
                self.state = "half-open"
                self._probe_in_flight = True
                return True
            # half-open: one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self.state = "closed"
            self.consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self, now: float) -> bool:
        """Count one failure; returns True when this opened the circuit."""
        with self._lock:
            self.consecutive_failures += 1
            tripped = (self.state == "half-open"
                       or self.consecutive_failures >= self.failure_threshold)
            if not tripped:
                return False
            newly_opened = self.state != "open"
            self.state = "open"
            self.opened_at = now
            self._probe_in_flight = False
            if newly_opened:
                self.opens += 1
            return newly_opened

    def retry_after(self, now: float) -> float:
        with self._lock:
            if self.state != "open":
                return 0.0
            return max(0.0, self.cooldown - (now - self.opened_at))


class _NullBreaker(CircuitBreaker):
    """Always-closed breaker used when breakers are disabled."""

    def allow(self, now: float) -> bool:
        return True

    def record_failure(self, now: float) -> bool:
        return False

    def record_success(self) -> None:
        pass


class BreakerRegistry:
    """One :class:`CircuitBreaker` per normalized destination key."""

    def __init__(self, failure_threshold: int = 5, cooldown: float = 30.0,
                 enabled: bool = True) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.enabled = enabled
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._null = _NullBreaker()

    def get(self, destination: str) -> CircuitBreaker:
        if not self.enabled:
            return self._null
        key = normalize_peer_uri(destination)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(self.failure_threshold, self.cooldown)
                self._breakers[key] = breaker
            return breaker

    def snapshot(self) -> dict[str, str]:
        """Destination key -> breaker state (observability)."""
        with self._lock:
            return {key: breaker.state
                    for key, breaker in self._breakers.items()}


@dataclass
class ChannelRequest:
    """One logical exchange for :meth:`ResilientChannel.exchange_many`.

    ``build(attempt, remaining)`` produces the wire payload for one
    attempt — called fresh per attempt so each carries a new exchange id
    and the *current* remaining deadline budget; ``parse(response)``
    decodes the reply, raising
    :class:`~repro.errors.RetryableTransportError` (``request_sent=True``)
    for torn/garbage/stale responses so they re-enter the retry matrix.
    """

    destination: str
    build: Callable[[int, float | None], str]
    parse: Callable[[str], Any]
    retry_safe: bool = True
    # Memoized destination breaker (resolved by the channel on first use).
    _breaker: Any = None


class ResilientChannel:
    """Retry/breaker/deadline driver around a :class:`Transport`.

    The single enforcement point for the fault-tolerance policy: both
    the real HTTP transport and the simulated network (and anything the
    fault harness wraps) go through the same classification, backoff,
    and breaker logic.  Backoff waits advance the transport's virtual
    clock in simulation and really sleep over HTTP.
    """

    def __init__(self, transport: Transport,
                 policy: RetryPolicy | None = None,
                 breakers: BreakerRegistry | None = None,
                 clock=None) -> None:
        self.transport = transport
        self.policy = policy or RetryPolicy()
        self.breakers = breakers or BreakerRegistry()
        self.clock = clock or getattr(transport, "clock", None) or WallClock()

    def exchange(self, destination: str,
                 build: Callable[[int, float | None], str],
                 parse: Callable[[str], Any],
                 retry_safe: bool = True,
                 deadline: Deadline | None = None) -> Any:
        """Run one exchange to completion: a batch of one."""
        entry = ChannelRequest(destination, build, parse, retry_safe)
        return self.exchange_many([entry], deadline)[0]

    def exchange_many(self, entries: list[ChannelRequest],
                      deadline: Deadline | None = None,
                      events: NetEvents | None = None,
                      capture: bool = False) -> list[Any]:
        """Dispatch a batch; first attempts ride the transport's parallel
        fan-out, stragglers retry individually.

        With ``capture=True`` (the partial-results path) a failed
        entry's slot holds its final :class:`TransportError` instead of
        raising, and the failing peer lands in ``events.failed_peers``.
        """
        results: list[Any] = [None] * len(entries)
        # Round 1: open every entry (deadline/breaker gate + build),
        # batch the allowed ones through the transport's own fan-out.
        specs: list[ExchangeSpec] = []
        owners: list[int] = []
        pending: list[tuple[int, TransportError]] = []
        for index, entry in enumerate(entries):
            try:
                specs.append(self._open_spec(entry, 1, deadline))
                owners.append(index)
            except TransportError as exc:
                pending.append((index, exc))
        raw = self.transport.exchange_many(specs) if specs else []
        for outcome, index in zip(raw, owners):
            entry = entries[index]
            try:
                results[index] = self._close(entry, outcome)
            except TransportError as exc:
                pending.append((index, exc))
        # Round 2+: retry the failures one by one (rare path).
        for index, exc in sorted(pending, key=lambda item: item[0]):
            entry = entries[index]
            try:
                results[index] = self._finish(entry, exc, deadline)
            except TransportError as final:
                if not capture:
                    raise
                if events is not None:
                    events.peer_failed(entry.destination)
                results[index] = final
        return results

    # -- internals -------------------------------------------------------

    def _finish(self, entry: ChannelRequest, exc: TransportError,
                deadline: Deadline | None) -> Any:
        """Drive one entry from its first failure to success or give-up."""
        attempt = 1
        while True:
            attempt = self._plan_retry(entry, attempt, exc, deadline)
            try:
                return self._attempt(entry, attempt, deadline)
            except TransportError as next_exc:
                exc = next_exc

    def _attempt(self, entry: ChannelRequest, attempt: int,
                 deadline: Deadline | None) -> Any:
        spec = self._open_spec(entry, attempt, deadline)
        try:
            outcome: str | TransportError = self.transport.exchange(spec)
        except TransportError as exc:
            outcome = exc
        return self._close(entry, outcome)

    def _breaker(self, entry: ChannelRequest) -> CircuitBreaker:
        """Resolve (and memoize) the entry's destination breaker —
        every attempt's gate and verdict hit the same one."""
        breaker = entry._breaker
        if breaker is None:
            breaker = entry._breaker = self.breakers.get(entry.destination)
        return breaker

    def _open_spec(self, entry: ChannelRequest, attempt: int,
                   deadline: Deadline | None) -> ExchangeSpec:
        """Deadline/breaker gate, then build this attempt's payload."""
        remaining: float | None = None
        if deadline is not None:
            if deadline.expired():
                NET_STATS.bump("deadline_expired")
                raise DeadlineExceeded(
                    f"query deadline exhausted before exchange with "
                    f"{entry.destination!r}")
            remaining = deadline.remaining()
        breaker = self._breaker(entry)
        if breaker.state != "closed":
            now = self.clock.now()
            if not breaker.allow(now):
                NET_STATS.bump("breaker_fast_fails")
                raise CircuitOpenError(normalize_peer_uri(entry.destination),
                                       breaker.retry_after(now))
        NET_STATS.bump("exchanges")
        return ExchangeSpec(entry.destination,
                            entry.build(attempt, remaining),
                            retry_safe=entry.retry_safe, timeout=remaining)

    def _close(self, entry: ChannelRequest,
               outcome: str | TransportError) -> Any:
        """Parse one attempt's outcome, keeping the breaker informed."""
        breaker = self._breaker(entry)
        if isinstance(outcome, TransportError):
            self._record_failure(breaker)
            raise outcome
        try:
            result = entry.parse(outcome)
        except RetryableTransportError:
            # Torn/garbage/stale response: the peer misbehaved even
            # though bytes came back.
            self._record_failure(breaker)
            raise
        except Exception:
            # A decoded SOAP fault (XRPCFault etc.) means the peer is
            # alive and answering — success as far as the breaker cares.
            breaker.record_success()
            raise
        breaker.record_success()
        return result

    def _plan_retry(self, entry: ChannelRequest, attempt: int,
                    exc: TransportError, deadline: Deadline | None) -> int:
        """Decide whether attempt N+1 happens; backs off and returns its
        number, or re-raises ``exc``."""
        if not self._may_retry(exc, entry.retry_safe):
            raise exc
        if attempt >= self.policy.max_attempts:
            NET_STATS.bump("retry_giveups")
            raise exc
        delay = self.policy.backoff(attempt)
        if deadline is not None and deadline.remaining() <= delay:
            NET_STATS.bump("deadline_expired")
            raise DeadlineExceeded(
                f"query deadline exhausted while backing off for "
                f"{entry.destination!r}") from exc
        NET_STATS.bump("retries")
        self._sleep(delay)
        return attempt + 1

    @staticmethod
    def _may_retry(exc: TransportError, retry_safe: bool) -> bool:
        if isinstance(exc, (FatalTransportError, DeadlineExceeded)):
            # CircuitOpenError is Fatal: retrying would just burn the
            # deadline against a closed gate.
            return False
        if isinstance(exc, RetryableTransportError):
            return retry_safe or not exc.request_sent
        # Bare TransportError: conservatively assume the request may
        # have reached the peer.
        return retry_safe

    def _record_failure(self, breaker: CircuitBreaker) -> None:
        if breaker.record_failure(self.clock.now()):
            NET_STATS.bump("breaker_opens")

    def _sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        if isinstance(self.clock, VirtualClock):
            self.clock.advance(seconds)
        else:  # pragma: no cover - wall-clock sleeps are avoided in tests
            time.sleep(seconds)
