"""The three benchmark workloads: inputs, operations and answer checks.

Each workload class builds its inputs from a seed in ``setup`` (the
timed set-up: generate and shred documents, start peers, one warm-up
pass), then hands out operations in ``cycle`` batches.  An
:class:`Op` is a ``run`` callable, timed by the harness, and a
``check`` that inspects the answer afterwards and returns an error text
or ``None``.  Checks read peer state directly from the in-process
stores, never through the engines, so they move no program counter.

Peers run in the benchmark's process, each behind its own
``HttpXRPCServer`` on 127.0.0.1; the origin keeps one keep-alive
connection per peer.  Traffic crosses the host loopback interface, not
a real link.
"""

from __future__ import annotations

import functools
import hashlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.engine import MonetEngine
from repro.net import HttpTransport, HttpXRPCServer
from repro.net.retry import NET_STATS
from repro.rpc import XRPCPeer
from repro.session import Database
from repro.workloads.modules import (GETPERSON_MODULE,
                                     GETPERSON_MODULE_LOCATION)
from repro.workloads.xmark import (KEYWORD_SUITE, READ_SUITE, XMarkConfig,
                                   generate_auctions, generate_persons)
from repro.xdm.atomic import integer, string
from repro.xml.serializer import serialize


@dataclass
class Op:
    kind: str                                # "read" | "write"
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def person_id(node) -> Optional[str]:
    for attribute in node.attributes:
        if attribute.name == "id":
            return attribute.value
    return None


def digest(items) -> str:
    """Order-sensitive fingerprint of a result sequence."""
    hasher = hashlib.sha256()
    for item in items:
        if hasattr(item, "children"):
            text = serialize(item)
        elif hasattr(item, "string_value"):
            text = f"{getattr(item, 'name', '')}={item.string_value()}"
        else:
            text = repr(getattr(item, "value", item))
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def element_children(node) -> list:
    return [child for child in node.children if hasattr(child, "find")]


# ---------------------------------------------------------------------------
# XRPC fleets over loopback HTTP

FUNCTIONS_IMPORT = (f'import module namespace f="functions" at '
                    f'"{GETPERSON_MODULE_LOCATION}";')

ACCOUNTS_LOCATION = "http://example.org/accounts.xq"
ACCOUNTS_MODULE = """
module namespace acc = "urn:accounts";
declare updating function acc:set-balance($v as xs:string)
{ replace value of node doc("account.xml")/account/balance with $v };
declare updating function acc:log-transfer($note as xs:string)
{ insert node <entry>{$note}</entry> as first
    into doc("account.xml")/account/log,
  delete node doc("account.xml")/account/log/entry[position() >= 8] };
"""
#: log-transfer keeps at most this many entries per account document.
LOG_BOUND = 8
BALANCE_TOTAL = 1000

LOG_LOCATION = "http://example.org/log.xq"
LOG_MODULE = """
module namespace lg = "urn:log";
declare updating function lg:add($row as node())
{ insert node $row into doc("log.xml")/log };
declare updating function lg:clear($batch as xs:string)
{ delete node doc("log.xml")/log/row[@batch = $batch] };
"""

PERSONS = 2000
LOOPBACK = ("peers talk HTTP over the host loopback interface (127.0.0.1), "
            "not a real network link")


class Fleet:
    """Origin ``p0`` plus server peers, each behind an HTTP daemon."""

    def __init__(self, servers: list[str], modules: list[tuple[str, str]]):
        self.origin = XRPCPeer("p0", HttpTransport())
        self.peers: dict[str, XRPCPeer] = {}
        self._daemons: list[HttpXRPCServer] = []
        for source, location in modules:
            self.origin.registry.register_source(source, location=location)
        for name in servers:
            peer = XRPCPeer(name, HttpTransport(), engine=MonetEngine())
            for source, location in modules:
                peer.registry.register_source(source, location=location)
            # Look the handler up per request, so a wrapper installed on
            # XRPCServer.handle after start-up is the one that runs.
            daemon = HttpXRPCServer(
                lambda payload, server=peer.server: server.handle(payload))
            self._daemons.append(daemon.start())
            self.origin.transport.register_endpoint(name, daemon.address)
            self.peers[name] = peer

    def engines(self) -> list:
        return [self.origin.engine] + [p.engine for p in self.peers.values()]

    def probe(self) -> dict[str, int]:
        counters = {"calls": 0, "requests": 0, "messages": 0,
                    "bytes_sent": 0, "bytes_received": 0,
                    "connections_opened": 0,
                    "retries": NET_STATS.snapshot()["retries"]}
        for name, peer in self.peers.items():
            counters["calls"] += peer.server.calls_handled
            counters["requests"] += peer.server.requests_handled
            stats = self.origin.transport.peer_stats(name)
            counters["messages"] += stats.requests
            counters["bytes_sent"] += stats.bytes_sent
            counters["bytes_received"] += stats.bytes_received
            counters["connections_opened"] += stats.connections_opened
            counters["retries"] += stats.retries
        return counters

    def close(self) -> None:
        """Close client connections, then stop every daemon (in
        parallel: each ``shutdown`` waits out a 0.5 s poll)."""
        for peer in [self.origin, *self.peers.values()]:
            peer.transport.close()
        stoppers = [threading.Thread(target=daemon.stop)
                    for daemon in self._daemons]
        for stopper in stoppers:
            stopper.start()
        for stopper in stoppers:
            stopper.join()


class XrpcSmall:
    """Single-call getPerson reads and 2PC transfer writes (75/25)."""

    name = "xrpc-small"
    setting = LOOPBACK
    READ_SHARE = 0.75
    WRITE = f"""
import module namespace acc = "urn:accounts" at "{ACCOUNTS_LOCATION}";
declare option xrpc:isolation "repeatable";
declare variable $va external;
declare variable $vb external;
declare variable $note external;
( execute at {{"xrpc://a"}} {{ acc:set-balance($va) }},
  execute at {{"xrpc://b"}} {{ acc:set-balance($vb) }},
  execute at {{"xrpc://a"}} {{ acc:log-transfer($note) }} )"""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fleet: Optional[Fleet] = None
        self._transfers = 0

    def setup(self) -> None:
        self.fleet = Fleet(["a", "b"], [
            (GETPERSON_MODULE, GETPERSON_MODULE_LOCATION),
            (ACCOUNTS_MODULE, ACCOUNTS_LOCATION)])
        peers = self.fleet.peers
        peers["a"].store.register("persons.xml", generate_persons(
            XMarkConfig(persons=PERSONS, seed=self.seed)))
        half = BALANCE_TOTAL // 2
        for name in ("a", "b"):
            peers[name].store.register(
                "account.xml",
                f"<account><balance>{half}</balance><log/></account>")
        warm = random.Random(self.seed ^ 0x5EED)
        for _ in range(2):
            for op in (self._read(warm), self._read(warm), self._write(warm)):
                error = op.check(op.run())
                if error:
                    raise RuntimeError(f"warm-up failed: {error}")

    def after_setup(self, traced: bool) -> None:
        """Untimed work once the last set-up is done (none here)."""

    def engines(self) -> list:
        return self.fleet.engines()

    def probe(self) -> dict[str, int]:
        return self.fleet.probe()

    def close(self) -> None:
        self.fleet.close()

    def cycle(self, rng: random.Random) -> list[Op]:
        if rng.random() < self.READ_SHARE:
            return [self._read(rng)]
        return [self._write(rng)]

    def _read(self, rng: random.Random) -> Op:
        # A few ids past the generated range ask for a missing person.
        number = rng.randrange(PERSONS + PERSONS // 40)
        source = (f'{FUNCTIONS_IMPORT}\nexecute at {{"xrpc://a"}} '
                  f'{{ f:getPerson("persons.xml", "person{number}") }}')
        wanted = f"person{number}" if number < PERSONS else None

        def check(result) -> Optional[str]:
            found = [person_id(node) for node in result.sequence]
            expected = [wanted] if wanted else []
            if found != expected:
                return f"getPerson({wanted or number}) returned {found}"
            return None

        return Op("read", lambda: self.fleet.origin.execute_query(source),
                  check)

    def _write(self, rng: random.Random) -> Op:
        balance_a = rng.randrange(BALANCE_TOTAL + 1)
        balance_b = BALANCE_TOTAL - balance_a
        self._transfers += 1
        note = f"transfer {self._transfers}: a={balance_a} b={balance_b}"
        variables = {"va": [string(str(balance_a))],
                     "vb": [string(str(balance_b))],
                     "note": [string(note)]}

        def run():
            return self.fleet.origin.execute_query(self.WRITE,
                                                   variables=variables)

        def check(result) -> Optional[str]:
            if not result.committed_2pc:
                return "transfer did not report committed_2pc"
            accounts = {name: self.fleet.peers[name].store.get(
                "account.xml").root_element for name in ("a", "b")}
            balances = {name: account.find("balance").string_value()
                        for name, account in accounts.items()}
            if balances != {"a": str(balance_a), "b": str(balance_b)}:
                return f"balances after commit: {balances}"
            if int(balances["a"]) + int(balances["b"]) != BALANCE_TOTAL:
                return f"balances do not sum to {BALANCE_TOTAL}: {balances}"
            log = element_children(accounts["a"].find("log"))
            if not log or log[0].string_value() != note \
                    or len(log) > LOG_BOUND:
                return f"log at a holds {len(log)} entries, newest wrong"
            return None

        return Op("write", run, check)


class XrpcBulk:
    """getPerson x1000 Bulk RPC reads; 500-row updating bulk writes."""

    name = "xrpc-bulk"
    setting = LOOPBACK
    READ_CALLS = 1000
    WRITE_CALLS = 500
    READ = f"""{FUNCTIONS_IMPORT}
declare variable $off external;
for $i in (0 to {READ_CALLS - 1})
return execute at {{"xrpc://a"}} {{ f:getPerson("persons.xml",
  concat("person", ($off + $i) mod {PERSONS})) }}"""
    ADD = f"""
import module namespace lg = "urn:log" at "{LOG_LOCATION}";
declare variable $batch external;
for $i in (1 to {WRITE_CALLS})
return execute at {{"xrpc://a"}} {{ lg:add(
  <row batch="{{$batch}}" n="{{$i}}">
    <bidder>person{{$i}}</bidder>
    <note>bid placed on lot {{$i}}: reserve met, shipping worldwide</note>
    <amount>{{$i * 3}}.50</amount>
  </row>) }}"""
    CLEAR = f"""
import module namespace lg = "urn:log" at "{LOG_LOCATION}";
declare variable $batch external;
execute at {{"xrpc://a"}} {{ lg:clear($batch) }}"""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fleet: Optional[Fleet] = None
        self._batches = 0

    def setup(self) -> None:
        self.fleet = Fleet(["a"], [
            (GETPERSON_MODULE, GETPERSON_MODULE_LOCATION),
            (LOG_MODULE, LOG_LOCATION)])
        peer = self.fleet.peers["a"]
        peer.store.register("persons.xml", generate_persons(
            XMarkConfig(persons=PERSONS, seed=self.seed)))
        peer.store.register("log.xml", "<log/>")
        self._base_rows = self._log_rows()
        warm = random.Random(self.seed ^ 0x5EED)
        for op in (self._read(warm), self._write(warm)):
            error = op.check(op.run())
            if error:
                raise RuntimeError(f"warm-up failed: {error}")

    def after_setup(self, traced: bool) -> None:
        """Untimed work once the last set-up is done (none here)."""

    def engines(self) -> list:
        return self.fleet.engines()

    def probe(self) -> dict[str, int]:
        return self.fleet.probe()

    def close(self) -> None:
        self.fleet.close()

    def cycle(self, rng: random.Random) -> list[Op]:
        return [self._read(rng) if rng.random() < 0.5 else self._write(rng)]

    def _log_rows(self) -> int:
        log = self.fleet.peers["a"].store.get("log.xml").root_element
        return len(element_children(log))

    def _read(self, rng: random.Random) -> Op:
        offset = rng.randrange(PERSONS)
        expected = [f"person{(offset + index) % PERSONS}"
                    for index in range(self.READ_CALLS)]

        def run():
            return self.fleet.origin.execute_query(
                self.READ, variables={"off": [integer(offset)]})

        def check(result) -> Optional[str]:
            found = [person_id(node) for node in result.sequence]
            if found != expected:
                return (f"bulk getPerson from offset {offset}: "
                        f"{len(found)} persons, first {found[:2]}")
            if result.messages_sent != 1:
                return f"bulk read sent {result.messages_sent} messages"
            return None

        return Op("read", run, check)

    def _write(self, rng: random.Random) -> Op:
        self._batches += 1
        batch = f"b{self._batches}-{rng.randrange(10 ** 6)}"
        variables = {"batch": [string(batch)]}
        origin = self.fleet.origin

        def run():
            added = origin.execute_query(self.ADD, variables=variables)
            cleared = origin.execute_query(self.CLEAR, variables=variables)
            return added, cleared

        def check(results) -> Optional[str]:
            added, cleared = results
            if added.calls_shipped != self.WRITE_CALLS \
                    or added.messages_sent != 1:
                return (f"bulk add shipped {added.calls_shipped} calls in "
                        f"{added.messages_sent} messages")
            if cleared.calls_shipped != 1:
                return f"clear shipped {cleared.calls_shipped} calls"
            if self._log_rows() != self._base_rows:
                return (f"log.xml holds {self._log_rows()} rows after the "
                        f"delete, {self._base_rows} at set-up")
            return None

        return Op("write", run, check)


# ---------------------------------------------------------------------------
# Local XMark database

SEARCH_WORDS = ("auction", "rare", "vintage", "mint", "shipping",
                "worldwide", "signed", "original", "reserve", "bidder")
SEARCHES_PER_SETUP = 4


class XmarkLocal:
    """READ_SUITE + KEYWORD_SUITE passes and local XQUF writes."""

    name = "xmark-local"
    setting = "no network: one in-process Database"
    SUITE = {**READ_SUITE, **KEYWORD_SUITE}
    AUCTIONS = "doc('auctions.xml')/site/closed_auctions"
    # All three writes address the last closed auction, so they cost
    # about the same and write_p50_ms does not sit between two modes.
    INSERT = f"""
declare variable $price external;
declare variable $buyer external;
insert node <closed_auction>
  <seller person="person0"/><buyer person="{{$buyer}}"/>
  <itemref item="item0"/><price>{{$price}}</price><date>01/01/2006</date>
  <annotation><description><text>benchmark lot</text></description>
  </annotation></closed_auction>
after {AUCTIONS}/closed_auction[last()]"""
    REPLACE = f"""
declare variable $price external;
replace value of node {AUCTIONS}/closed_auction[last()]/price with $price"""
    DELETE = f"delete node {AUCTIONS}/closed_auction[last()]"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = XMarkConfig(persons=250, closed_auctions=1500,
                                  seed=seed)
        self.db: Optional[Database] = None
        self.interpreter: Optional[Database] = None
        self.searches: list[tuple[str, str]] = []
        self.digests: dict[str, str] = {}
        self.lifted_ms: dict[str, list[float]] = {}
        self.interp_ms: dict[str, list[float]] = {}
        self._warm_results: dict[str, list] = {}

    def setup(self) -> None:
        self.db = Database()
        self.db.register("persons.xml", generate_persons(self.config))
        self.db.register("auctions.xml", generate_auctions(self.config))
        rng = random.Random(self.seed ^ 0x5EED)
        self.searches = [tuple(rng.sample(SEARCH_WORDS, 2))
                         for _ in range(SEARCHES_PER_SETUP)]
        results = self._pass(list(self.SUITE), record=False)
        for terms in self.searches:
            results[self._search_key(terms)] = self.db.search(list(terms))
        for op in self._writes(rng):
            error = op.check(op.run())
            if error:
                raise RuntimeError(f"warm-up failed: {error}")
        self._warm_results = results

    def after_setup(self, traced: bool) -> None:
        """Fingerprint the warm-up answers (untimed); the traced run
        adds a second database pinned to the tree interpreter for the
        per-shape lifted/interpreter table."""
        self.digests = {key: self._digest(key, value)
                        for key, value in self._warm_results.items()}
        self._warm_results = {}
        if traced:
            self.interpreter = Database(try_lifted=False)
            self.interpreter.register("persons.xml",
                                      generate_persons(self.config))
            self.interpreter.register("auctions.xml",
                                      generate_auctions(self.config))

    def engines(self) -> list:
        return [self.db.engine]

    def probe(self) -> dict[str, int]:
        return {}

    def close(self) -> None:
        self.db = self.interpreter = None

    @staticmethod
    def _search_key(terms) -> str:
        return "search:" + "+".join(terms)

    @staticmethod
    def _digest(key: str, value) -> str:
        if key.startswith("search:"):
            return digest_hits(value)
        return digest(value)

    def _pass(self, names: list[str], record: bool) -> dict[str, list]:
        results = {}
        for name in names:
            started = time.perf_counter()
            results[name] = self.db.execute(self.SUITE[name])
            if record:
                self.lifted_ms.setdefault(name, []).append(
                    (time.perf_counter() - started) * 1000.0)
        return results

    def _auction_count(self) -> int:
        root = self.db.store.get("auctions.xml").root_element
        return len(element_children(root.find("closed_auctions")))

    def _last_price(self) -> str:
        root = self.db.store.get("auctions.xml").root_element
        return element_children(root.find("closed_auctions"))[-1] \
            .find("price").string_value()

    def cycle(self, rng: random.Random) -> list[Op]:
        return [self._read(rng), *self._writes(rng)]

    def _read(self, rng: random.Random) -> Op:
        names = list(self.SUITE)
        rng.shuffle(names)
        terms = self.searches[rng.randrange(len(self.searches))]
        key = self._search_key(terms)

        def run():
            results = self._pass(names, record=True)
            results[key] = self.db.search(list(terms))
            return results

        def check(results) -> Optional[str]:
            wrong = [name for name, value in results.items()
                     if self._digest(name, value) != self.digests[name]]
            if self.interpreter is not None:
                wrong += self._interpreter_pass(names)
            if wrong:
                return f"answers differ from the set-up digest: {wrong}"
            return None

        return Op("read", run, check)

    def _interpreter_pass(self, names: list[str]) -> list[str]:
        wrong = []
        for name in names:
            started = time.perf_counter()
            value = self.interpreter.execute(self.SUITE[name])
            self.interp_ms.setdefault(name, []).append(
                (time.perf_counter() - started) * 1000.0)
            if digest(value) != self.digests[name]:
                wrong.append(f"{name} (interpreter)")
        return wrong

    def _writes(self, rng: random.Random) -> Iterator[Op]:
        """Insert, re-price and delete one closed auction: net zero.

        The traced run replays each write on the interpreter database
        after its check, so both databases see the same updates and
        the same index maintenance."""
        price = f"{rng.randint(5, 500)}.00"
        repriced = f"{rng.randint(5, 500)}.50"
        buyer = f"person{rng.randrange(self.config.persons)}"
        counts: list[int] = []

        def priced(wanted: str) -> Callable[[Any], Optional[str]]:
            def check(_) -> Optional[str]:
                counts.append(self._auction_count())
                if self._last_price() != wanted:
                    return (f"last auction has price {self._last_price()}, "
                            f"expected {wanted}")
                return None
            return check

        def deleted(_) -> Optional[str]:
            if self._auction_count() != counts[0] - 1:
                return (f"{self._auction_count()} auctions after the "
                        f"delete, {counts[0]} after the insert")
            return None

        for source, variables, check in (
                (self.INSERT, {"price": price, "buyer": buyer}, priced(price)),
                (self.REPLACE, {"price": repriced}, priced(repriced)),
                (self.DELETE, {}, deleted)):
            yield Op("write",
                     functools.partial(self._execute, source, variables),
                     self._mirrored(source, variables, check))

    def _execute(self, source: str, variables: dict) -> list:
        # Looks Database.execute up per call, so the traced run's
        # wrapper is the one that runs.
        return self.db.execute(source, **variables)

    def _mirrored(self, source: str, variables: dict,
                  check: Callable[[Any], Optional[str]]):
        def check_then_mirror(value) -> Optional[str]:
            error = check(value)
            if self.interpreter is not None:
                self.interpreter.execute(source, **variables)
            return error
        return check_then_mirror


def digest_hits(hits) -> str:
    return digest([f"{hit.uri}|{hit.score}|{serialize(hit.node)}"
                   for hit in hits])


WORKLOADS = {cls.name: cls for cls in (XrpcSmall, XrpcBulk, XmarkLocal)}
