"""Benchmark: parallel Bulk RPC dispatch over real HTTP (section 3.2).

The paper requires bulk requests to distinct peers to be dispatched in
parallel.  Here N loopback HTTP daemons each delay every request by a
fixed amount; ``ClientSession.call_parallel`` over the pooled
``HttpTransport`` must complete in roughly the *maximum* of the per-peer
latencies, not their sum — the win the keep-alive + thread fan-out
transport stack exists to deliver.
"""

import time

import pytest

from repro.net import HttpTransport, HttpXRPCServer, ResilientChannel
from repro.rpc import XRPCPeer
from repro.rpc.client import ClientSession
from repro.xdm.atomic import integer

ECHO_MODULE = """
module namespace m = "urn:echo";
declare function m:double($x as xs:integer) as xs:integer { $x * 2 };
"""

PEERS = 4
DELAY_SECONDS = 0.15


def _delayed(handler, delay):
    def handle(payload: str) -> str:
        time.sleep(delay)
        return handler(payload)
    return handle


@pytest.fixture
def fleet():
    """N HTTP peers, each answering after DELAY_SECONDS."""
    servers = []
    transport = HttpTransport()
    try:
        for index in range(PEERS):
            peer = XRPCPeer(f"peer{index}", HttpTransport())
            peer.registry.register_source(ECHO_MODULE, location="e.xq")
            server = HttpXRPCServer(
                _delayed(peer.server.handle, DELAY_SECONDS)).start()
            servers.append(server)
            transport.register_endpoint(f"peer{index}", server.address)
        yield transport
    finally:
        transport.close()
        for server in servers:
            server.stop()


def _grouped_requests():
    return [
        (f"xrpc://peer{index}", "urn:echo", "e.xq", "double", 1,
         [[[integer(index)]]], False)
        for index in range(PEERS)
    ]


def test_parallel_dispatch_takes_max_not_sum(benchmark, report, fleet):
    def dispatch():
        session = ClientSession(ResilientChannel(fleet), origin="p0")
        started = time.perf_counter()
        results = session.call_parallel(_grouped_requests())
        return time.perf_counter() - started, results

    elapsed, results = benchmark.pedantic(dispatch, rounds=1, iterations=1)
    assert [values for values in results] == \
        [[[integer(2 * index)]] for index in range(PEERS)]

    latency_sum = PEERS * DELAY_SECONDS
    report(
        f"Parallel dispatch to {PEERS} HTTP peers "
        f"({DELAY_SECONDS * 1000:.0f} ms latency each): "
        f"{elapsed * 1000:.0f} ms elapsed vs {latency_sum * 1000:.0f} ms "
        f"sequential sum")
    benchmark.extra_info.update({
        "peers": PEERS,
        "per_peer_delay_ms": DELAY_SECONDS * 1000,
        "elapsed_ms": round(elapsed * 1000, 1),
        "sequential_sum_ms": latency_sum * 1000,
    })
    # Concurrent fan-out: ~max of the branch latencies (plus overhead),
    # far below the sequential sum.
    assert elapsed < latency_sum * 0.6
    assert elapsed >= DELAY_SECONDS


def test_sequential_dispatch_is_sum_baseline(benchmark, report, fleet):
    """Contrast: one-at-a-time sends pay every peer's latency in full."""
    def dispatch():
        session = ClientSession(ResilientChannel(fleet), origin="p0")
        started = time.perf_counter()
        for destination, module, location, function, arity, calls, updating \
                in _grouped_requests():
            session.call(destination, module, location, function, arity,
                         calls, updating=updating)
        return time.perf_counter() - started

    elapsed = benchmark.pedantic(dispatch, rounds=1, iterations=1)
    report(f"Sequential baseline over the same fleet: "
           f"{elapsed * 1000:.0f} ms")
    benchmark.extra_info["elapsed_ms"] = round(elapsed * 1000, 1)
    assert elapsed >= PEERS * DELAY_SECONDS
