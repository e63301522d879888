"""Benchmark: what the fault-tolerance layer costs and what it buys.

Two acceptance gates for the resilience stack (:mod:`repro.net.retry`):

* **Happy-path overhead** — the full retry and breaker policy of a
  :class:`ResilientChannel` must cost at most ~5% wall time over a
  baseline channel with a single attempt and breakers disabled when
  nothing fails — the policy layer may not tax the common case.
* **Tail latency under a dead peer** — with one blackholed destination
  in the fan-out, per-destination circuit breakers must collapse the
  tail: after the breaker opens, queries stop burning the blackhole
  timeout on every attempt and fail fast instead.  Measured in virtual
  time against the identical topology with breakers disabled.

Run standalone (CI uploads the JSON):

    PYTHONPATH=src python -m pytest -q -rA \
        benchmarks/bench_fault_tolerance.py \
        --benchmark-json=BENCH_fault_tolerance.json
"""

import time

from repro.net import SimulatedNetwork
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.retry import BreakerRegistry, ResilientChannel, RetryPolicy
from repro.rpc import XRPCPeer
from repro.rpc.client import ClientSession
from repro.xdm.atomic import integer

ECHO_MODULE = """
module namespace m = "urn:echo";
declare function m:double($x as xs:integer) as xs:integer { $x * 2 };
"""

PEERS = 3
CALLS_PER_MESSAGE = 16   # Bulk RPC: one message carries a loop's calls
ROUNDS = 40              # call_parallel rounds per measurement
REPEATS = 5              # take the min: least-noise estimate of the cost
OVERHEAD_BUDGET = 1.05


def _echo_fleet():
    network = SimulatedNetwork()
    for index in range(PEERS):
        peer = XRPCPeer(f"peer{index}", network)
        peer.registry.register_source(ECHO_MODULE, location="e.xq")
    return network


def _grouped_requests():
    return [
        (f"xrpc://peer{index}", "urn:echo", "e.xq", "double", 1,
         [[[integer(call)]] for call in range(CALLS_PER_MESSAGE)], False)
        for index in range(PEERS)
    ]


def _time_rounds(channel: ResilientChannel) -> tuple[float, list]:
    started = time.perf_counter()
    for _ in range(ROUNDS):
        results = ClientSession(channel, origin="p0").call_parallel(
            _grouped_requests())
    return time.perf_counter() - started, results


def test_happy_path_overhead(benchmark, report):
    """Full policy vs a no-retry, breaker-less channel, nothing failing."""
    network = _echo_fleet()
    baseline_channel = ResilientChannel(
        network, policy=RetryPolicy(max_attempts=1, jitter=0.0),
        breakers=BreakerRegistry(enabled=False))
    channel = ResilientChannel(network, policy=RetryPolicy(jitter=0.0))

    def measure():
        # The legs alternate within each repeat so both see the same
        # machine noise; the min per leg is its least-noise estimate.
        baseline = resilient = float("inf")
        for _ in range(REPEATS):
            elapsed, baseline_results = _time_rounds(baseline_channel)
            baseline = min(baseline, elapsed)
            elapsed, channel_results = _time_rounds(channel)
            resilient = min(resilient, elapsed)
        return baseline, resilient, baseline_results, channel_results

    baseline, resilient, baseline_results, channel_results = \
        benchmark.pedantic(measure, rounds=1, iterations=1)
    assert channel_results == baseline_results  # same answers either way

    overhead = resilient / baseline
    report(
        f"Fault-tolerance happy path: {ROUNDS} parallel rounds x {PEERS} "
        f"peers — single-attempt channel {baseline * 1000:.1f} ms, full "
        f"policy {resilient * 1000:.1f} ms ({(overhead - 1) * 100:+.1f}%)")
    benchmark.extra_info.update({
        "peers": PEERS,
        "calls_per_message": CALLS_PER_MESSAGE,
        "rounds": ROUNDS,
        "baseline_ms": round(baseline * 1000, 2),
        "channel_ms": round(resilient * 1000, 2),
        "overhead_ratio": round(overhead, 4),
    })
    assert overhead <= OVERHEAD_BUDGET, (
        f"resilient channel costs {(overhead - 1) * 100:.1f}% over the "
        f"single-attempt baseline on the happy path "
        f"(budget {OVERHEAD_BUDGET})")


QUERIES = 20
BLACKHOLE_SECONDS = 0.5


def _tail_run(breakers: BreakerRegistry) -> list[float]:
    """Virtual seconds per keyword-search fan-out with one dead peer."""
    network = SimulatedNetwork()
    transport = FaultInjectingTransport(
        network, FaultPlan(blackhole=frozenset({"dead.example.org"}),
                           blackhole_seconds=BLACKHOLE_SECONDS))
    origin = XRPCPeer(
        "p0.example.org", transport,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.05,
                                 jitter=0.0),
        breakers=breakers)
    live = XRPCPeer("live.example.org", transport)
    live.store.register("d.xml", "<d><item>vintage clock</item></d>")
    latencies = []
    for _ in range(QUERIES):
        started = network.clock.now()
        result = origin.keyword_search(
            "vintage",
            peers=["xrpc://live.example.org", "xrpc://dead.example.org"],
            on_peer_failure="degrade")
        assert result.degraded and len(result.hits) == 1
        latencies.append(network.clock.now() - started)
    return latencies


def test_blackholed_peer_tail_latency(benchmark, report):
    def measure():
        with_breakers = _tail_run(
            BreakerRegistry(failure_threshold=3, cooldown=1000.0))
        without = _tail_run(BreakerRegistry(enabled=False))
        return with_breakers, without

    with_breakers, without = benchmark.pedantic(measure, rounds=1,
                                                iterations=1)
    p95_with = sorted(with_breakers)[int(0.95 * (QUERIES - 1))]
    p95_without = sorted(without)[int(0.95 * (QUERIES - 1))]
    total_with, total_without = sum(with_breakers), sum(without)

    report(
        f"Blackholed peer, {QUERIES} degraded searches: breakers "
        f"p95 {p95_with:.3f}s / total {total_with:.1f}s virtual, "
        f"no breakers p95 {p95_without:.3f}s / total {total_without:.1f}s")
    benchmark.extra_info.update({
        "queries": QUERIES,
        "blackhole_seconds": BLACKHOLE_SECONDS,
        "p95_with_breakers_s": round(p95_with, 3),
        "p95_without_breakers_s": round(p95_without, 3),
        "total_with_breakers_s": round(total_with, 3),
        "total_without_breakers_s": round(total_without, 3),
    })
    # Without breakers every query burns the full retry budget against
    # the dead peer; with breakers only the first does.
    assert p95_without >= BLACKHOLE_SECONDS * 3  # 3 attempts, full burn
    assert p95_with < p95_without / 10
    assert total_with < total_without / 5
