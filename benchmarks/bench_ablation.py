"""Ablation benchmarks for the engine's performance-only design choices.

Each ablation toggles one optimization and measures the same workload:

* **FLWOR hash join** (MonetDB's relational join) on the Q7 join —
  off reverts to nested-loop semantics;
* **Bulk RPC vs one-at-a-time** on the echo loop (the paper's own
  ablation, Table 2, here at the message-count level);
* **function cache** cold vs warm single-call latency.

Results must agree between variants — the ablations are performance-only.
"""


from repro.engine import MonetEngine, TreeEngine
from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from repro.workloads.xmark import XMarkConfig, generate_auctions, generate_persons
from repro.xdm import deep_equal

JOIN_QUERY = """
for $p in doc("persons.xml")//person,
    $ca in doc("auctions.xml")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{string($p/@id)}</result>
"""

_CONFIG = XMarkConfig(persons=60, closed_auctions=600, matches=6)


def _join_peer(optimize_joins: bool) -> XRPCPeer:
    engine = MonetEngine() if optimize_joins else TreeEngine()
    peer = XRPCPeer("solo", SimulatedNetwork(), engine=engine)
    peer.store.register("persons.xml", generate_persons(_CONFIG))
    peer.store.register("auctions.xml", generate_auctions(_CONFIG))
    return peer


class TestJoinAblation:
    def test_hash_join_on(self, benchmark):
        peer = _join_peer(optimize_joins=True)
        result = benchmark.pedantic(
            peer.execute_query, args=(JOIN_QUERY,), rounds=3, iterations=1)
        assert len(result.sequence) == _CONFIG.matches

    def test_hash_join_off(self, benchmark):
        peer = _join_peer(optimize_joins=False)
        result = benchmark.pedantic(
            peer.execute_query, args=(JOIN_QUERY,), rounds=3, iterations=1)
        assert len(result.sequence) == _CONFIG.matches

    def test_results_identical(self):
        on = _join_peer(True).execute_query(JOIN_QUERY)
        off = _join_peer(False).execute_query(JOIN_QUERY)
        assert deep_equal(on.sequence, off.sequence)


ECHO_MODULE = """
module namespace t = "test";
declare function t:echoVoid() { () };
"""

ECHO_QUERY = """
import module namespace t = "test" at "t.xq";
for $i in (1 to 200)
return execute at {"xrpc://served"} { t:echoVoid() }
"""


def _echo_site():
    network = SimulatedNetwork()
    origin = XRPCPeer("origin", network)
    served = XRPCPeer("served", network)
    for peer in (origin, served):
        peer.registry.register_source(ECHO_MODULE, location="t.xq")
    return network, origin


class TestBulkAblation:
    def test_bulk_on(self, benchmark):
        network, origin = _echo_site()
        result = benchmark.pedantic(
            origin.execute_query, args=(ECHO_QUERY,), rounds=3, iterations=1)
        benchmark.extra_info["messages"] = result.messages_sent
        assert result.messages_sent == 1

    def test_bulk_off(self, benchmark):
        network, origin = _echo_site()
        result = benchmark.pedantic(
            origin.execute_query, args=(ECHO_QUERY,),
            kwargs={"force_one_at_a_time": True}, rounds=3, iterations=1)
        benchmark.extra_info["messages"] = result.messages_sent
        assert result.messages_sent == 200


class TestFunctionCacheAblation:
    def _measure(self, warm: bool) -> float:
        from repro.experiments.table2 import Table2Experiment
        return Table2Experiment().measure("bulk", warm, 1)

    def test_cold_cache(self, benchmark):
        simulated_ms = benchmark.pedantic(
            self._measure, args=(False,), rounds=3, iterations=1)
        benchmark.extra_info["simulated_ms"] = simulated_ms
        assert simulated_ms > 100  # pays module translation

    def test_warm_cache(self, benchmark):
        simulated_ms = benchmark.pedantic(
            self._measure, args=(True,), rounds=3, iterations=1)
        benchmark.extra_info["simulated_ms"] = simulated_ms
        assert simulated_ms < 50
