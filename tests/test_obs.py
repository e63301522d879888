"""Telemetry registry tests: the counter groups, the per-execution tally,
and transport parity of what a query reports (counts and faults)."""

import threading
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.engine.base import Explain
from repro.errors import XRPCFault
from repro.net import HttpTransport, HttpXRPCServer, SimulatedNetwork
from repro.net.retry import NET_STATS
from repro.obs import Counters, tally, totals
from repro.rpc import XRPCPeer
from repro.workloads.films import FILM_MODULE, FILM_MODULE_LOCATION, film_db
from repro.xdm.structural import ENCODING_STATS
from repro.xml.parser import PARSE_STATS

LOG_MODULE = """
module namespace u = "urn:log";
declare updating function u:add($n as xs:integer)
{ insert node <hit n="{$n}"/> into doc("log.xml")/log };
declare function u:down($n as xs:integer) as xs:integer
{ if ($n = 0) then 0 else u:down($n - 1) };
"""

#: Five updates, all applied at the remote peer.
REMOTE_UPDATES = """
import module namespace u = "urn:log" at "log.xq";
for $i in 1 to 5 return execute at {"xrpc://y"} { u:add($i) }
"""

#: The paper's Q1: one remote call, the reply parsed at the origin.
Q1 = f"""
import module namespace f = "films" at "{FILM_MODULE_LOCATION}";
<films>{{ execute at {{"xrpc://y"}} {{ f:filmsByActor("Sean Connery") }} }}</films>
"""

#: A remote function recursing past the interpreter's stack limit.
DEEP_RECURSION = """
import module namespace u = "urn:log" at "log.xq";
execute at {"xrpc://y"} { u:down(3000) }
"""


TRANSPORTS = ("simulated", "http")


class TestCounters:
    def test_snapshot_reads_the_group_fields(self):
        before = NET_STATS.snapshot()
        assert set(before) == set(NET_STATS.fields)
        NET_STATS.bump("faults_injected", 3)
        assert NET_STATS.snapshot()["faults_injected"] \
            == before["faults_injected"] + 3
        assert totals()["faults_injected"] == before["faults_injected"] + 3

    def test_undeclared_field_is_rejected(self):
        with pytest.raises(KeyError):
            PARSE_STATS.bump("documents_lxml")

    def test_field_names_are_unique_across_groups(self):
        with pytest.raises(ValueError):
            Counters("retries")

    def test_tally_counts_this_context_only(self):
        with tally() as counts:
            PARSE_STATS.bump("documents_python")
        PARSE_STATS.bump("documents_python")
        assert counts == {"documents_python": 1}
        assert counts["documents_expat"] == 0

    def test_nested_tally_adds_to_the_outer_one(self):
        with tally() as outer:
            ENCODING_STATS.bump("index_builds")
            with tally() as inner:
                ENCODING_STATS.bump("index_builds", 2)
        assert inner["index_builds"] == 2
        assert outer["index_builds"] == 3

    def test_other_threads_do_not_reach_the_tally(self):
        with tally() as counts:
            worker = threading.Thread(target=ENCODING_STATS.bump,
                                      args=("index_builds",))
            worker.start()
            worker.join()
        assert counts["index_builds"] == 0


class TestExplainRender:
    def test_counter_lines(self):
        counts = Counter(
            reencodes_full=1, reencodes_subtree=2, gap_respreads=3,
            index_patches=4, documents_expat=2, documents_python=3,
            fallbacks_to_python=6, postings_built=7, postings_patched=8,
            search_queries=9, postings_hits=10, retries=11,
            retry_giveups=12, breaker_opens=13, breaker_fast_fails=14,
            deadline_expired=15, degraded_peers=16, exchanges=99)
        explain = Explain(plan="lifted", fallback_reason=None,
                          compile_seconds=0.0, execute_seconds=0.0,
                          cache_hit=True, counters=counts)
        assert explain.render().splitlines()[4:] == [
            "updates: reencode full=1 subtree=2 respreads=3 "
            "index patches=4",
            "parse: documents=5 fallbacks=6",
            "search: postings built=7 patched=8 queries=9 hits=10",
            "net: retries=11 giveups=12 breaker opens=13 fast fails=14 "
            "deadline expired=15 degraded peers=16",
        ]

    def test_a_group_without_counts_prints_no_line(self):
        explain = Explain(plan="lifted", fallback_reason=None,
                          compile_seconds=0.0, execute_seconds=0.0,
                          cache_hit=False,
                          counters=Counter(exchanges=3, degraded_peers=1))
        rendered = explain.render()
        assert "updates:" not in rendered
        assert "parse:" not in rendered
        assert "search:" not in rendered
        assert rendered.splitlines()[-1] == (
            "net: retries=0 giveups=0 breaker opens=0 fast fails=0 "
            "deadline expired=0 degraded peers=1")


# ---------------------------------------------------------------------------
# Transport parity: the same query reports the same counts and faults
# over the simulated network and over loopback HTTP.


@contextmanager
def two_peers(transport):
    """An origin ``p0`` and a remote peer ``y`` over *transport*."""
    servers = []
    if transport == "simulated":
        network = SimulatedNetwork()
        origin, remote = XRPCPeer("p0", network), XRPCPeer("y", network)
    else:
        origin = XRPCPeer("p0", HttpTransport())
        remote = XRPCPeer("y", HttpTransport())
        servers.append(HttpXRPCServer(remote.server.handle).start())
        origin.transport.register_endpoint("y", servers[0].address)
    for peer in (origin, remote):
        peer.registry.register_source(LOG_MODULE, location="log.xq")
        peer.registry.register_source(FILM_MODULE,
                                      location=FILM_MODULE_LOCATION)
    remote.store.register("log.xml", "<log/>")
    remote.store.register("filmDB.xml", film_db())
    remote.execute_query("doc('log.xml')//hit")  # build the index
    try:
        yield origin, remote
    finally:
        for server in servers:
            server.stop()
        origin.transport.close()
        remote.transport.close()


@pytest.fixture(params=TRANSPORTS)
def site(request):
    with two_peers(request.param) as peers:
        yield peers


class TestTransportParity:
    @pytest.mark.parametrize("query", [REMOTE_UPDATES, Q1],
                             ids=["remote-updates", "q1-read"])
    def test_origin_counters_identical_over_both_transports(self, query):
        seen = {}
        for transport in TRANSPORTS:
            with two_peers(transport) as (origin, _):
                seen[transport] = \
                    origin.execute_query(query).explain().counters
        assert seen["simulated"] == seen["http"]
        # Remote updates are the callee's work, never the origin's.
        assert seen["simulated"]["reencodes_subtree"] == 0
        assert seen["simulated"]["index_patches"] == 0

    def test_remote_work_is_charged_to_the_callee(self, site):
        origin, remote = site
        before = ENCODING_STATS.snapshot()["reencodes_subtree"]
        origin.execute_query(REMOTE_UPDATES)
        assert len(remote.store.get("log.xml").root_element.children) == 5
        assert ENCODING_STATS.snapshot()["reencodes_subtree"] >= before + 5

    def test_explain_carries_analysis_and_reply_parse(self, site):
        origin, _ = site
        result = origin.execute_query(Q1)
        explain = result.explain()
        assert explain.analysis is not None
        assert result.messages_sent >= 1
        # The origin parses the Bulk RPC reply it was sent.
        assert explain.counters["documents_expat"] \
            + explain.counters["documents_python"] >= 1
        assert explain.counters["exchanges"] == result.messages_sent

    def test_remote_recursion_error_is_a_receiver_fault(self, site):
        origin, _ = site
        with pytest.raises(XRPCFault) as info:
            origin.execute_query(DEEP_RECURSION)
        assert info.value.fault_code == "env:Receiver"
        assert "RecursionError" in info.value.reason
