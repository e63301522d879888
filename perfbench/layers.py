"""What the benchmark reports, and which layer each number belongs to.

``END_TO_END`` are the numbers a user of the system sees; the untraced
run prints them.  ``PER_LAYER`` rows map each traced-run metric to the
wrapped public call it is measured from, the end-to-end metric it
should move, and the workload where that should show.  ``FINDINGS``
are costs the benchmark exposes that the program does not fix yet.
"""

from __future__ import annotations

WORKLOAD_NAMES = ("xrpc-small", "xrpc-bulk", "xmark-local")

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p90_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("write_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# End-to-end numbers that do not apply to every workload (or are 0 on
# a correct run).  They are printed with the untraced table and, under
# an ``e2e.`` prefix, with the per-layer metrics.
NETWORK_END_TO_END = [
    ("calls_per_s", "1/s", "higher"),
    ("messages_per_op", "count/op", "lower"),
    ("request_mb_per_s", "MB/s", "higher"),
    ("response_mb_per_s", "MB/s", "higher"),
    ("failed_ratio", "ratio", "lower"),
]

# Fallback codes the three workloads hit; any other code is "other".
FALLBACK_CODES = ("execute-at-routing", "expr-not-lifted")

SMALL, BULK, LOCAL = WORKLOAD_NAMES
NETWORK = f"{SMALL} {BULK}"
WRITES = f"{LOCAL} {BULK}"
ALL = "all"

# (name, unit, better, measured from, moves, workload)
PER_LAYER = [
    ("net.exchange_ms", "ms/op", "lower", "HttpTransport.exchange",
     "read_p50_ms write_p50_ms", SMALL),
    ("net.wait_ms", "ms/op", "lower",
     "HttpTransport.exchange minus the XRPCServer.handle it waits on",
     "read_p50_ms write_p50_ms", SMALL),
    ("net.bytes_per_op", "B/op", "lower", "HttpTransport.peer_stats",
     "read_p50_ms write_p50_ms", SMALL),
    ("net.connections_opened", "count", "lower", "HttpTransport.peer_stats",
     "read_p50_ms write_p50_ms", SMALL),
    ("net.retries", "count", "lower",
     "QueryResult.net_retries (NET_STATS) + pool retries",
     "read_p50_ms write_p50_ms", SMALL),
    ("soap.build_request_ms", "ms/op", "lower",
     "repro.rpc.client.build_request / build_txn_command",
     "read_p50_ms request_mb_per_s", BULK),
    ("soap.parse_request_ms", "ms/op", "lower",
     "repro.rpc.server.parse_message", "read_p50_ms request_mb_per_s", BULK),
    ("soap.build_response_ms", "ms/op", "lower",
     "repro.rpc.server.build_response / build_txn_result / build_fault",
     "read_p50_ms response_mb_per_s", BULK),
    ("soap.parse_reply_ms", "ms/op", "lower",
     "repro.rpc.client.parse_message", "read_p50_ms response_mb_per_s",
     BULK),
    ("rpc.server_handle_ms", "ms/op", "lower", "XRPCServer.handle",
     "calls_per_s read_p50_ms", BULK),
    ("rpc.server_call_ms", "ms/op", "lower", "XRPCPeer.run_function (sum)",
     "calls_per_s read_p50_ms", BULK),
    ("rpc.calls_per_message", "calls/msg", "higher",
     "XRPCServer.calls_handled / requests_handled", "calls_per_s", BULK),
    ("rpc.txn_ms", "ms/op", "lower", "ClientSession.send_txn_command",
     "write_p50_ms", SMALL),
    ("rpc.txn_commands_per_op", "count/op", "lower",
     "ClientSession.send_txn_command", "write_p50_ms", SMALL),
    ("rpc.origin_self_ms", "ms/op", "lower",
     "XRPCPeer.execute_query self time", "read_p50_ms write_p50_ms",
     NETWORK),
    ("engine.compile_ms", "ms/op", "lower", "Engine.compile_with_stats",
     "read_p50_ms", SMALL),
    ("engine.plan_cache_hit_ratio", "ratio", "higher",
     "Engine.cache_stats deltas", "read_p50_ms", SMALL),
    ("analysis.analyze_ms", "ms/op", "lower", "Engine.analyze",
     "read_p50_ms", SMALL),
    ("pathfinder.lifted_ms", "ms/op", "lower",
     "Engine.attempt_lifted self time", "read_p50_ms", LOCAL),
    ("engine.lifted_ratio", "ratio", "higher",
     "Engine.record_plan (lifted / all plans)", "read_p50_ms", LOCAL),
    *[(f"engine.fallbacks.{code}", "count/op", "lower",
       "Engine.fallback_stats deltas", "read_p50_ms write_p50_ms", LOCAL)
      for code in (*FALLBACK_CODES, "other")],
    ("session.self_ms", "ms/op", "lower", "Database.execute self time",
     "read_p50_ms", LOCAL),
    ("xdm.index_builds", "count/op", "lower", "ENCODING_STATS deltas",
     "write_p50_ms", WRITES),
    ("xdm.index_patches", "count/op", "lower", "ENCODING_STATS deltas",
     "write_p50_ms", WRITES),
    ("xdm.reencodes_subtree", "count/op", "lower", "ENCODING_STATS deltas",
     "write_p50_ms", WRITES),
    ("xdm.reencodes_full", "count/op", "lower", "ENCODING_STATS deltas",
     "write_p50_ms", WRITES),
    ("xquf.apply_ms", "ms/op", "lower",
     "apply_updates at repro.rpc.server/peer/isolation and repro.xquf.pul",
     "write_p50_ms", WRITES),
    ("search.slca_ms", "ms/op", "lower", "Database.search", "read_p50_ms",
     LOCAL),
    ("search.postings_patched", "count/op", "lower", "SEARCH_STATS deltas",
     "write_p50_ms", LOCAL),
    ("search.term_index_builds", "count/op", "lower", "SEARCH_STATS deltas",
     "read_p50_ms", LOCAL),
    ("xml.register_ms", "ms", "lower",
     "DocumentStore.register per set-up", "setup_s", ALL),
    ("xml.parse_mb_per_s", "MB/s", "higher", "DocumentStore.register",
     "setup_s", ALL),
    ("gc.pause_ms_per_op", "ms/op", "lower", "gc.callbacks",
     "read_p90_ms read_p50_ms", BULK),
    ("gc.gen2_collections_per_op", "count/op", "lower", "gc.callbacks",
     "read_p90_ms read_p50_ms", BULK),
    ("trace.overhead_pct", "%", "lower",
     "traced vs untraced operations of the same run", "-", ALL),
    ("trace.self_sum_ratio", "ratio", "higher",
     "sum of span self times / operation wall time", "-", ALL),
    ("trace.unattributed_ms", "ms/op", "lower",
     "self time of the operation span (no wrapped call open)", "-", ALL),
    *[(f"e2e.{name}", unit, better, "untraced operations of the traced run",
       name, BULK if "mb_per_s" in name else
       ALL if name == "failed_ratio" else NETWORK)
      for name, unit, better in NETWORK_END_TO_END],
]


def shape_metrics(shape_names) -> list[tuple]:
    """The xmark-local per-shape table: lifted core vs tree interpreter."""
    rows = []
    for shape in shape_names:
        rows.append((f"shape.{shape}.lifted_ms", "ms", "lower",
                     "Database.execute on the lifted database",
                     "read_p50_ms", LOCAL))
        rows.append((f"shape.{shape}.interp_ms", "ms", "lower",
                     "Database.execute on Database(try_lifted=False)",
                     "read_p50_ms", LOCAL))
    return rows


FINDINGS = [
    "net.wait_ms: on xrpc-small about 42 of the 44 ms of an exchange is "
    "waiting, not work. HttpXRPCServer writes the response headers and "
    "body in two writes with Nagle's algorithm on, so the body waits for "
    "the client's delayed ACK (40 ms on Linux).",
    "gc.pause_ms_per_op: garbage collection is about 30% of an xrpc-bulk "
    "read and of a write (about one gen2 collection per operation).",
    "shape table: the lifted core is slower than the tree interpreter on "
    "most single-axis shapes (child, descendant, self, parent, wildcard, "
    "following, preceding) and on positional-first; it is faster on the "
    "other positional and on the contains shapes.",
]
