"""P2P-style multi-hop XRPC: nested calls routing through a peer network.

The paper motivates XRPC for P2P data management: "by calling functions
that themselves perform XRPC calls, complex P2P communication patterns
can be achieved" (§1), and §2.2 analyses the resulting call *tree*.

This example builds a small ring of peers, each holding a shard of a
distributed film catalogue plus a routing function that forwards lookups
it cannot answer to its successor — a miniature DHT-style lookup
expressed entirely in XQuery + XRPC.  Repeatable-read isolation carries
the queryID along every hop, so the whole multi-hop query observes one
consistent snapshot.

Run::

    python examples/p2p_routing.py
"""

from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer

# Each peer knows its shard boundaries and its successor; a lookup hops
# around the ring until the responsible shard answers.
ROUTER_MODULE = """
module namespace ring = "urn:ring";

declare function ring:lookup($title as xs:string,
                             $hops as xs:integer) as node()* {
  if ($hops > 4) then error('RING0001', 'routing loop')
  else
    let $hit := doc("shard.xml")//film[name = $title]
    return
      if (exists($hit)) then
        <answer peer="{string(doc("shard.xml")/shard/@peer)}"
                hops="{$hops}">{ $hit/actor/text() }</answer>
      else
        let $next := string(doc("shard.xml")/shard/@next)
        return execute at { concat("xrpc://", $next) }
               { ring:lookup($title, $hops + 1) }
};
"""

SHARDS = {
    "peer1": ("peer2", [("The Rock", "Sean Connery")]),
    "peer2": ("peer3", [("Sound Of Music", "Julie Andrews")]),
    "peer3": ("peer1", [("Green Card", "Gerard Depardieu")]),
}


def shard_xml(name: str) -> str:
    successor, films = SHARDS[name]
    rows = "".join(
        f"<film><name>{title}</name><actor>{actor}</actor></film>"
        for title, actor in films)
    return f'<shard peer="{name}" next="{successor}">{rows}</shard>'


def main() -> None:
    network = SimulatedNetwork()
    peers = {}
    for name in SHARDS:
        peer = XRPCPeer(name, network)
        peer.registry.register_source(ROUTER_MODULE, location="ring.xq")
        peer.store.register("shard.xml", shard_xml(name))
        peers[name] = peer

    origin = XRPCPeer("client", network)
    origin.registry.register_source(ROUTER_MODULE, location="ring.xq")

    for title in ("The Rock", "Sound Of Music", "Green Card"):
        result = origin.execute_query(f"""
        import module namespace ring = "urn:ring" at "ring.xq";
        declare option xrpc:isolation "repeatable";
        execute at {{"xrpc://peer1"}} {{ ring:lookup("{title}", 1) }}
        """)
        [answer] = result.sequence
        print(f"{title!r}: actor={answer.string_value()!r} "
              f"(answered by {answer.get_attribute('peer').value} "
              f"after {answer.get_attribute('hops').value} hop(s); "
              f"plan: {result.explain().plan}; "
              f"peers seen by the origin: {result.participants})")

    print("\nEvery hop carried the same queryID, so the whole lookup ran "
          "against one consistent snapshot (repeatable read).")


if __name__ == "__main__":
    main()
