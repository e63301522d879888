"""Gapped pre-plane + incremental StructuralIndex maintenance.

The update path must be O(change): a small XQUF splice mints order keys
inside the serial gap between its document-order neighbours (no restamp
of untouched nodes), deletes free their serials without touching any
other key, value-only updates skip restamping entirely, and the tree's
StructuralIndex is patched in place — same index object across the PUL
— instead of stale-marked and rebuilt.  When a gap is exhausted the
encoder re-spreads the nearest enclosing region, and only in the worst
case restamps the whole tree.  Every path must leave the index
byte-identical to a from-scratch rebuild.
"""

import pytest

from repro.session import Database
from repro.xdm import KEY_STRIDE, NodeFactory
from repro.xdm.structural import (
    ENCODING_STATS,
    StructuralIndex,
    structural_index,
)
from repro.xml import parse_document
from repro.xml.serializer import serialize_sequence
from tests.helpers import interpret

SITE = """
<site>
  <people>
    <person id="p0"><name>Ada</name><city>London</city></person>
    <person id="p1"><name>Grace</name><city>Arlington</city></person>
    <person id="p2"><name>Edsger</name><city>Rotterdam</city></person>
  </people>
  <auctions>
    <auction><buyer ref="p0"/><price>12</price></auction>
    <auction><buyer ref="p1"/><price>99</price></auction>
  </auctions>
</site>
"""


def _store():
    doc = parse_document(SITE, uri="s.xml")
    return doc, {"s.xml": doc}.get


def _update(resolver, query, **kwargs):
    return interpret(query, doc_resolver=resolver, **kwargs)


def assert_index_matches_rebuild(root):
    """The patched index must equal a from-scratch rebuild, column by
    column (the test then leaves the fresh index installed — it is
    equally consistent)."""
    patched = root._sidx
    assert patched is not None and not patched.stale
    patched_names = {
        name: list(patched.name_pres(name))
        for name in {n.local_name for n in patched.nodes
                     if hasattr(n, "local_name") and n.kind == "element"}}
    # pre_of is a self-healing cache: validate through rank_of, which
    # must agree with a from-scratch build for every row.
    ranks = [patched.rank_of(node) for node in patched.nodes]
    assert ranks == list(range(len(patched.nodes)))
    columns = (list(patched.nodes), list(patched.sizes),
               list(patched.levels))
    fresh = StructuralIndex(root, generation=0)
    assert columns[0] == fresh.nodes
    assert columns[1] == list(fresh.sizes)
    assert columns[2] == list(fresh.levels)
    for name, pres in patched_names.items():
        assert pres == fresh.name_pres(name), name


def assert_keys_monotone(root):
    keys = [root.order_key]
    for node in root.descendants():
        keys.append(node.order_key)
        previous = node.order_key
        for attribute in node.attributes:
            assert attribute.order_key > previous
            previous = attribute.order_key
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def assert_windows_cover_subtrees(root):
    """Serial-unit invariant: pre < x <= pre + size exactly selects the
    (attribute-inclusive) subtree — gaps and freed serials included."""
    everything = [root] + list(root.descendants())
    with_attrs = []
    for node in everything:
        with_attrs.append(node)
        with_attrs.extend(node.attributes)
    for node in everything:
        low = node.order_key[1]
        high = low + node.size
        inside = {id(n) for n in with_attrs
                  if low < n.order_key[1] <= high}
        expected = {id(n) for n in node.descendants()}
        for descendant in [node] + list(node.descendants()):
            expected.update(id(a) for a in descendant.attributes)
        expected.discard(id(node))
        assert inside == expected, node


class TestGapMinting:
    def test_single_insert_restamps_nothing_else(self):
        doc, resolver = _store()
        untouched = {id(n): n.order_key
                     for n in doc.descendants(include_self=True)}
        _update(resolver,
                "insert node <person id='p3'><name>Alan</name></person> "
                "after doc('s.xml')//person[1]")
        for node in doc.descendants(include_self=True):
            if id(node) in untouched:
                assert node.order_key == untouched[id(node)]
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_inserted_keys_fall_between_neighbours(self):
        doc, resolver = _store()
        _update(resolver,
                "insert node <person id='pX'/> "
                "before doc('s.xml')//person[2]")
        people = doc.root_element.find("people").child_elements()
        assert [p.get_attribute("id").value for p in people] == \
            ["p0", "pX", "p1", "p2"]
        keys = [p.order_key for p in people]
        assert keys == sorted(keys)
        assert keys[1][0] == doc.order_key[0]  # same doc id: gap minted

    def test_insert_at_document_end_extends_ancestor_sizes(self):
        doc, resolver = _store()
        _update(resolver,
                "insert node <auction><price>1</price></auction> "
                "as last into doc('s.xml')/site/auctions")
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_multi_node_insert_spreads_inside_gap(self):
        doc, resolver = _store()
        _update(resolver,
                "insert nodes (<a/>, <b/>, <c/>) "
                "into doc('s.xml')//person[1]")
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_attribute_insert_keeps_attribute_order_rule(self):
        doc, resolver = _store()
        _update(resolver,
                "insert node attribute age { '36' } "
                "into doc('s.xml')//person[1]")
        # Attributes sort after their element, before its children —
        # //@* pools attributes across elements through document order.
        result = interpret("doc('s.xml')//@*", doc_resolver=resolver)
        assert [a.value for a in result] == \
            ["p0", "36", "p1", "p2", "p0", "p1"]
        assert_keys_monotone(doc)

    def test_delete_needs_no_key_work(self):
        doc, resolver = _store()
        keys_before = {id(n): n.order_key
                       for n in doc.descendants(include_self=True)}
        _update(resolver, "delete node doc('s.xml')//person[2]")
        for node in doc.descendants(include_self=True):
            assert node.order_key == keys_before[id(node)]
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_counters_stay_on_fast_path(self):
        doc, resolver = _store()
        before = ENCODING_STATS.snapshot()
        _update(resolver,
                "insert node <x/> into doc('s.xml')//person[1]")
        _update(resolver, "delete node doc('s.xml')//auction[1]")
        after = ENCODING_STATS.snapshot()
        assert after["reencodes_full"] == before["reencodes_full"]
        assert after["reencodes_subtree"] > before["reencodes_subtree"]


class TestValueOnlyUpdates:
    def test_replace_attribute_value_skips_restamp(self):
        doc, resolver = _store()
        structural_index(doc)  # live index
        keys_before = [n.order_key
                       for n in doc.descendants(include_self=True)]
        before = ENCODING_STATS.snapshot()
        _update(resolver,
                "replace value of node doc('s.xml')//person[1]/@id "
                "with 'p0b'")
        after = ENCODING_STATS.snapshot()
        assert [n.order_key for n in doc.descendants(include_self=True)] \
            == keys_before
        assert after["reencodes_full"] == before["reencodes_full"]
        assert after["reencodes_subtree"] == before["reencodes_subtree"]
        assert after["index_patches"] > before["index_patches"]
        # and the index survived in place
        assert doc._sidx is not None and not doc._sidx.stale

    def test_rename_skips_restamp_and_patches_partition(self):
        doc, resolver = _store()
        index = structural_index(doc)
        index.name_pres("person")  # force the partition build
        _update(resolver,
                "rename node doc('s.xml')//person[2] as 'retired'")
        assert doc._sidx is index and not index.stale
        assert len(index.name_pres("person")) == 2
        assert len(index.name_pres("retired")) == 1
        assert_index_matches_rebuild(doc)

    def test_value_index_eviction_reflects_new_values(self):
        doc, resolver = _store()
        probe = "doc('s.xml')//person[@id = 'p1']/name"
        assert serialize_sequence(
            interpret(probe, doc_resolver=resolver)) == \
            "<name>Grace</name>"
        _update(resolver,
                "replace value of node doc('s.xml')//person[2]/@id "
                "with 'p1b'")
        assert interpret(probe, doc_resolver=resolver) == []
        assert serialize_sequence(interpret(
            "doc('s.xml')//person[@id = 'p1b']/name",
            doc_resolver=resolver)) == "<name>Grace</name>"

    def test_unrelated_value_indexes_survive_patches(self):
        doc, resolver = _store()
        # Build two value indexes under disjoint anchors.
        interpret("doc('s.xml')/site/people/person[@id = 'p0']",
                  doc_resolver=resolver)
        interpret("doc('s.xml')/site/auctions/auction[price = '12']",
                  doc_resolver=resolver)
        index = doc._sidx
        assert index is not None and len(index.value_indexes) == 2
        # A value change inside people must evict only the people probe.
        _update(resolver,
                "replace value of node doc('s.xml')//person[1]/@id "
                "with 'p0b'")
        assert doc._sidx is index
        remaining = list(index.value_indexes)
        assert len(remaining) == 1
        assert remaining[0][3] == "auction"


class TestIndexPatching:
    @pytest.mark.parametrize("update", [
        "insert node <person id='pN'><name>New</name></person> "
        "as first into doc('s.xml')/site/people",
        "insert node <x><y/></x> before doc('s.xml')//auction[2]",
        "insert nodes (<a/>, <b/>) after doc('s.xml')//person[3]",
        "delete node doc('s.xml')//person[1]",
        "delete nodes doc('s.xml')//auction",
        "replace node doc('s.xml')//person[2] with <gone/>",
        "replace value of node doc('s.xml')//person[1]/name with 'Augusta'",
        "replace node doc('s.xml')//auction[1]/buyer/@ref "
        "with attribute ref { 'p9' }",
        "rename node doc('s.xml')//person[1]/city as 'town'",
        "insert node attribute vip { 'yes' } into doc('s.xml')//person[3]",
        "delete node doc('s.xml')//buyer[2]/@ref",
    ])
    def test_patched_index_equals_rebuild(self, update):
        doc, resolver = _store()
        index = structural_index(doc)
        index.name_pres("person")  # force partitions so they get patched
        _update(resolver, update)
        assert doc._sidx is index, "index must be patched, not replaced"
        assert not index.stale
        assert_index_matches_rebuild(doc)
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_index_survives_a_whole_pul(self):
        doc, resolver = _store()
        index = structural_index(doc)
        _update(resolver,
                "for $p in doc('s.xml')//person "
                "return (insert node <seen/> into $p, "
                "rename node $p/name as 'fullname')")
        assert doc._sidx is index and not index.stale
        assert_index_matches_rebuild(doc)

    def test_results_identical_after_patch_vs_rebuild(self):
        queries = [
            "doc('s.xml')//person/name",
            "doc('s.xml')//auction/descendant-or-self::node()",
            "count(doc('s.xml')//*)",
            "doc('s.xml')//name/following::price",
            "doc('s.xml')//price/preceding::name",
            "doc('s.xml')//buyer/ancestor::*",
            "doc('s.xml')//@*",
        ]
        update = ("insert node <person id='p9'><name>Barbara</name>"
                  "</person> before doc('s.xml')//person[2]")
        outputs = []
        for prime in (True, False):
            doc, resolver = _store()
            if prime:  # live index gets patched
                structural_index(doc)
            _update(resolver, update)
            outputs.append([serialize_sequence(
                interpret(q, doc_resolver=resolver)) for q in queries])
        assert outputs[0] == outputs[1]


class TestGapExhaustion:
    def test_dense_document_respreads_or_reencodes(self):
        doc, resolver = _store()
        before = ENCODING_STATS.snapshot()
        # Each insert bisects the gap before person[2] (the previous
        # insert); KEY_STRIDE of them leave the region dense.
        for index in range(KEY_STRIDE):
            _update(resolver,
                    f"insert node <person id='pX{index}'/> "
                    "before doc('s.xml')//person[2]")
        after = ENCODING_STATS.snapshot()
        assert (after["gap_respreads"] > before["gap_respreads"]
                or after["reencodes_full"] > before["reencodes_full"])
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)

    def test_exhausted_gap_recovers_and_stays_queryable(self):
        doc, resolver = _store()
        # Hammer one gap far beyond its KEY_STRIDE capacity.
        for index in range(2 * KEY_STRIDE):
            _update(resolver,
                    f"insert node <extra n='{index}'/> "
                    "after doc('s.xml')//person[1]")
        assert_keys_monotone(doc)
        assert_windows_cover_subtrees(doc)
        result = interpret("count(doc('s.xml')//extra)",
                           doc_resolver=resolver)
        assert result[0].value == 2 * KEY_STRIDE
        if doc._sidx is not None and not doc._sidx.stale:
            assert_index_matches_rebuild(doc)

    def test_full_fallback_restores_gaps(self):
        doc, resolver = _store()
        before = ENCODING_STATS.snapshot()
        _update(resolver,
                "insert node <person id='pX'/> "
                "before doc('s.xml')//person[2]", incremental=False)
        assert ENCODING_STATS.snapshot()["reencodes_full"] \
            > before["reencodes_full"]
        # The full restamp leaves gaps, so the next small insert is
        # O(change) again.
        before = ENCODING_STATS.snapshot()
        _update(resolver,
                "insert node <person id='pY'/> "
                "before doc('s.xml')//person[2]")
        after = ENCODING_STATS.snapshot()
        assert after["reencodes_full"] == before["reencodes_full"]
        assert after["reencodes_subtree"] > before["reencodes_subtree"]


class TestDetachedRekey:
    def test_deleted_node_cannot_collide_with_later_mints(self):
        # A delete frees its serials into the gap plane; a later insert
        # may mint them again.  The detached node must have been rekeyed
        # under a fresh doc id, or a held reference would compare as the
        # same document position as a distinct live node.
        doc, resolver = _store()
        [detached] = interpret("doc('s.xml')//person[2]",
                               doc_resolver=resolver)
        _update(resolver, "delete node doc('s.xml')//person[2]")
        for index in range(2 * KEY_STRIDE):
            _update(resolver,
                    f"insert node <filler n='{index}'/> "
                    "after doc('s.xml')//person[1]")
        live_keys = {n.order_key for n in doc.descendants(include_self=True)}
        detached_keys = {n.order_key
                         for n in detached.descendants(include_self=True)}
        assert not live_keys & detached_keys
        assert detached.order_key[0] != doc.order_key[0]

    def test_replaced_and_replace_value_children_are_rekeyed(self):
        doc, resolver = _store()
        [old_person] = interpret("doc('s.xml')//person[1]",
                                 doc_resolver=resolver)
        [old_name_text] = interpret(
            "doc('s.xml')//person[2]/name/text()", doc_resolver=resolver)
        _update(resolver,
                "replace value of node doc('s.xml')//person[2]/name "
                "with 'Grace M. Hopper'")
        _update(resolver,
                "replace node doc('s.xml')//person[1] with <member/>")
        live_doc_ids = {n.order_key[0]
                        for n in doc.descendants(include_self=True)}
        assert old_person.order_key[0] not in live_doc_ids
        assert old_name_text.order_key[0] not in live_doc_ids


class TestHandAssembledFallback:
    def test_cross_factory_boundary_falls_back_to_full_reencode(self):
        # Hand-assembled tree out of two factories: the splice point's
        # neighbour keys carry different doc ids, so no gap can be
        # minted between them — the encoder must take the full-reencode
        # path (which also unifies the tree under one doc id).
        root = NodeFactory().element("root")
        a = NodeFactory().element("a")
        b = NodeFactory().element("b")
        root.append(a)
        root.append(b)
        before = ENCODING_STATS.snapshot()
        interpret("insert node <x/> before $b",
                  variables={"b": [b]})
        after = ENCODING_STATS.snapshot()
        assert after["reencodes_full"] > before["reencodes_full"]
        assert_keys_monotone(root)
        assert len({n.order_key[0]
                    for n in root.descendants(include_self=True)}) == 1


class TestEquivalenceGappedVsDense:
    QUERIES = [
        "doc('s.xml')//person/name",
        "doc('s.xml')//@*",
        "count(doc('s.xml')//node())",
        "doc('s.xml')//name/..",
        "doc('s.xml')//price/preceding::name",
    ]
    UPDATES = [
        "insert node <person id='pA'><name>Niklaus</name></person> "
        "as first into doc('s.xml')/site/people",
        "delete node doc('s.xml')//auction[1]",
        "rename node doc('s.xml')//person[1] as 'member'",
        "replace value of node doc('s.xml')//person[2]/name "
        "with 'G. Hopper'",
        "insert node attribute checked { 'y' } into doc('s.xml')//buyer",
    ]

    def test_byte_identical_across_encodings_and_modes(self):
        outputs = []
        for incremental, accelerator in (
                (True, True),    # O(change), accelerated
                (True, False),   # O(change) over the naive walkers
                (False, True),   # full-reencode reference
                (False, False)):
            doc, resolver = _store()
            run = []
            for update in self.UPDATES:
                interpret(update, doc_resolver=resolver,
                          accelerator=accelerator,
                          incremental=incremental)
                run.extend(serialize_sequence(
                    interpret(query, doc_resolver=resolver,
                              accelerator=accelerator))
                    for query in self.QUERIES)
            outputs.append(run)
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


class TestTelemetry:
    def test_explain_carries_update_counters(self):
        db = Database()
        db.register("s.xml", SITE)
        explain = db.explain(
            "insert node <x/> into doc('s.xml')/site/people")
        assert explain.counters["reencodes_subtree"] >= 1
        assert explain.counters["reencodes_full"] == 0
        assert explain.counters["index_patches"] >= 0
        assert "updates:" in explain.render()

    def test_read_only_explain_has_no_update_counters(self):
        db = Database()
        db.register("s.xml", SITE)
        explain = db.explain("doc('s.xml')//person/name")
        assert explain.counters["reencodes_full"] == 0
        assert explain.counters["reencodes_subtree"] == 0
        assert "updates:" not in explain.render()

    def test_explain_deltas_are_thread_attributed(self):
        # A counter bump on another thread must not leak into this
        # execution's tally (concurrent executions are supported), but
        # it still counts in the process-wide totals.
        import threading

        from repro.obs import tally

        before = ENCODING_STATS.snapshot()["reencodes_full"]
        with tally() as counts:
            ENCODING_STATS.bump("reencodes_full", 2)
            worker = threading.Thread(
                target=ENCODING_STATS.bump, args=("reencodes_full", 5))
            worker.start()
            worker.join()
        assert counts["reencodes_full"] == 2
        assert ENCODING_STATS.snapshot()["reencodes_full"] >= before + 7

    def test_peer_query_result_carries_update_counters(self):
        from repro.net import SimulatedNetwork
        from repro.rpc import XRPCPeer

        peer = XRPCPeer("p0", SimulatedNetwork())
        peer.store.register("s.xml", SITE)
        peer.execute_query("doc('s.xml')//person")  # build the index
        result = peer.execute_query(
            "insert node <x/> into doc('s.xml')/site/people")
        explain = result.explain()
        assert explain is result.telemetry
        assert explain.counters["reencodes_subtree"] >= 1
        assert explain.counters["reencodes_full"] == 0
        assert "updates:" in explain.render()

    def test_database_stats_totals(self):
        db = Database()
        db.register("s.xml", SITE)
        db.execute("doc('s.xml')//person")  # build the index
        before = db.stats()
        db.execute("insert node <x/> into doc('s.xml')/site/people")
        after = db.stats()
        assert after.counters["reencodes_subtree"] \
            > before.counters["reencodes_subtree"]
        assert after.counters["index_patches"] \
            > before.counters["index_patches"]
        assert after.counters["reencodes_full"] \
            == before.counters["reencodes_full"]
