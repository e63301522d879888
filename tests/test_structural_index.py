"""Structural accelerator layer: pre/size/level encoding, StructuralIndex,
set-at-a-time axis evaluation, and its invalidation on tree mutation."""

import pytest

from repro.xdm import (
    KEY_STRIDE,
    NodeFactory,
    reencode_tree,
    structural_index,
)
from repro.xdm.nodes import ElementNode
from repro.xml import parse_document
from repro.xml.serializer import serialize, serialize_sequence
from tests.helpers import interpret, run, strings

SITE = """
<site>
  <people>
    <person id="p0"><name>Ada</name><city>London</city></person>
    <person id="p1"><name>Grace</name><city>Arlington</city></person>
  </people>
  <auctions>
    <auction><buyer ref="p0"/><price>12</price></auction>
    <auction><buyer ref="p1"/><price>99</price></auction>
  </auctions>
</site>
"""

AXIS_QUERIES = [
    "doc('s.xml')/site/people/person/name",
    "doc('s.xml')//person",
    "doc('s.xml')//person[2]/name",
    "doc('s.xml')//person[last()]",
    "doc('s.xml')//person[@id = 'p1']/city",
    "doc('s.xml')//name/..",
    "doc('s.xml')//buyer/ancestor::*",
    "doc('s.xml')//price/ancestor-or-self::node()",
    "doc('s.xml')//name/following::price",
    "doc('s.xml')//price/preceding::name",
    "doc('s.xml')//person[1]/following-sibling::person",
    "doc('s.xml')//auction[2]/preceding-sibling::auction",
    "doc('s.xml')//buyer/@ref",
    "doc('s.xml')//@ref/..",
    "doc('s.xml')//@id/following::auction",
    "doc('s.xml')//@ref/preceding::person",
    "doc('s.xml')//*/self::person",
    "(doc('s.xml')//person, doc('s.xml')//auction)/descendant-or-self::node()",
    "doc('s.xml')//person/descendant::text()",
    "doc('s.xml')//city/parent::person/child::name",
    "doc('s.xml')//people/child::*",
]


def _both_modes(query, docs):
    serialized = []
    for accelerator in (True, False):
        parsed = {uri: parse_document(text, uri=uri)
                  for uri, text in docs.items()}
        result = interpret(query, doc_resolver=parsed.get,
                           accelerator=accelerator)
        serialized.append(serialize_sequence(result))
    return serialized


class TestEncoding:
    def test_parser_stamps_pre_size_level_in_one_pass(self):
        doc = parse_document("<a x='1'><b/><c>t</c></a>")
        a = doc.root_element
        assert doc.pre == 0 and doc.level == 0
        # Serials are gapped (KEY_STRIDE apart); sizes are serial-unit
        # extents: a's subtree holds attribute x, b, c, text = 4 keys.
        stride = KEY_STRIDE
        assert a.pre == stride and a.size == 4 * stride and a.level == 1
        b, c = a.child_elements()
        assert (b.level, c.level) == (2, 2)
        assert b.size == 0 and c.size == stride  # c holds one text node
        assert a.attributes[0].level == 2
        # document extent covers every serial issued after it
        assert doc.size == 5 * stride

    def test_descendant_window_contains_exactly_the_subtree(self):
        doc = parse_document(SITE)
        people = doc.root_element.find("people")
        lo, hi = people.pre, people.pre + people.size
        inside = [n for n in doc.descendants()
                  if lo < n.pre <= hi]
        assert set(id(n) for n in inside) == \
            set(id(n) for n in people.descendants())

    def test_structural_index_columns(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        index = structural_index(doc)
        assert [n.kind for n in index.nodes] == \
            ["document", "element", "element", "element", "element"]
        assert list(index.sizes) == [4, 3, 1, 0, 0]
        assert list(index.levels) == [0, 1, 2, 3, 2]
        assert index.name_pres("c") == [3]
        assert index.name_pres("nope") == []

    def test_index_cached_until_mutation(self):
        doc = parse_document("<a><b/></a>")
        first = structural_index(doc)
        assert structural_index(doc) is first
        doc.root_element.append(NodeFactory().element("c"))
        second = structural_index(doc)
        assert second is not first
        assert second.generation > first.generation
        assert second.name_pres("c") == [3]

    def test_set_attribute_invalidates(self):
        doc = parse_document("<a/>")
        first = structural_index(doc)
        doc.root_element.set_attribute(NodeFactory().attribute("x", "1"))
        assert structural_index(doc) is not first

    def test_reencode_restores_document_order(self):
        doc = parse_document("<a><b/><d/></a>")
        foreign = NodeFactory().element("c")  # later doc_id, early position
        a = doc.root_element
        a.children.insert(1, foreign)
        foreign.parent = a
        reencode_tree(doc)
        keys = [n.order_key for n in doc.descendants(include_self=True)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        # Restamped with gaps so the next update stays O(change).
        stride = KEY_STRIDE
        assert [n.pre for n in doc.descendants(include_self=True)] == \
            [0, stride, 2 * stride, 3 * stride, 4 * stride]
        assert a.size == 3 * stride and foreign.level == 2


class TestAxisEquivalence:
    @pytest.mark.parametrize("query", AXIS_QUERIES)
    def test_accelerated_equals_naive(self, query):
        accel, naive = _both_modes(query, {"s.xml": SITE})
        assert accel == naive

    def test_attributes_merge_in_document_order(self):
        # Attribute nodes of distinct elements interleave with the global
        # order of their owners when pooled through one step.
        result = run("doc('s.xml')//@*", docs={"s.xml": SITE})
        assert [a.value for a in result] == ["p0", "p1", "p0", "p1"]
        accel, naive = _both_modes("doc('s.xml')//@*", {"s.xml": SITE})
        assert accel == naive

    def test_duplicate_context_nodes_deduplicate(self):
        query = ("let $p := doc('s.xml')//person "
                 "return ($p, $p)/descendant::text()")
        accel, naive = _both_modes(query, {"s.xml": SITE})
        assert accel == naive

    def test_covered_contexts_are_staircase_pruned(self):
        # site and its person descendants: windows overlap entirely.
        query = ("(doc('s.xml')/site, doc('s.xml')//person)"
                 "/descendant::name")
        accel, naive = _both_modes(query, {"s.xml": SITE})
        assert accel == naive
        result = run(query, docs={"s.xml": SITE})
        assert strings(result) == ["Ada", "Grace"]


class TestAdoptedFragments:
    """Call-by-value fragments out of ``n2s`` are standalone trees: the
    upward and sideways axes must stay empty at the remote side, and the
    downward/order axes must work over the fragment's own index."""

    def _adopted_person(self):
        from repro.soap import n2s, s2n
        source = parse_document(SITE)
        [person] = [e for e in source.root_element.find("people").child_elements()
                    if e.get_attribute("id").value == "p0"]
        wire = serialize(s2n([person]))
        return n2s(parse_document(wire).root_element)[0]

    @pytest.mark.parametrize("axis,expected", [
        ("parent::*", 0),
        ("ancestor::*", 0),
        ("ancestor-or-self::*", 1),     # only the fragment root itself
        ("following-sibling::*", 0),
        ("preceding-sibling::*", 0),
        ("following::*", 0),
        ("preceding::*", 0),
        ("self::person", 1),
        ("child::*", 2),
        ("descendant::node()", 4),      # name, 'Ada', city, 'London'
    ])
    def test_axes_on_adopted_fragment(self, axis, expected):
        fragment = self._adopted_person()
        for accelerator in (True, False):
            result = interpret(f"$f/{axis}", variables={"f": [fragment]},
                               context_item=fragment,
                               accelerator=accelerator)
            assert len(result) == expected, (axis, accelerator)

    def test_adopted_fragment_attribute_axis(self):
        fragment = self._adopted_person()
        result = interpret("$f/@id", variables={"f": [fragment]})
        assert [a.value for a in result] == ["p0"]


class TestUpdateInvalidation:
    def _store(self):
        return {"s.xml": parse_document(SITE, uri="s.xml")}

    def test_axes_after_pul_apply(self):
        for accelerator in (True, False):
            docs = self._store()
            # Prime the structural index, then mutate through a PUL.
            before = interpret("doc('s.xml')//person",
                               doc_resolver=docs.get,
                               accelerator=accelerator)
            assert len(before) == 2
            interpret(
                "insert node <person id='p2'><name>Edsger</name></person> "
                "as last into doc('s.xml')/site/people",
                doc_resolver=docs.get, accelerator=accelerator)
            after = interpret("doc('s.xml')//person/name",
                              doc_resolver=docs.get,
                              accelerator=accelerator)
            assert strings(after) == ["Ada", "Grace", "Edsger"], accelerator

    def test_inserted_content_sorts_in_tree_position(self):
        # Spliced-in nodes are re-encoded into their new tree position:
        # a document-order merge must not push them to the end.
        for accelerator in (True, False):
            docs = self._store()
            interpret(
                "insert node <person id='pX'><name>Alonzo</name></person> "
                "as first into doc('s.xml')/site/people",
                doc_resolver=docs.get, accelerator=accelerator)
            names = interpret("doc('s.xml')//name",
                              doc_resolver=docs.get,
                              accelerator=accelerator)
            assert strings(names) == ["Alonzo", "Ada", "Grace"], accelerator

    def test_replace_value_on_element_reencodes(self):
        # ReplaceValue splices a fresh-factory text node into the target
        # element; without re-encoding, the new node's foreign doc_id
        # would sort it after the whole tree on the reference path.
        outputs = []
        for accelerator in (True, False):
            docs = self._store()
            interpret(
                "replace value of node doc('s.xml')//person[1]/name "
                "with 'Augusta'",
                doc_resolver=docs.get, accelerator=accelerator)
            result = interpret("doc('s.xml')//node()",
                               doc_resolver=docs.get,
                               accelerator=accelerator)
            outputs.append(serialize_sequence(result))
        assert outputs[0] == outputs[1]
        assert "Augusta" in outputs[0]

    def test_value_index_invalidated_by_update(self):
        # The equality-predicate index must be rebuilt after a PUL
        # changed the keyed values (it is cached on the structural index,
        # which mutation replaces).
        docs = self._store()
        probe = "doc('s.xml')//person[@id = 'p1']/name"
        assert strings(interpret(probe, doc_resolver=docs.get)) == \
            ["Grace"]
        interpret(
            "for $p in doc('s.xml')//person "
            "where $p/@id = 'p1' "
            "return rename node $p as 'retired'",
            doc_resolver=docs.get)
        assert strings(interpret(probe, doc_resolver=docs.get)) == []

    def test_value_index_cache_key_not_id_based(self):
        # Two distinct anchors must never share one cached value index
        # (the old cache keyed by id(anchor) could collide after GC).
        docs = self._store()
        query = ("for $scope in (doc('s.xml')/site/people, doc('s.xml')/site) "
                 "return count($scope/descendant::person[@id = 'p0'])")
        counts = [v.value for v in interpret(query, doc_resolver=docs.get)]
        assert counts == [1, 1]


class TestNodeLevelWalkers:
    def test_descendants_iterative_on_deep_tree(self):
        factory = NodeFactory()
        root = factory.element("root")
        node = root
        for _ in range(5000):
            child = factory.element("n")
            node.append(child)
            node = child
        assert sum(1 for _ in root.descendants()) == 5000
        assert sum(1 for _ in node.ancestors()) == 5000

    def test_preceding_is_lazy_and_never_walks_forward(self, monkeypatch):
        # 400 sections of 3 leaves; take a node near the *front* and the
        # last node.  The first yields of preceding must not traverse the
        # document: count children-property reads.
        doc = parse_document(
            "<r>" + "".join(
                f"<s><a/><b/><c/></s>" for _ in range(400)) + "</r>")
        sections = doc.root_element.child_elements()
        reads = []
        original = ElementNode.children
        monkeypatch.setattr(
            ElementNode, "children",
            property(lambda self: (reads.append(1), original.fget(self))[1]))

        early = sections[1]
        assert [n.name for n in early.preceding()
                if isinstance(n, ElementNode)] == ["c", "b", "a", "s"]
        early_reads = len(reads)
        assert early_reads < 40, "preceding walked forward nodes"

        reads.clear()
        last_leaf = sections[-1].child_elements()[-1]
        first_two = []
        gen = last_leaf.preceding()
        first_two.append(next(gen))
        first_two.append(next(gen))
        assert [n.name for n in first_two] == ["b", "a"]
        assert len(reads) < 40, "preceding materialized the whole document"

    def test_preceding_of_attribute_equals_owner(self):
        doc = parse_document(SITE)
        buyer = doc.root_element.find("auctions").child_elements()[0] \
            .child_elements()[0]
        ref = buyer.attributes[0]
        assert [id(n) for n in ref.preceding()] == \
            [id(n) for n in buyer.preceding()]
