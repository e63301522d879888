"""Deep-tree regression tests: ~5000-level trees must survive every
hot-path tree operation under the *default* recursion limit.

``Node.descendants`` was made iterative in an earlier PR; these tests
pin the remaining paths named by the ROADMAP — ``copy_tree`` (the XRPC
call-by-value copy), ``serialize`` (marshal), ``parse_document`` and
``reencode_tree`` — plus the full round-trip through all of them.
"""

import sys

import pytest

from repro.xdm.nodes import NodeFactory, copy_tree
from repro.xdm.structural import reencode_tree, structural_index
from repro.xml import parse_document
from repro.xml.serializer import serialize

DEPTH = 5000


def build_spine(depth: int = DEPTH) -> tuple:
    """A root with one child per level, an attribute every 100 levels,
    and a text leaf — stamped by the factory like the parsers stamp."""
    factory = NodeFactory()
    root = factory.element("spine", level=0)
    current = root
    for index in range(depth):
        child = factory.element("level", level=index + 1)
        if index % 100 == 0:
            child.set_attribute(factory.attribute(
                "depth", str(index), level=index + 2))
        current.append(child)
        current = child
    current.append(factory.text("leaf", level=depth + 1))
    # Single-spine tree: every element's subtree extends to the last
    # serial issued, so the parse-style size stamp is closed-form
    # (serial units — serials are gapped by KEY_STRIDE).
    root.size = factory.last_serial - root.order_key[1]
    for node in root.descendants():
        if node.children:
            node.size = factory.last_serial - node.order_key[1]
    return root, current


@pytest.fixture(scope="module")
def spine():
    assert sys.getrecursionlimit() <= 5000, \
        "deep-tree tests assume the default recursion limit"
    return build_spine()


class TestDeepCopy:
    def test_copy_tree_survives(self, spine):
        root, _leaf = spine
        copy = copy_tree(root)
        assert copy.local_name == "spine"
        assert copy.parent is None

    def test_copy_preserves_single_pass_stamps(self, spine):
        root, _leaf = spine
        copy = copy_tree(root)
        # Dense serials in document order, sizes covering each subtree,
        # levels equal to construction depth — identical to the source.
        originals = [root] + list(root.descendants())
        copies = [copy] + list(copy.descendants())
        assert len(originals) == len(copies)
        for original, copied in zip(originals, copies):
            assert copied.order_key[1] == original.order_key[1]
            assert copied.size == original.size
            assert copied.level == original.level
        for original, copied in zip(originals, copies):
            assert [a.value for a in copied.attributes] == \
                [a.value for a in original.attributes]

    def test_copy_has_fresh_identity(self, spine):
        root, _leaf = spine
        copy = copy_tree(root)
        assert copy is not root
        assert copy.order_key[0] != root.order_key[0]


class TestDeepAtomize:
    def test_string_value_survives(self, spine):
        # Atomization (fn:string / typed_value) of a deep tree sits on
        # the XRPC marshal hot path; the nested-generator recursion
        # overflowed here before.
        root, _leaf = spine
        assert root.string_value() == "leaf"


class TestDeepSerialize:
    def test_serialize_survives(self, spine):
        root, _leaf = spine
        text = serialize(root)
        assert text.startswith("<spine>")
        assert text.endswith("</spine>")
        assert "leaf" in text

    def test_serialize_indent_survives(self, spine):
        root, _leaf = spine
        text = serialize(root, indent=True)
        assert text.startswith("<spine>")

    def test_serialize_matches_piecewise_reconstruction(self):
        # Byte-identity against the obvious recursive serialization on a
        # shallow tree with the tricky features (namespaces, mixed
        # content, comments, PIs, escaping).
        doc = parse_document(
            '<a xmlns:p="urn:x" p:y="1"><b>t &amp; u</b><!--c-->'
            "<?pi data?><c/>mixed</a>")
        text = serialize(doc)
        assert text == ('<a xmlns:p="urn:x" p:y="1"><b>t &amp; u</b><!--c-->'
                        "<?pi data?><c/>mixed</a>")


class TestDeepParse:
    def test_parse_survives(self, spine):
        root, _leaf = spine
        document = parse_document(serialize(root))
        assert document.root_element.local_name == "spine"
        # Parser stamps match the construction stamps.
        reparsed = [document.root_element] + \
            list(document.root_element.descendants())
        originals = [root] + list(root.descendants())
        assert [n.size for n in reparsed] == [n.size for n in originals]
        # Parsed trees hang below a document node, shifting depth by one.
        assert [n.level - 1 for n in reparsed] == \
            [n.level for n in originals]


class TestDeepRoundTrip:
    def test_copy_reencode_serialize_parse(self, spine):
        root, _leaf = spine
        copy = copy_tree(root)
        reencode_tree(copy)
        text = serialize(copy)
        document = parse_document(text)
        assert serialize(document.root_element) == text
        # The re-encoded copy and the re-parsed tree agree on structure.
        index_copy = structural_index(copy)
        index_parsed = structural_index(document.root_element)
        assert index_copy.sizes == index_parsed.sizes
        assert index_copy.levels == index_parsed.levels

    def test_structural_index_on_deep_copy(self, spine):
        root, _leaf = spine
        copy = copy_tree(root)
        index = structural_index(copy)
        assert len(index.nodes) == DEPTH + 2  # spine + levels + text leaf
        # Descendant window of the root covers the whole spine.
        assert index.sizes[0] == DEPTH + 1
