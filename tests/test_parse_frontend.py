"""Differential suite: the expat frontend vs the pure-python parser.

The expat frontend's contract is byte-identical trees — same node kinds
in the same order, same names/values, same namespace resolution, and
identical pre/size/level planes and gapped order keys.  Every test here
parses the same input through both parsers (``parse_document_expat`` and
``parse_document_python``) and compares full tree encodings, plus
property-based round-trips (parse -> serialize -> parse) across both —
documents and the SOAP envelopes the message layer builds.
"""

import string as stringmod

import pytest
from hypothesis import given, settings, strategies as st

from repro.session import Database
from repro.soap.messages import (
    QueryID,
    TxnCommand,
    XRPCRequest,
    XRPCResponse,
    build_fault,
    build_request,
    build_response,
    build_txn_command,
    parse_request,
)
from repro.workloads.xmark import (
    XMarkConfig,
    generate_auctions,
    generate_persons,
)
from repro.xdm.atomic import integer, string
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    KEY_STRIDE,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xml.expat_parser import ExpatUnsupported, parse_document_expat
from repro.xml.parser import (
    PARSE_STATS,
    XMLSyntaxError,
    decode_xml_bytes,
    parse_document,
    parse_document_python,
    parse_fragment,
)
from repro.xml.serializer import escape_attribute, escape_text, serialize


def rows(document):
    """Flatten a tree into comparable row dicts (iterative: deep docs)."""
    out = []
    stack = [(document, None)]
    while stack:
        node, parent = stack.pop()
        row = {
            "kind": type(node).__name__,
            "serial": node.order_key[1],
            "size": node.size,
            "level": node.level,
            "parent": None if parent is None else parent.order_key[1],
        }
        if isinstance(node, ElementNode):
            row.update(name=node.name, ns=node.ns_uri,
                       local=node.local_name,
                       decls=dict(node.namespace_declarations))
            for attribute in node.attributes:
                row.setdefault("attrs", []).append(
                    (attribute.order_key[1], attribute.name,
                     attribute.value, attribute.ns_uri, attribute.level,
                     attribute.local_name))
            stack.extend((c, node) for c in reversed(node.children))
        elif isinstance(node, (TextNode, CommentNode)):
            row["content"] = node.content
        elif isinstance(node, ProcessingInstructionNode):
            row["target"] = node.target
            row["content"] = node.content
        elif isinstance(node, DocumentNode):
            row["uri"] = node.uri
            stack.extend((c, node) for c in reversed(node.children))
        out.append(row)
    return out


#: Both parsers, without the dispatch rule between them.
PARSERS = {"expat": parse_document_expat, "python": parse_document_python}


def assert_identical(text):
    py = parse_document_python(text, uri="u")
    ex = parse_document_expat(text, uri="u")
    assert rows(py) == rows(ex)
    return py, ex


XMARK = XMarkConfig(persons=25, closed_auctions=50, open_auctions=10)


class TestIdenticalTrees:
    def test_xmark_auctions(self):
        assert_identical(generate_auctions(XMARK))

    def test_xmark_persons(self):
        assert_identical(generate_persons(XMARK))

    def test_gapped_order_keys(self):
        _, doc = assert_identical("<r><a x='1'/><b>t</b></r>")
        serials = [n.order_key[1] for n in doc.descendants()]
        assert all(s % KEY_STRIDE == 0 for s in serials)
        assert serials == sorted(serials)

    def test_namespaces(self):
        assert_identical(
            '<r xmlns="urn:d" xmlns:a="urn:a" id="r1">'
            '<a:item a:k="v" plain="p"/>'
            '<e2 xmlns=""><inner/></e2>'
            '<deep xmlns:b="urn:b"><b:x b:y="z"/></deep></r>')

    def test_namespace_rescoping(self):
        assert_identical(
            '<r xmlns:p="urn:1"><p:a><b xmlns:p="urn:2"><p:c/></b>'
            '<p:d/></p:a><e/></r>')

    def test_xml_prefix_predeclared(self):
        assert_identical('<r xml:lang="en"><xml:a/></r>')

    def test_cdata_pi_comments(self):
        assert_identical(
            "<?xml version='1.0'?><!-- head --><?style sheet ?>"
            "<r>a<![CDATA[<raw> & stuff]]>b<!-- in -->"
            "<?pi data?></r><!-- tail -->")

    def test_empty_cdata_yields_text_node(self):
        py, ex = assert_identical("<r><![CDATA[]]></r>")
        assert isinstance(ex.root_element.children[0], TextNode)
        assert ex.root_element.children[0].content == ""

    def test_entity_references(self):
        assert_identical(
            "<r a='&quot;&apos;'>&amp;&lt;&gt; &#65;&#x42;</r>")

    def test_attribute_whitespace_normalized(self):
        py, ex = assert_identical('<r a="x\ny\tz" b="&#10;&#9;"/>')
        a, b = ex.root_element.attributes
        assert a.value == "x y z"      # literal whitespace -> space
        assert b.value == "\n\t"       # character references exempt

    def test_line_ending_normalization(self):
        assert_identical("<r>a\r\nb\rc</r>")

    def test_deep_document_5000(self):
        deep = ("<root>" + "".join(f"<n{i}>" for i in range(5000)) + "x"
                + "".join(f"</n{i}>" for i in reversed(range(5000)))
                + "</root>")
        assert_identical(deep)

    def test_size_covers_attributes(self):
        _, doc = assert_identical('<r><a x="1" y="2"/></r>')
        a = doc.root_element.children[0]
        # The descendant window pre < x <= pre+size spans the attributes.
        assert a.size == 2 * KEY_STRIDE

    def test_mixed_content_text_runs(self):
        assert_identical("<r>one<y/>two<z/>three</r>")


class TestBytesInput:
    def test_plain_utf8_bytes(self):
        py = parse_document_python("<r>é</r>".encode("utf-8"))
        ex = parse_document_expat("<r>é</r>".encode("utf-8"))
        assert rows(py) == rows(ex)
        assert ex.root_element.string_value() == "é"

    def test_utf8_bom(self):
        data = b"\xef\xbb\xbf<r>x</r>"
        for parse in PARSERS.values():
            doc = parse(data)
            assert doc.root_element.string_value() == "x"

    def test_utf16_bom(self):
        data = '<?xml version="1.0" encoding="utf-16"?><r>é</r>' \
            .encode("utf-16")
        for parse in PARSERS.values():
            doc = parse(data)
            assert doc.root_element.string_value() == "é"

    def test_declared_latin1(self):
        data = ('<?xml version="1.0" encoding="ISO-8859-1"?><r>é</r>'
                .encode("latin-1"))
        for parse in PARSERS.values():
            doc = parse(data)
            assert doc.root_element.string_value() == "é"

    def test_decode_xml_bytes_unknown_encoding(self):
        with pytest.raises(XMLSyntaxError):
            decode_xml_bytes(
                b'<?xml version="1.0" encoding="no-such-enc"?><r/>')

    def test_str_and_bytes_same_tree(self):
        text = generate_persons(XMARK)
        assert rows(parse_document(text)) \
            == rows(parse_document(text.encode("utf-8")))


class TestDispatchAndFallback:
    def test_default_is_expat(self):
        before = PARSE_STATS.snapshot()
        parse_document("<r/>")
        after = PARSE_STATS.snapshot()
        assert after["documents_expat"] == before["documents_expat"] + 1
        assert after["documents_python"] == before["documents_python"]

    def test_internal_subset_falls_back(self):
        # Declared entities are outside the expat frontend's subset; the
        # python parser skips the subset but rejects the *reference*, so
        # the dispatcher's fallback re-diagnoses uniformly.
        text = '<!DOCTYPE r [<!ENTITY e "x">]><r>&e;</r>'
        with pytest.raises(ExpatUnsupported):
            parse_document_expat(text)
        before = PARSE_STATS.snapshot()["fallbacks_to_python"]
        with pytest.raises(XMLSyntaxError):
            parse_document(text)
        assert PARSE_STATS.snapshot()["fallbacks_to_python"] == before + 1

    def test_internal_subset_parses_on_fallback(self):
        text = '<!DOCTYPE r [<!ATTLIST r a CDATA "d">]><r/>'
        with pytest.raises(ExpatUnsupported):
            parse_document_expat(text)
        before = PARSE_STATS.snapshot()["documents_python"]
        assert rows(parse_document(text)) == rows(parse_document_python(text))
        assert PARSE_STATS.snapshot()["documents_python"] == before + 1

    def test_explicit_expat_never_falls_back(self):
        with pytest.raises(ExpatUnsupported):
            parse_document_expat('<!DOCTYPE r [<!ENTITY e "x">]><r/>')

    def test_malformed_error_parity(self):
        cases = ["<r>", "<r></s>", "<r a='1' a='2'/>", "text only",
                 "<r>&unknown;</r>", "<a/><b/>"]
        for text in cases:
            for parse in (parse_document, *PARSERS.values()):
                with pytest.raises(XMLSyntaxError):
                    parse(text)

    def test_error_locations_match(self):
        text = "<root>\n  <unclosed>\n</root>"
        with pytest.raises(XMLSyntaxError) as py_err:
            parse_document_python(text)
        with pytest.raises(XMLSyntaxError) as default_err:
            parse_document(text)  # expat fails, python re-diagnoses
        assert str(default_err.value) == str(py_err.value)

    def test_message_path_backend_threading(self):
        # The message layer parses through parse_document's one rule:
        # encoded bytes in, the expat frontend first.
        request = XRPCRequest(module="m", method="f", arity=1,
                              location="http://x/m.xq")
        request.add_call([[integer(1), string("a&b")]])
        payload = build_request(request)
        before = PARSE_STATS.snapshot()["documents_expat"]
        parsed = parse_request(payload.encode("utf-8"))
        assert PARSE_STATS.snapshot()["documents_expat"] == before + 1
        assert parsed.method == "f"
        assert parsed.calls[0][0][1].value == "a&b"


class TestTelemetry:
    def test_database_stats_counters(self):
        db = Database()
        before = db.stats()
        db.register("d.xml", "<r><a/></r>")
        after = db.stats()
        assert after.counters["documents_expat"] \
            == before.counters["documents_expat"] + 1
        assert after.counters["bytes_expat"] > before.counters["bytes_expat"]

    def test_database_counts_python_fallback(self):
        db = Database()
        before = db.stats()
        db.register("d.xml", '<!DOCTYPE r [<!ATTLIST r a CDATA "d">]><r/>')
        after = db.stats()
        assert after.counters["documents_python"] \
            == before.counters["documents_python"] + 1
        assert after.counters["fallbacks_to_python"] \
            == before.counters["fallbacks_to_python"] + 1

    def test_explain_reports_no_parse_work_for_warm_doc(self):
        db = Database()
        db.register("d.xml", "<r><a>1</a></r>")
        explain = db.explain("doc('d.xml')//a")
        assert explain.counters["documents_expat"] == 0
        assert explain.counters["documents_python"] == 0
        assert explain.counters["fallbacks_to_python"] == 0


# ---------------------------------------------------------------------------
# Property-based round-trips across both parsers

_NAME_START = stringmod.ascii_letters + "_"
_NAME_CHARS = stringmod.ascii_letters + stringmod.digits + "_-."

xml_names = st.builds(
    lambda first, rest: first + rest,
    st.sampled_from(_NAME_START),
    st.text(alphabet=_NAME_CHARS, max_size=8),
)

xml_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs"),
                           blacklist_characters="\r"),
    max_size=40,
)


@st.composite
def xml_trees(draw, depth=2):
    name = draw(xml_names)
    attributes = draw(st.dictionaries(xml_names, xml_text, max_size=3))
    attr_text = "".join(
        f' {key}="{escape_attribute(value)}"'
        for key, value in attributes.items())
    if depth == 0:
        content = escape_text(draw(xml_text))
    else:
        parts = draw(st.lists(
            st.one_of(xml_text.map(escape_text),
                      xml_trees(depth=depth - 1)),
            max_size=3))
        content = "".join(parts)
    return f"<{name}{attr_text}>{content}</{name}>"


@settings(max_examples=60, deadline=None)
@given(xml_trees())
def test_backends_agree_on_random_trees(text):
    assert rows(parse_document_python(text)) \
        == rows(parse_document_expat(text))


@settings(max_examples=60, deadline=None)
@given(xml_trees())
def test_round_trip_across_backends(text):
    # parse -> serialize -> parse is a fixed point, on either parser,
    # and the serialized form is parser-independent.
    serialized = {}
    for name, parse in PARSERS.items():
        doc = parse(text)
        serialized[name] = serialize(doc)
        reparsed = parse(serialized[name])
        other = PARSERS["python" if name == "expat" else "expat"]
        assert rows(reparsed) == rows(other(serialized[name]))
        assert serialize(reparsed) == serialized[name]
    assert serialized["expat"] == serialized["python"]


# ---------------------------------------------------------------------------
# The same differential over the SOAP envelopes the message layer builds

soap_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(integer),
    xml_text.map(string),
    xml_trees(depth=1).map(parse_fragment),
)
deadlines = st.one_of(st.none(), st.floats(min_value=0, max_value=100))


@st.composite
def soap_envelopes(draw):
    """An envelope from one of the message builders, random payloads."""
    kind = draw(st.sampled_from(["request", "response", "fault", "txn"]))
    method = draw(xml_names)
    exchange_id = draw(st.one_of(st.none(), xml_names))
    if kind == "request":
        query_id = draw(st.one_of(st.none(), st.builds(
            QueryID, host=xml_names, timestamp=st.floats(0, 1e6),
            timeout=st.integers(1, 600))))
        request = XRPCRequest(
            module=draw(xml_names), method=method, arity=1,
            location=draw(st.one_of(st.none(), xml_names)),
            query_id=query_id, updating=draw(st.booleans()),
            exchange_id=exchange_id, deadline_remaining=draw(deadlines))
        for values in draw(st.lists(st.lists(soap_values, max_size=3),
                                    min_size=1, max_size=3)):
            request.add_call([values])
        return build_request(request)
    if kind == "response":
        return build_response(XRPCResponse(
            module=draw(xml_names), method=method,
            results=draw(st.lists(st.lists(soap_values, max_size=3),
                                  max_size=3)),
            participating_peers=draw(st.lists(xml_names, max_size=2)),
            exchange_id=exchange_id))
    if kind == "fault":
        return build_fault(draw(st.sampled_from(["env:Sender",
                                                 "env:Receiver"])),
                           draw(xml_text), exchange_id)
    return build_txn_command(TxnCommand(
        draw(st.sampled_from(["prepare", "commit", "rollback"])),
        QueryID(host=draw(xml_names), timestamp=1.0, timeout=60),
        exchange_id=exchange_id, deadline_remaining=draw(deadlines)))


@settings(max_examples=60, deadline=None)
@given(soap_envelopes())
def test_parsers_agree_on_soap_envelopes(envelope):
    assert rows(parse_document_python(envelope)) \
        == rows(parse_document_expat(envelope))
    assert rows(parse_document_python(envelope.encode("utf-8"))) \
        == rows(parse_document_expat(envelope.encode("utf-8")))
