"""Edge-case tests for the SOAP message layer and peer document routing."""

import pytest

from repro.errors import DynamicError, XRPCFault
from repro.net import SimulatedNetwork
from repro.rpc import XRPCPeer
from repro.soap import (
    QueryID,
    XRPCRequest,
    XRPCResponse,
    build_request,
    build_response,
    parse_message,
    parse_request,
    parse_response,
)
from repro.xdm import integer, string
from tests.helpers import values


class TestMessageEdgeCases:
    def test_request_without_calls_rejected_on_parse(self):
        text = build_request(_one_call_request()).replace(
            "<xrpc:call>", "<xrpc:dropped>").replace(
            "</xrpc:call>", "</xrpc:dropped>")
        with pytest.raises(XRPCFault):
            parse_request(text)

    def test_missing_module_attribute(self):
        text = build_request(_one_call_request()).replace(
            ' module="films"', "")
        with pytest.raises(XRPCFault):
            parse_request(text)

    @pytest.mark.parametrize("good,bad", [
        ('arity="1"', 'arity="one"'),
        ('timestamp="1.5"', 'timestamp="noon"'),
        ('timeout="30"', 'timeout="soon"'),
        ('remaining="2.5"', 'remaining="later"'),
    ])
    def test_non_numeric_attribute_is_a_sender_fault(self, good, bad):
        request = _one_call_request()
        request.query_id = QueryID(host="h", timestamp=1.5, timeout=30)
        request.exchange_id = "e-1"
        request.deadline_remaining = 2.5
        text = build_request(request)
        assert good in text
        with pytest.raises(XRPCFault) as info:
            parse_request(text.replace(good, bad))
        assert info.value.fault_code == "env:Sender"
        # The server answers it with a SOAP fault, not an exception.
        peer = XRPCPeer("y", SimulatedNetwork())
        reply = parse_message(peer.server.handle(text.replace(good, bad)))
        assert reply.fault_code == "env:Sender"

    def test_parse_request_rejects_response(self):
        response = build_response(XRPCResponse(module="m", method="f"))
        with pytest.raises(XRPCFault):
            parse_request(response)

    def test_parse_response_rejects_request(self):
        with pytest.raises(XRPCFault):
            parse_response(build_request(_one_call_request()))

    def test_unicode_content_round_trip(self):
        request = XRPCRequest(module="m", method="f", arity=1)
        request.add_call([[string("héllo – ✓ 日本語")]])
        parsed = parse_request(build_request(request))
        assert parsed.calls[0][0][0].value == "héllo – ✓ 日本語"

    def test_whitespace_only_string_preserved(self):
        request = XRPCRequest(module="m", method="f", arity=1)
        request.add_call([[string("  ")]])
        parsed = parse_request(build_request(request))
        assert parsed.calls[0][0][0].value == "  "

    def test_queryid_key_identity(self):
        first = QueryID("h", 1.5, 60)
        second = QueryID("h", 1.5, 90)  # timeout not part of identity
        assert first.key == second.key

    def test_large_bulk_request(self):
        request = XRPCRequest(module="m", method="f", arity=1)
        for index in range(500):
            request.add_call([[integer(index)]])
        parsed = parse_request(build_request(request))
        assert len(parsed.calls) == 500
        assert parsed.calls[499][0] == [integer(499)]

    def test_bytes_input_accepted(self):
        text = build_request(_one_call_request())
        parsed = parse_message(text.encode("utf-8"))
        assert isinstance(parsed, XRPCRequest)


def _one_call_request() -> XRPCRequest:
    request = XRPCRequest(module="films", method="filmsByActor", arity=1,
                          location="f.xq")
    request.add_call([[string("Sean Connery")]])
    return request


class TestPeerDocumentRouting:
    def test_local_xrpc_uri_resolves_locally(self):
        network = SimulatedNetwork()
        peer = XRPCPeer("self.example.org", network)
        peer.store.register("d.xml", "<d>local</d>")
        result = peer.execute_query("string(doc('xrpc://self.example.org/d.xml'))")
        assert values(result.sequence) == ["local"]

    def test_plain_uri_resolves_in_store(self):
        peer = XRPCPeer("a", SimulatedNetwork())
        peer.store.register("d.xml", "<d/>")
        result = peer.execute_query("count(doc('d.xml'))")
        assert values(result.sequence) == [1]

    def test_missing_local_doc_errors(self):
        peer = XRPCPeer("a", SimulatedNetwork())
        with pytest.raises(DynamicError):
            peer.execute_query("doc('ghost.xml')")

    def test_nested_path_in_remote_uri(self):
        network = SimulatedNetwork()
        a = XRPCPeer("a", network)
        b = XRPCPeer("b", network)
        b.store.register("data/deep/file.xml", "<x>deep</x>")
        result = a.execute_query("string(doc('xrpc://b/data/deep/file.xml'))")
        assert values(result.sequence) == ["deep"]

    def test_fn_put_stores_into_peer_store(self):
        peer = XRPCPeer("a", SimulatedNetwork())
        peer.store.register("src.xml", "<src>payload</src>")
        peer.execute_query("put(doc('src.xml'), 'dst.xml')")
        assert peer.store.get("dst.xml").root_element.string_value() == \
            "payload"

    def test_remote_fetch_is_by_value(self):
        network = SimulatedNetwork()
        a = XRPCPeer("a", network)
        b = XRPCPeer("b", network)
        b.store.register("d.xml", "<d><leaf/></d>")
        result = a.execute_query("doc('xrpc://b/d.xml')//leaf")
        [leaf] = result.sequence
        # The fetched tree is a fresh copy, not b's stored instance.
        b_leaf = b.store.get("d.xml").root_element.children[0]
        assert leaf is not b_leaf
