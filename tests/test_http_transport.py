"""Real loopback HTTP transport tests: SOAP XRPC over actual sockets."""

import pytest

from repro.engine import TreeEngine
from repro.errors import TransportError, XRPCFault
from repro.net import HttpTransport, HttpXRPCServer, ResilientChannel
from repro.net.transport import ExchangeSpec, normalize_peer_uri
from repro.rpc import XRPCPeer
from repro.soap import XRPCRequest, build_request, parse_response
from repro.wrapper import XRPCWrapper
from repro.xdm.atomic import integer
from tests.helpers import values

ECHO_MODULE = """
module namespace m = "urn:echo";
declare function m:double($x as xs:integer) as xs:integer { $x * 2 };
"""


class TestNormalizePeerUri:
    @pytest.mark.parametrize("uri,expected", [
        ("xrpc://y.example.org", "y.example.org"),
        ("xrpc://y.example.org:8080/db", "y.example.org:8080"),
        ("xrpc://host/", "host"),
        ("http://host:99/x", "host:99"),
        ("bare-host", "bare-host"),
        ("xrpc://", "localhost"),
    ])
    def test_normalization(self, uri, expected):
        assert normalize_peer_uri(uri) == expected


class TestHttpRoundTrip:
    def test_request_response_over_http(self):
        wrapper = XRPCWrapper(engine=TreeEngine())
        wrapper.engine.registry.register_source(ECHO_MODULE, location="e.xq")
        with HttpXRPCServer(wrapper.handle) as server:
            transport = HttpTransport({"peer": server.address})
            request = XRPCRequest(module="urn:echo", method="double",
                                  arity=1, location="e.xq")
            request.add_call([[integer(21)]])
            raw = transport.exchange(ExchangeSpec("xrpc://peer",
                                                  build_request(request)))
            response = parse_response(raw)
            assert response.results == [[integer(42)]]

    def test_bulk_over_http(self):
        wrapper = XRPCWrapper(engine=TreeEngine())
        wrapper.engine.registry.register_source(ECHO_MODULE, location="e.xq")
        with HttpXRPCServer(wrapper.handle) as server:
            transport = HttpTransport({"peer": server.address})
            request = XRPCRequest(module="urn:echo", method="double",
                                  arity=1, location="e.xq")
            for value in (1, 2, 3):
                request.add_call([[integer(value)]])
            response = parse_response(transport.exchange(
                ExchangeSpec("peer", build_request(request))))
            assert response.results == [[integer(2)], [integer(4)], [integer(6)]]

    def test_fault_over_http(self):
        wrapper = XRPCWrapper(engine=TreeEngine())  # no modules registered
        with HttpXRPCServer(wrapper.handle) as server:
            transport = HttpTransport({"peer": server.address})
            request = XRPCRequest(module="ghost", method="f", arity=0)
            request.add_call([])
            raw = transport.exchange(ExchangeSpec("peer", build_request(request)))
            with pytest.raises(XRPCFault):
                parse_response(raw)

    def test_unreachable_peer(self):
        transport = HttpTransport({"peer": "127.0.0.1:1"})  # closed port
        with pytest.raises(TransportError):
            transport.exchange(ExchangeSpec("peer", "<x/>"))

    def test_keep_alive_connection_reuse(self):
        """Repeated sends to one peer ride a single pooled connection."""
        wrapper = XRPCWrapper(engine=TreeEngine())
        wrapper.engine.registry.register_source(ECHO_MODULE, location="e.xq")
        with HttpXRPCServer(wrapper.handle) as server:
            with HttpTransport({"peer": server.address}) as transport:
                request = XRPCRequest(module="urn:echo", method="double",
                                      arity=1, location="e.xq")
                request.add_call([[integer(3)]])
                payload = build_request(request)
                for _ in range(5):
                    parse_response(transport.exchange(
                        ExchangeSpec("peer", payload)))
                stats = transport.peer_stats("peer")
                assert stats.requests == 5
                assert stats.connections_opened == 1
                assert stats.connections_reused == 4
                assert stats.bytes_sent > 0 and stats.bytes_received > 0

    def test_closed_transport_refuses_sends(self):
        transport = HttpTransport({"peer": "127.0.0.1:1"})
        transport.close()
        with pytest.raises(TransportError, match="closed"):
            transport.exchange(ExchangeSpec("peer", "<x/>"))

    def test_non_soap_error_body_raises_transport_error(self):
        """An HTML 404 from a misconfigured endpoint must surface as a
        TransportError, not propagate as an XML parse error."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        import threading

        class NotFoundHandler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                body = (b"<!DOCTYPE html><html><body>"
                        b"<h1>404 Not Found</h1></body></html>")
                self.send_response(404)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), NotFoundHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            with HttpTransport({"peer": f"{host}:{port}"}) as transport:
                with pytest.raises(TransportError, match="non-SOAP"):
                    transport.exchange(ExchangeSpec("peer", "<x/>"))
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)

    def test_full_peer_query_over_http(self):
        """An XRPCPeer originating a distributed query over real HTTP."""
        serving_peer_transport = HttpTransport()
        serving = XRPCPeer("served", serving_peer_transport)
        serving.registry.register_source(ECHO_MODULE, location="e.xq")
        with HttpXRPCServer(serving.server.handle) as server:
            transport = HttpTransport({"served": server.address})
            origin = XRPCPeer("origin", transport)
            origin.registry.register_source(ECHO_MODULE, location="e.xq")
            result = origin.execute_query("""
            import module namespace m = "urn:echo" at "e.xq";
            for $i in (1 to 5)
            return execute at {"xrpc://served"} { m:double($i) }
            """)
            assert values(result.sequence) == [2, 4, 6, 8, 10]
            assert result.messages_sent == 1  # bulk over one HTTP POST


class TestConcurrentParallelDispatch:
    """True thread fan-out of exchange_many over real HTTP peers."""

    def _fleet(self, count, delay=0.0):
        """Start ``count`` echo peers; returns (transport, servers)."""
        import time

        servers = []
        transport = HttpTransport()
        for index in range(count):
            peer = XRPCPeer(f"peer{index}", HttpTransport())
            peer.registry.register_source(ECHO_MODULE, location="e.xq")
            handler = peer.server.handle
            if delay:
                handler = (lambda inner: lambda payload:
                           (time.sleep(delay), inner(payload))[1])(handler)
            server = HttpXRPCServer(handler).start()
            servers.append(server)
            transport.register_endpoint(f"peer{index}", server.address)
        return transport, servers

    def _request_payload(self, value):
        request = XRPCRequest(module="urn:echo", method="double",
                              arity=1, location="e.xq")
        request.add_call([[integer(value)]])
        return build_request(request)

    def test_parallel_faster_than_sum(self):
        import time

        delay = 0.12
        transport, servers = self._fleet(3, delay=delay)
        try:
            requests = [ExchangeSpec(f"peer{i}", self._request_payload(i))
                        for i in range(3)]
            started = time.perf_counter()
            raw = transport.exchange_many(requests)
            elapsed = time.perf_counter() - started
            assert [parse_response(r).results for r in raw] == \
                [[[integer(2 * i)]] for i in range(3)]
            # Concurrent: ~max of the branch delays, not 3 * delay.
            assert elapsed < 2 * delay
        finally:
            transport.close()
            for server in servers:
                server.stop()

    def test_parallel_fault_tolerance(self):
        """One peer faulting must not poison the other branches."""
        from repro.rpc.client import ClientSession

        transport, servers = self._fleet(2)
        # A third peer with no modules: its branch returns a SOAP fault.
        broken = XRPCPeer("broken", HttpTransport())
        broken_server = HttpXRPCServer(broken.server.handle).start()
        transport.register_endpoint("broken", broken_server.address)
        try:
            session = ClientSession(ResilientChannel(transport), origin="p0")
            results = session.call_parallel(
                [("peer0", "urn:echo", "e.xq", "double", 1,
                  [[[integer(1)]]], False),
                 ("broken", "urn:ghost", None, "nope", 0, [[]], False),
                 ("peer1", "urn:echo", "e.xq", "double", 1,
                  [[[integer(2)]]], False)],
                tolerate_faults=True)
            assert results[0] == [[integer(2)]]
            assert results[1] is None
            assert results[2] == [[integer(4)]]
        finally:
            transport.close()
            broken_server.stop()
            for server in servers:
                server.stop()

    def test_parallel_same_destination_stays_ordered(self):
        transport, servers = self._fleet(1)
        try:
            requests = [ExchangeSpec("peer0", self._request_payload(i))
                        for i in range(4)]
            raw = transport.exchange_many(requests)
            assert [parse_response(r).results for r in raw] == \
                [[[integer(2 * i)]] for i in range(4)]
            stats = transport.peer_stats("peer0")
            assert stats.requests == 4
            assert stats.connections_opened == 1  # all on one connection
        finally:
            transport.close()
            for server in servers:
                server.stop()
