"""SOAP XRPC envelope building and parsing.

Message layout follows section 2.1 of the paper::

    <env:Envelope xmlns:xrpc="http://monetdb.cwi.nl/XQuery" ...>
      <env:Body>
        <xrpc:request module="films" method="filmsByActor" arity="1"
                      location="http://x.example.org/film.xq">
          <xrpc:queryID host="p0" timestamp="..." timeout="60"/>   (isolation ext.)
          <xrpc:call>
            <xrpc:sequence> ... one per parameter ... </xrpc:sequence>
          </xrpc:call>
          <xrpc:call> ... Bulk RPC: more calls ... </xrpc:call>
        </xrpc:request>
      </env:Body>
    </env:Envelope>

Responses carry one ``xrpc:sequence`` per call and, as the section 2.3
extension, an ``xrpc:participants`` element listing every peer touched
while serving the request (needed by the 2PC coordinator registration).

Fault-tolerance extension: when set, two optional elements ride in an
``env:Header`` block (absent otherwise, keeping the wire byte-identical
to the base protocol):

* ``<xrpc:exchange id="..."/>`` — a per-*attempt* correlation id; the
  server echoes it on the response/fault/txn-result so a client retry
  can detect stale duplicated responses deterministically.
* ``<xrpc:deadline remaining="..."/>`` — the query's remaining deadline
  budget in seconds; the remote peer rebuilds a local deadline from it
  and abandons work that cannot finish in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import XRPCFault
from repro.soap.marshal import MarshalWriter, n2s
from repro.xdm.nodes import ElementNode
from repro.xml.parser import parse_document

XRPC_NS = "http://monetdb.cwi.nl/XQuery"
ENV_NS = "http://www.w3.org/2003/05/soap-envelope"
XS_NS = "http://www.w3.org/2001/XMLSchema"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"

_ENVELOPE_DECLARATIONS = {
    "xrpc": XRPC_NS,
    "env": ENV_NS,
    "xs": XS_NS,
    "xsi": XSI_NS,
}


@dataclass
class QueryID:
    """Identifies a query for repeatable-read isolation (section 2.2).

    ``host`` and ``timestamp`` identify where/when the query started;
    ``timeout`` is a *relative* number of seconds during which the remote
    peer must conserve the isolated database state.
    """

    host: str
    timestamp: float
    timeout: int = 60

    @property
    def key(self) -> tuple[str, float]:
        return (self.host, self.timestamp)


@dataclass
class XRPCRequest:
    """A (possibly bulk) XRPC request: N calls to one function."""

    module: str
    method: str
    arity: int
    location: Optional[str] = None
    calls: list[list[list]] = field(default_factory=list)
    query_id: Optional[QueryID] = None
    updating: bool = False
    exchange_id: Optional[str] = None
    deadline_remaining: Optional[float] = None

    def add_call(self, params: list[list]) -> None:
        if len(params) != self.arity:
            raise XRPCFault(
                "env:Sender",
                f"call has {len(params)} parameters, function arity is {self.arity}")
        self.calls.append(params)

    @property
    def is_bulk(self) -> bool:
        return len(self.calls) > 1


@dataclass
class XRPCResponse:
    module: str
    method: str
    results: list[list] = field(default_factory=list)
    participating_peers: list[str] = field(default_factory=list)
    exchange_id: Optional[str] = None


@dataclass
class XRPCFaultMessage:
    fault_code: str
    reason: str
    exchange_id: Optional[str] = None

    def raise_(self) -> None:
        raise XRPCFault(self.fault_code, self.reason)


@dataclass
class TxnCommand:
    """A WS-AtomicTransaction participant operation (section 2.3).

    ``kind`` is ``"prepare"``, ``"commit"`` or ``"rollback"``; the
    queryID identifies the distributed transaction.
    """

    kind: str
    query_id: QueryID
    exchange_id: Optional[str] = None
    deadline_remaining: Optional[float] = None


@dataclass
class TxnResult:
    """Vote / acknowledgement for a :class:`TxnCommand`."""

    kind: str
    ok: bool
    detail: str = ""
    exchange_id: Optional[str] = None


Message = Union[XRPCRequest, XRPCResponse, XRPCFaultMessage,
                TxnCommand, TxnResult]


# ---------------------------------------------------------------------------
# Building


def _begin_envelope(exchange_id: Optional[str] = None,
                    deadline_remaining: Optional[float] = None
                    ) -> MarshalWriter:
    """Open ``<env:Envelope>[<env:Header>...]<env:Body>`` on a fresh
    streaming writer.

    The header block only exists when a fault-tolerance field is set, so
    base-protocol messages stay byte-identical.
    """
    writer = MarshalWriter()
    writer.prolog()
    writer.start(
        "env:Envelope",
        attributes=(("xsi:schemaLocation", f"{XRPC_NS} {XRPC_NS}/XRPC.xsd"),),
        declarations=_ENVELOPE_DECLARATIONS)
    if exchange_id is not None or deadline_remaining is not None:
        writer.start("env:Header")
        if exchange_id is not None:
            writer.element("xrpc:exchange", (("id", exchange_id),))
        if deadline_remaining is not None:
            writer.element("xrpc:deadline",
                           (("remaining", repr(deadline_remaining)),))
        writer.end()  # env:Header
    writer.start("env:Body")
    return writer


def _finish_envelope(writer: MarshalWriter) -> str:
    writer.end()  # env:Body
    writer.end()  # env:Envelope
    text = writer.getvalue()
    writer.release()  # recycle the piece buffer for the next envelope
    return text


def build_request(request: XRPCRequest) -> str:
    """Serialize an :class:`XRPCRequest` to SOAP XML text (one pass)."""
    writer = _begin_envelope(request.exchange_id, request.deadline_remaining)
    attributes = [
        ("module", request.module),
        ("method", request.method),
        ("arity", str(request.arity)),
    ]
    if request.location:
        attributes.append(("location", request.location))
    if request.updating:
        attributes.append(("updCall", "true"))
    writer.start("xrpc:request", attributes)
    if request.query_id is not None:
        writer.element("xrpc:queryID", (
            ("host", request.query_id.host),
            ("timestamp", repr(request.query_id.timestamp)),
            ("timeout", str(request.query_id.timeout)),
        ))
    for params in request.calls:
        writer.start("xrpc:call")
        for param in params:
            writer.sequence(param)
        writer.end()
    writer.end()  # xrpc:request
    return _finish_envelope(writer)


def build_response(response: XRPCResponse) -> str:
    """Serialize an :class:`XRPCResponse` to SOAP XML text (one pass)."""
    writer = _begin_envelope(response.exchange_id)
    writer.start("xrpc:response", (
        ("module", response.module),
        ("method", response.method),
    ))
    if response.participating_peers:
        writer.start("xrpc:participants")
        for peer in response.participating_peers:
            writer.element("xrpc:peer", (("uri", peer),))
        writer.end()
    for result in response.results:
        writer.sequence(result)
    writer.end()  # xrpc:response
    return _finish_envelope(writer)


def build_fault(fault_code: str, reason: str,
                exchange_id: Optional[str] = None) -> str:
    """Serialize a SOAP Fault (error message format of section 2.1)."""
    writer = _begin_envelope(exchange_id)
    writer.start("env:Fault")
    writer.start("env:Code")
    writer.element("env:Value", (), fault_code)
    writer.end()
    writer.start("env:Reason")
    writer.element("env:Text", (("xml:lang", "en"),), reason)
    writer.end()
    writer.end()  # env:Fault
    return _finish_envelope(writer)


def build_txn_command(command: TxnCommand) -> str:
    """Serialize a Prepare/Commit/Rollback message."""
    writer = _begin_envelope(command.exchange_id, command.deadline_remaining)
    writer.element(f"xrpc:{command.kind}", (
        ("host", command.query_id.host),
        ("timestamp", repr(command.query_id.timestamp)),
        ("timeout", str(command.query_id.timeout)),
    ))
    return _finish_envelope(writer)


def build_txn_result(result: TxnResult) -> str:
    """Serialize a vote/acknowledgement for a transaction command."""
    writer = _begin_envelope(result.exchange_id)
    attributes = [("kind", result.kind),
                  ("ok", "true" if result.ok else "false")]
    if result.detail:
        attributes.append(("detail", result.detail))
    writer.element("xrpc:txn-result", attributes)
    return _finish_envelope(writer)


# ---------------------------------------------------------------------------
# Parsing


def parse_message(text: Union[str, bytes]) -> Message:
    """Parse any SOAP XRPC message; dispatch on the body's child.

    ``bytes`` input is handed to the parse frontend as-is (it honours
    the XML declaration's encoding and BOMs; see
    :func:`repro.xml.parser.parse_document`).
    """
    document = parse_document(text)
    envelope = document.root_element
    if envelope is None or envelope.local_name != "Envelope" \
            or envelope.ns_uri != ENV_NS:
        raise XRPCFault("env:Sender", "not a SOAP envelope")
    exchange_id, deadline_remaining = _parse_header(envelope)
    body = envelope.find("Body", ENV_NS)
    if body is None:
        raise XRPCFault("env:Sender", "SOAP envelope without Body")
    payload = next(iter(body.child_elements()), None)
    if payload is None:
        raise XRPCFault("env:Sender", "empty SOAP Body")
    message = _parse_body_element(payload)
    message.exchange_id = exchange_id
    if isinstance(message, (XRPCRequest, TxnCommand)):
        message.deadline_remaining = deadline_remaining
    return message


def _parse_header(envelope: ElementNode
                  ) -> tuple[Optional[str], Optional[float]]:
    """Fault-tolerance fields from ``env:Header`` (both usually absent)."""
    header = envelope.find("Header", ENV_NS)
    if header is None:
        return None, None
    exchange_id: Optional[str] = None
    deadline_remaining: Optional[float] = None
    exchange = header.find("exchange", XRPC_NS)
    if exchange is not None:
        exchange_id = _required_attr(exchange, "id")
    deadline = header.find("deadline", XRPC_NS)
    if deadline is not None:
        deadline_remaining = _number_attr(deadline, "remaining", float)
    return exchange_id, deadline_remaining


def _parse_body_element(payload: ElementNode) -> Message:
    if payload.local_name == "request" and payload.ns_uri == XRPC_NS:
        return _parse_request_element(payload)
    if payload.local_name == "response" and payload.ns_uri == XRPC_NS:
        return _parse_response_element(payload)
    if payload.local_name == "Fault" and payload.ns_uri == ENV_NS:
        return _parse_fault_element(payload)
    if payload.ns_uri == XRPC_NS and payload.local_name in (
            "prepare", "commit", "rollback"):
        return TxnCommand(
            kind=payload.local_name,
            query_id=QueryID(
                host=_required_attr(payload, "host"),
                timestamp=_number_attr(payload, "timestamp", float),
                timeout=_number_attr(payload, "timeout", int),
            ),
        )
    if payload.ns_uri == XRPC_NS and payload.local_name == "txn-result":
        detail = payload.get_attribute("detail")
        return TxnResult(
            kind=_required_attr(payload, "kind"),
            ok=_required_attr(payload, "ok") == "true",
            detail=detail.value if detail else "",
        )
    raise XRPCFault(
        "env:Sender", f"unrecognised SOAP body element <{payload.name}>")


def parse_request(text: Union[str, bytes]) -> XRPCRequest:
    message = parse_message(text)
    if isinstance(message, XRPCFaultMessage):
        message.raise_()
    if not isinstance(message, XRPCRequest):
        raise XRPCFault("env:Sender", "expected an XRPC request message")
    return message


def parse_response(text: Union[str, bytes]) -> XRPCResponse:
    message = parse_message(text)
    if isinstance(message, XRPCFaultMessage):
        message.raise_()
    if not isinstance(message, XRPCResponse):
        raise XRPCFault("env:Receiver", "expected an XRPC response message")
    return message


def _required_attr(element: ElementNode, name: str) -> str:
    attribute = element.get_attribute(name)
    if attribute is None:
        raise XRPCFault(
            "env:Sender", f"<{element.name}> missing required attribute {name!r}")
    return attribute.value


def _number_attr(element: ElementNode, name: str, convert):
    """A required numeric attribute; a malformed one is the sender's
    fault, like a missing one."""
    text = _required_attr(element, name)
    try:
        return convert(text)
    except ValueError:
        raise XRPCFault(
            "env:Sender",
            f"<{element.name}> attribute {name!r} is not a number: "
            f"{text!r}") from None


def _parse_request_element(element: ElementNode) -> XRPCRequest:
    module = _required_attr(element, "module")
    method = _required_attr(element, "method")
    arity = _number_attr(element, "arity", int)
    location_attr = element.get_attribute("location")
    updating_attr = element.get_attribute("updCall")
    request = XRPCRequest(
        module=module,
        method=method,
        arity=arity,
        location=location_attr.value if location_attr else None,
        updating=bool(updating_attr and updating_attr.value == "true"),
    )
    qid = element.find("queryID", XRPC_NS)
    if qid is not None:
        request.query_id = QueryID(
            host=_required_attr(qid, "host"),
            timestamp=_number_attr(qid, "timestamp", float),
            timeout=_number_attr(qid, "timeout", int),
        )
    for call in element.find_all("call", XRPC_NS):
        params = [n2s(seq) for seq in call.find_all("sequence", XRPC_NS)]
        if len(params) != arity:
            raise XRPCFault(
                "env:Sender",
                f"call has {len(params)} parameter sequences, arity is {arity}")
        request.calls.append(params)
    if not request.calls:
        raise XRPCFault("env:Sender", "request contains no calls")
    return request


def _parse_response_element(element: ElementNode) -> XRPCResponse:
    response = XRPCResponse(
        module=_required_attr(element, "module"),
        method=_required_attr(element, "method"),
    )
    participants = element.find("participants", XRPC_NS)
    if participants is not None:
        for peer in participants.find_all("peer", XRPC_NS):
            response.participating_peers.append(_required_attr(peer, "uri"))
    for sequence in element.find_all("sequence", XRPC_NS):
        response.results.append(n2s(sequence))
    return response


def _parse_fault_element(element: ElementNode) -> XRPCFaultMessage:
    code_el = element.find("Code", ENV_NS)
    value = code_el.find("Value", ENV_NS) if code_el is not None else None
    reason_el = element.find("Reason", ENV_NS)
    text_el = reason_el.find("Text", ENV_NS) if reason_el is not None else None
    return XRPCFaultMessage(
        fault_code=value.string_value() if value is not None else "env:Receiver",
        reason=text_el.string_value() if text_el is not None else "unknown fault",
    )
