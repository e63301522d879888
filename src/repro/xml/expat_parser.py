"""C-speed parse frontend over the stdlib ``xml.parsers.expat`` parser.

Every XRPC request/response body and every cold document registration is
``parse_document``-ed, and ROADMAP names that pass the dominant cost of
the message path.  This module rebuilds :mod:`repro.xdm` trees during
expat's C-level SAX events — minting gapped order keys and stamping
``pre``/``size``/``level`` **in the same single pass** as the
pure-python fallback parser (:mod:`repro.xml.parser`), so the
:class:`~repro.xdm.structural.StructuralIndex` and the incremental
update path see byte-identical encodings whichever parser ran.

Contract: for every document inside the supported subset (the python
parser's documented subset), the tree produced here is *indistinguishable*
from the pure-python parser's — same node kinds in the same document
order, same lexical QNames and resolved namespace URIs, same
``namespace_declarations``, and the same ``(doc_id, serial)`` spacing,
``size`` extents and ``level`` stamps.  ``tests/test_parse_frontend.py``
asserts this differentially.

Constructs the python parser accepts but expat handles differently
(internal-subset markup declarations, entities skipped because of an
unread external DTD) raise :class:`ExpatUnsupported`; the dispatching
``parse_document`` in :mod:`repro.xml.parser` then falls back to the
pure-python parser, which also re-diagnoses malformed input so error
messages stay uniform whichever parser ran.
"""

from __future__ import annotations

import xml.parsers.expat as _expat
from typing import Optional, Union

from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    KEY_STRIDE,
    ProcessingInstructionNode,
    TextNode,
    _next_doc_id,
)
from repro.xml.parser import XMLNS_URI, XMLSyntaxError

_XML_SCOPE = {"xml": "http://www.w3.org/XML/1998/namespace"}

# The handlers below build nodes with ``cls.__new__`` + direct attribute
# stores instead of the constructors: one C-level allocation versus a
# two-deep ``__init__`` call chain per node, which is a measurable share
# of the per-event budget at ~10k nodes per XMark document.  The stores
# must mirror the constructors field for field — the differential suite
# (tests/test_parse_frontend.py) pins this.
_NEW_ELEMENT = ElementNode.__new__
_NEW_TEXT = TextNode.__new__
_NEW_ATTRIBUTE = AttributeNode.__new__

#: Shared ``namespace_declarations`` of elements that declare nothing —
#: one dict allocation saved per element.  Safe because no code path
#: mutates an element's declarations in place: every writer (both
#: parsers, ``copy_tree``, the constructor evaluator) assigns a fresh
#: dict, and every reader copies before mutating.
_NO_DECLARATIONS: dict = {}


class ExpatUnsupported(XMLSyntaxError):
    """The document is outside the expat frontend's subset (but possibly
    inside the pure-python parser's) — the dispatcher retries there."""


class _TreeBuilder:
    """Builds one XDM tree from expat events.

    The handlers are the per-node hot path (one ``StartElementHandler``
    call per element at C speed), so they mint order keys inline —
    ``serial``/:data:`~repro.xdm.nodes.KEY_STRIDE` arithmetic identical to
    :class:`~repro.xdm.nodes.NodeFactory` — and wire parent/child links
    directly instead of going through ``append()`` (no structural index
    exists during the parse, so there is nothing to invalidate).
    """

    __slots__ = ("_doc_id", "_serial", "_document", "_stack",
                 "_scope", "_default_uri", "_scope_stack", "_text",
                 "_parser")

    def __init__(self, uri: Optional[str]) -> None:
        self._doc_id = _next_doc_id()
        document = DocumentNode((self._doc_id, 0), uri)
        document.level = 0
        self._serial = KEY_STRIDE
        self._document = document
        # Open containers, document at the bottom — a new child's level
        # is simply len(stack).  The namespace scope is kept *off* the
        # stack (declarations are rare): ``_scope``/``_default_uri`` are
        # the current bindings, and ``_scope_stack`` records
        # ``(level, scope, default_uri)`` to restore when the element
        # that declared new bindings closes.
        self._stack: list = [document]
        self._scope: dict = _XML_SCOPE
        self._default_uri: Optional[str] = None
        self._scope_stack: list[tuple] = []
        self._text: list[str] = []

    # -- hot-path handlers --------------------------------------------------

    def _start_element(self, name: str, attrs: list) -> None:
        stack = self._stack
        parent = stack[-1]
        doc_id = self._doc_id
        stride = KEY_STRIDE
        serial = self._serial
        parts = self._text
        level = len(stack)
        if parts:
            text = _NEW_TEXT(TextNode)
            text.order_key = (doc_id, serial)
            serial += stride
            text.content = "".join(parts)
            text.level = level
            text.parent = parent
            parent._children.append(text)
            del parts[:]
        element = _NEW_ELEMENT(ElementNode)
        element.order_key = (doc_id, serial)
        serial += stride
        element.level = level
        element.name = name
        element._children = []
        if attrs:
            # xmlns declarations on this element first (they scope the
            # element's own name), then the element, then its attributes
            # in document order — the exact serial order the python
            # parser mints.
            declarations = None
            for index in range(0, len(attrs), 2):
                attr_name = attrs[index]
                if attr_name.startswith("xmlns") and (
                        len(attr_name) == 5 or attr_name[5] == ":"):
                    if declarations is None:
                        declarations = {}
                    declarations[attr_name[6:]] = attrs[index + 1]
            if declarations:
                self._scope_stack.append(
                    (level, self._scope, self._default_uri))
                self._scope = scope = {**self._scope, **declarations}
                self._default_uri = scope.get("") or None
                element.namespace_declarations = declarations
            else:
                scope = self._scope
                element.namespace_declarations = _NO_DECLARATIONS
            element.ns_uri = (self._resolve_prefix(name, scope)
                              if ":" in name else self._default_uri)
            element._local_name = \
                name.split(":")[-1] if ":" in name else name
            attr_level = level + 1
            attributes = element._attributes = []
            for index in range(0, len(attrs), 2):
                attr_name = attrs[index]
                if attr_name.startswith("xmlns") and (
                        len(attr_name) == 5 or attr_name[5] == ":"):
                    attr_uri: Optional[str] = XMLNS_URI
                elif ":" in attr_name:
                    attr_uri = self._resolve_prefix(attr_name, scope)
                else:
                    attr_uri = None
                attribute = _NEW_ATTRIBUTE(AttributeNode)
                attribute.order_key = (doc_id, serial)
                serial += stride
                attribute.name = attr_name
                attribute._local_name = \
                    attr_name.split(":")[-1] if ":" in attr_name else attr_name
                attribute.value = attrs[index + 1]
                attribute.ns_uri = attr_uri
                attribute.level = attr_level
                attribute.parent = element
                attributes.append(attribute)
        elif ":" in name:
            element.namespace_declarations = _NO_DECLARATIONS
            element.ns_uri = self._resolve_prefix(name, self._scope)
            element._local_name = name.split(":")[-1]
            element._attributes = []
        else:
            element.namespace_declarations = _NO_DECLARATIONS
            element.ns_uri = self._default_uri
            element._local_name = name
            element._attributes = []
        self._serial = serial
        element.parent = parent
        parent._children.append(element)
        stack.append(element)

    def _end_element(self, name: str) -> None:
        stack = self._stack
        element = stack.pop()
        parts = self._text
        serial = self._serial
        if parts:
            text = _NEW_TEXT(TextNode)
            text.order_key = (self._doc_id, serial)
            serial += KEY_STRIDE
            self._serial = serial
            text.content = "".join(parts)
            text.level = len(stack) + 1
            text.parent = element
            element._children.append(text)
            del parts[:]
        # Subtree complete: extent reaches the last issued serial.
        element.size = serial - KEY_STRIDE - element.order_key[1]
        scope_stack = self._scope_stack
        if scope_stack and scope_stack[-1][0] == len(stack):
            # This element declared namespaces; restore the outer scope.
            _, self._scope, self._default_uri = scope_stack.pop()

    # -- the rest of the event surface --------------------------------------

    def _flush_text(self) -> None:
        parts = self._text
        if parts:
            parent = self._stack[-1]
            serial = self._serial
            text = TextNode((self._doc_id, serial), "".join(parts))
            self._serial = serial + KEY_STRIDE
            text.level = len(self._stack)
            text.parent = parent
            parent._children.append(text)
            del parts[:]

    def _comment(self, data: str) -> None:
        self._flush_text()
        parent = self._stack[-1]
        serial = self._serial
        node = CommentNode((self._doc_id, serial), data)
        self._serial = serial + KEY_STRIDE
        node.level = len(self._stack)
        node.parent = parent
        parent._children.append(node)

    def _processing_instruction(self, target: str, data: str) -> None:
        self._flush_text()
        parent = self._stack[-1]
        serial = self._serial
        node = ProcessingInstructionNode((self._doc_id, serial), target,
                                         data.strip())
        self._serial = serial + KEY_STRIDE
        node.level = len(self._stack)
        node.parent = parent
        parent._children.append(node)

    def _start_cdata(self) -> None:
        # An empty CDATA section still yields an (empty) text node in
        # the python parser; seeding the buffer with "" reproduces
        # that, and is a no-op for non-empty sections.
        self._text.append("")

    # -- outside the supported subset ---------------------------------------

    def _error(self, message: str) -> ExpatUnsupported:
        parser = self._parser
        return ExpatUnsupported(message, parser.CurrentLineNumber,
                                parser.CurrentColumnNumber + 1)

    def _resolve_prefix(self, qname: str, scope: dict) -> str:
        prefix = qname.split(":", 1)[0]
        uri = scope.get(prefix)
        if uri is None:
            raise self._error(f"undeclared namespace prefix {prefix!r}")
        return uri

    def _entity_decl(self, *args) -> None:
        # The python parser skips internal subsets but rejects
        # *references* to declared entities; expat would expand them.
        # Bail so the dispatcher's python fallback decides.
        raise self._error("internal-subset entity declaration")

    def _attlist_decl(self, *args) -> None:
        # Expat would inject declared default attribute values; the
        # python parser ignores the declarations entirely.
        raise self._error("internal-subset attribute-list declaration")

    def _skipped_entity(self, name: str, is_parameter: bool) -> None:
        raise self._error(f"unknown entity &{name};")

    def _external_entity(self, *args) -> int:
        raise self._error("external entity reference")

    # -- driving ------------------------------------------------------------

    def parse(self, data: Union[str, bytes]) -> DocumentNode:
        parser = _expat.ParserCreate(intern={})
        self._parser = parser
        parser.ordered_attributes = True
        parser.buffer_text = True
        parser.StartElementHandler = self._start_element
        parser.EndElementHandler = self._end_element
        parser.CharacterDataHandler = self._text.append
        parser.CommentHandler = self._comment
        parser.ProcessingInstructionHandler = self._processing_instruction
        parser.StartCdataSectionHandler = self._start_cdata
        parser.EntityDeclHandler = self._entity_decl
        parser.AttlistDeclHandler = self._attlist_decl
        parser.SkippedEntityHandler = self._skipped_entity
        parser.ExternalEntityRefHandler = self._external_entity
        try:
            parser.Parse(data, True)
        except _expat.ExpatError as exc:
            message = _expat.errors.messages.get(exc.code, str(exc))
            raise XMLSyntaxError(message, exc.lineno, exc.offset + 1) \
                from None
        finally:
            # Break the parser<->handler reference cycle promptly (the
            # builder holds the parser, the parser holds bound methods).
            self._parser = None
            parser.StartElementHandler = None
            parser.EndElementHandler = None
            parser.CharacterDataHandler = None
            parser.CommentHandler = None
            parser.ProcessingInstructionHandler = None
            parser.StartCdataSectionHandler = None
            parser.EntityDeclHandler = None
            parser.AttlistDeclHandler = None
            parser.SkippedEntityHandler = None
            parser.ExternalEntityRefHandler = None
        document = self._document
        document.size = self._serial - KEY_STRIDE
        return document


def parse_document_expat(data: Union[str, bytes],
                         uri: Optional[str] = None) -> DocumentNode:
    """Parse a complete XML document at expat speed.

    Accepts ``str`` or ``bytes``; byte input honours the XML
    declaration's encoding and BOMs natively (UTF-8/UTF-16/ISO-8859-1/
    US-ASCII).  Raises :class:`~repro.xml.parser.XMLSyntaxError` on
    malformed input and :class:`ExpatUnsupported` for well-formed
    documents outside the supported subset.
    """
    return _TreeBuilder(uri).parse(data)
