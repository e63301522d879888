"""A small well-formedness-checking XML 1.0 parser, plus the parse
frontend's one dispatch rule.

The pure-python parser here produces :mod:`repro.xdm` trees with
document order and namespace resolution (``xmlns`` / ``xmlns:prefix``
declarations are tracked and every element/attribute gets its resolved
namespace URI).  It is the parse frontend's *fallback*:
:func:`parse_document` tries the C-speed expat frontend
(:mod:`repro.xml.expat_parser`) first and re-parses here only input that
expat rejects — malformed documents (so error messages are uniform) and
well-formed ones outside the expat subset (internal-subset DTDs).  Both
parsers produce byte-identical trees (pre/size/level planes, gapped
order keys), so the choice depends on the input alone.

Supported: elements, attributes, text, CDATA, comments, processing
instructions, character/entity references, the XML declaration, and a
DOCTYPE declaration (skipped, internal subsets without markup decls).
Not supported (raises): external entities, parameter entities.

Per XML 1.0 §2.11 / §3.3.3 (and matching expat), line endings are
normalized (``\\r\\n`` / ``\\r`` → ``\\n``) and literal whitespace in
attribute values becomes spaces; character references (``&#9;`` etc.)
are exempt from both.
"""

from __future__ import annotations

import codecs
import re
from typing import Optional, Union

from repro.errors import XRPCReproError
from repro.obs import Counters
from repro.xdm.nodes import DocumentNode, ElementNode, Node, NodeFactory

#: Parse-frontend telemetry: how many documents (and bytes or
#: characters) each parser parsed, and how often the expat frontend fell
#: back to the python parser (malformed input re-diagnosed for uniform
#: messages, or constructs outside the expat subset such as
#: internal-subset markup declarations).
PARSE_STATS = Counters("documents_expat", "documents_python", "bytes_expat",
                       "bytes_python", "fallbacks_to_python")


class XMLSyntaxError(XRPCReproError):
    """Raised on malformed XML input, with 1-based line/column info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:-.")

XMLNS_URI = "http://www.w3.org/2000/xmlns/"


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


class _Scanner:
    """Cursor over the raw XML text with position tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def location(self) -> tuple[int, int]:
        consumed = self.text[: self.pos]
        line = consumed.count("\n") + 1
        column = self.pos - (consumed.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str) -> XMLSyntaxError:
        line, column = self.location()
        return XMLSyntaxError(message, line, column)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < self.length else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_until(self, token: str, error_message: str) -> str:
        index = self.text.find(token, self.pos)
        if index < 0:
            raise self.error(error_message)
        chunk = self.text[self.pos:index]
        self.pos = index + len(token)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        if self.at_end() or not _is_name_start(self.peek()):
            raise self.error("expected XML name")
        self.advance()
        while not self.at_end() and _is_name_char(self.peek()):
            self.advance()
        return self.text[start:self.pos]


class _Parser:
    def __init__(self, text: str, uri: Optional[str]) -> None:
        if "\r" in text:
            # XML 1.0 §2.11 end-of-line handling (expat does the same).
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        self.scanner = _Scanner(text)
        self.factory = NodeFactory()
        self.uri = uri

    # -- entry points ------------------------------------------------------

    def parse_document(self) -> DocumentNode:
        document = self.factory.document(self.uri)
        scanner = self.scanner
        self._skip_prolog(document)
        scanner.skip_whitespace()
        if scanner.at_end() or scanner.peek() != "<":
            raise scanner.error("expected root element")
        root = self._parse_element(
            namespaces={"xml": "http://www.w3.org/XML/1998/namespace"},
            level=1)
        document.append(root)
        # Trailing misc: comments / PIs / whitespace only.
        while not scanner.at_end():
            scanner.skip_whitespace()
            if scanner.at_end():
                break
            if scanner.startswith("<!--"):
                document.append(self._parse_comment(level=1))
            elif scanner.startswith("<?"):
                document.append(self._parse_pi(level=1))
            else:
                raise scanner.error("content after document element")
        # pre/size/level stamping completes within the parse pass itself:
        # the document's extent (in serial units — serials are gapped)
        # reaches to the last serial issued inside it.
        document.size = self.factory.last_serial - document.order_key[1]
        return document

    # -- prolog -------------------------------------------------------------

    def _skip_prolog(self, document: DocumentNode) -> None:
        scanner = self.scanner
        scanner.skip_whitespace()
        if scanner.startswith("<?xml"):
            scanner.read_until("?>", "unterminated XML declaration")
        while True:
            scanner.skip_whitespace()
            if scanner.startswith("<!--"):
                document.append(self._parse_comment(level=1))
            elif scanner.startswith("<!DOCTYPE"):
                self._skip_doctype()
            elif scanner.startswith("<?"):
                document.append(self._parse_pi(level=1))
            else:
                break

    def _skip_doctype(self) -> None:
        scanner = self.scanner
        scanner.expect("<!DOCTYPE")
        depth = 1
        while depth > 0:
            if scanner.at_end():
                raise scanner.error("unterminated DOCTYPE")
            ch = scanner.peek()
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
            scanner.advance()

    # -- element content ------------------------------------------------------

    def _parse_element(self, namespaces: dict[str, str],
                       level: int = 0) -> ElementNode:
        """Parse one element and its whole subtree, iteratively.

        An explicit stack of open elements replaces the old
        ``_parse_element``/``_parse_content`` mutual recursion, so
        arbitrarily deep documents (XRPC payloads routinely nest
        thousands of levels) parse under the default recursion limit.
        ``size`` is stamped from the factory serial counter when each
        element closes — the same single-pass stamping as before.
        """
        scanner = self.scanner
        root, root_scope, closed = self._parse_open_tag(namespaces, level)
        if closed:
            return root
        # (element, namespace scope, pending text pieces) per open element.
        stack: list[tuple[ElementNode, dict[str, str], list[str]]] = [
            (root, root_scope, [])]
        while stack:
            element, scope, text_buffer = stack[-1]
            content_level = element.level + 1

            def flush_text() -> None:
                if text_buffer:
                    element.append(self.factory.text(
                        "".join(text_buffer), level=content_level))
                    text_buffer.clear()

            if scanner.at_end():
                raise scanner.error(f"unterminated element <{element.name}>")
            if scanner.startswith("</"):
                flush_text()
                scanner.advance(2)
                closing = scanner.read_name()
                if closing != element.name:
                    raise scanner.error(
                        f"mismatched end tag: expected </{element.name}>, "
                        f"found </{closing}>")
                scanner.skip_whitespace()
                scanner.expect(">")
                # Subtree complete: extent reaches the last issued serial.
                element.size = self.factory.last_serial - element.order_key[1]
                stack.pop()
            elif scanner.startswith("<!--"):
                flush_text()
                element.append(self._parse_comment(level=content_level))
            elif scanner.startswith("<![CDATA["):
                scanner.advance(9)
                text_buffer.append(
                    scanner.read_until("]]>", "unterminated CDATA section"))
            elif scanner.startswith("<?"):
                flush_text()
                element.append(self._parse_pi(level=content_level))
            elif scanner.peek() == "<":
                flush_text()
                child, child_scope, child_closed = self._parse_open_tag(
                    scope, content_level)
                element.append(child)
                if not child_closed:
                    stack.append((child, child_scope, []))
            else:
                start = scanner.pos
                while not scanner.at_end() and scanner.peek() not in "<":
                    scanner.advance()
                raw = scanner.text[start:scanner.pos]
                text_buffer.append(self._expand_references(raw))
        return root

    def _parse_open_tag(self, namespaces: dict[str, str],
                        level: int) -> tuple[ElementNode, dict[str, str], bool]:
        """Parse a start (or empty-element) tag; returns the element, its
        namespace scope, and whether it was self-closing."""
        scanner = self.scanner
        scanner.expect("<")
        name = scanner.read_name()

        raw_attributes: list[tuple[str, str]] = []
        while True:
            scanner.skip_whitespace()
            if scanner.startswith("/>") or scanner.startswith(">"):
                break
            attr_name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            quote = scanner.peek()
            if quote not in ("'", '"'):
                raise scanner.error("attribute value must be quoted")
            scanner.advance()
            raw_value = scanner.read_until(quote, "unterminated attribute value")
            if "<" in raw_value:
                raise scanner.error("'<' in attribute value")
            # XML 1.0 §3.3.3 attribute-value normalization: literal
            # whitespace becomes a space *before* reference expansion
            # (&#10;/&#9; survive), matching expat.
            if "\n" in raw_value or "\t" in raw_value:
                raw_value = raw_value.replace("\n", " ").replace("\t", " ")
            value = self._expand_references(raw_value)
            if any(existing == attr_name for existing, _ in raw_attributes):
                raise scanner.error(f"duplicate attribute {attr_name!r}")
            raw_attributes.append((attr_name, value))

        # Resolve namespaces: xmlns declarations on this element first.
        scope = dict(namespaces)
        declarations: dict[str, str] = {}
        for attr_name, value in raw_attributes:
            if attr_name == "xmlns":
                scope[""] = value
                declarations[""] = value
            elif attr_name.startswith("xmlns:"):
                prefix = attr_name.split(":", 1)[1]
                scope[prefix] = value
                declarations[prefix] = value

        element = self.factory.element(
            name, self._resolve(name, scope, default=True), level=level)
        element.namespace_declarations = declarations
        for attr_name, value in raw_attributes:
            if attr_name == "xmlns" or attr_name.startswith("xmlns:"):
                ns_uri: Optional[str] = XMLNS_URI
            else:
                ns_uri = self._resolve(attr_name, scope, default=False)
            element.set_attribute(self.factory.attribute(
                attr_name, value, ns_uri, level=level + 1))

        if scanner.startswith("/>"):
            element.size = self.factory.last_serial - element.order_key[1]
            scanner.advance(2)
            return element, scope, True
        scanner.expect(">")
        return element, scope, False

    def _parse_comment(self, level: int = 0) -> Node:
        self.scanner.expect("<!--")
        content = self.scanner.read_until("-->", "unterminated comment")
        if "--" in content:
            raise self.scanner.error("'--' not allowed inside comment")
        return self.factory.comment(content, level=level)

    def _parse_pi(self, level: int = 0) -> Node:
        scanner = self.scanner
        scanner.expect("<?")
        target = scanner.read_name()
        if target.lower() == "xml":
            raise scanner.error("reserved processing-instruction target 'xml'")
        raw = scanner.read_until("?>", "unterminated processing instruction")
        return self.factory.processing_instruction(target, raw.strip(),
                                                   level=level)

    # -- helpers ---------------------------------------------------------------

    def _expand_references(self, text: str) -> str:
        if "&" not in text:
            return text
        parts: list[str] = []
        index = 0
        while index < len(text):
            amp = text.find("&", index)
            if amp < 0:
                parts.append(text[index:])
                break
            parts.append(text[index:amp])
            end = text.find(";", amp)
            if end < 0:
                raise self.scanner.error("unterminated entity reference")
            entity = text[amp + 1:end]
            if entity.startswith("#x") or entity.startswith("#X"):
                parts.append(chr(int(entity[2:], 16)))
            elif entity.startswith("#"):
                parts.append(chr(int(entity[1:])))
            elif entity in _PREDEFINED_ENTITIES:
                parts.append(_PREDEFINED_ENTITIES[entity])
            else:
                raise self.scanner.error(f"unknown entity &{entity};")
            index = end + 1
        return "".join(parts)

    def _resolve(self, qname: str, scope: dict[str, str],
                 default: bool) -> Optional[str]:
        if ":" in qname:
            prefix, _ = qname.split(":", 1)
            if prefix not in scope:
                raise self.scanner.error(f"undeclared namespace prefix {prefix!r}")
            return scope[prefix]
        if default:
            return scope.get("") or None
        return None


_ENCODING_DECL = re.compile(
    rb'^<\?xml[^>]*?encoding\s*=\s*["\']([A-Za-z][A-Za-z0-9._-]*)["\']')

_BOMS = (
    (codecs.BOM_UTF8, "utf-8-sig"),
    (codecs.BOM_UTF32_LE, "utf-32"),
    (codecs.BOM_UTF32_BE, "utf-32"),
    (codecs.BOM_UTF16_LE, "utf-16"),
    (codecs.BOM_UTF16_BE, "utf-16"),
)


def decode_xml_bytes(data: bytes) -> str:
    """Decode raw XML bytes honouring BOMs and the declared encoding.

    The pure-python parser's counterpart of what expat does natively: a
    BOM wins, then the XML declaration's ``encoding=`` pseudo-attribute
    (resolved through Python's codec registry, so aliases like
    ``latin-1`` work), defaulting to UTF-8.
    """
    for bom, encoding in _BOMS:
        if data.startswith(bom):
            return data.decode(encoding)
    match = _ENCODING_DECL.match(data[:256])
    encoding = match.group(1).decode("ascii") if match else "utf-8"
    try:
        return data.decode(encoding)
    except (LookupError, UnicodeDecodeError) as exc:
        raise XMLSyntaxError(f"cannot decode document: {exc}", 1, 1) \
            from None


def parse_document_python(text: Union[str, bytes],
                          uri: Optional[str] = None) -> DocumentNode:
    """The pure-python parser, without the expat attempt."""
    if isinstance(text, (bytes, bytearray)):
        text = decode_xml_bytes(bytes(text))
    return _Parser(text, uri).parse_document()


def parse_document(text: Union[str, bytes],
                   uri: Optional[str] = None) -> DocumentNode:
    """Parse a complete XML document into an XDM document node.

    Parameters
    ----------
    text:
        The XML source — ``str``, or raw ``bytes`` (the declared
        encoding / BOM is honoured by both parsers).
    uri:
        Optional document URI recorded on the document node (what
        ``fn:document-uri`` would return).

    The expat frontend parses first; input it rejects — malformed, or
    well-formed but outside the expat subset — is re-parsed by the
    python parser, which accepts the subset's remainder and reports
    malformed input with uniform ``line``/``column`` messages.
    """
    from repro.xml.expat_parser import parse_document_expat
    try:
        document = parse_document_expat(text, uri=uri)
    except Exception:
        PARSE_STATS.bump("fallbacks_to_python")
    else:
        PARSE_STATS.bump("documents_expat")
        PARSE_STATS.bump("bytes_expat", len(text))
        return document
    document = parse_document_python(text, uri=uri)
    PARSE_STATS.bump("documents_python")
    PARSE_STATS.bump("bytes_python", len(text))
    return document


def parse_fragment(text: Union[str, bytes]) -> ElementNode:
    """Parse a single element (fragment); returns the parentless element."""
    document = parse_document(text)
    root = document.root_element
    if root is None:
        raise XMLSyntaxError("fragment has no element", 1, 1)
    root.parent = None
    return root
