"""From-scratch XML 1.0 infrastructure.

The paper's system relies on an XML engine for shredding SOAP messages
and serializing results; since the reproduction may not assume lxml, this
package implements a small, well-formedness-checking XML parser that
produces :mod:`repro.xdm` node trees, and a serializer that renders them
back to markup.
"""

from repro.xml.parser import (
    PARSE_STATS,
    XMLSyntaxError,
    parse_document,
    parse_fragment,
)
from repro.xml.serializer import serialize, escape_text, escape_attribute

__all__ = [
    "PARSE_STATS",
    "parse_document",
    "parse_fragment",
    "XMLSyntaxError",
    "serialize",
    "escape_text",
    "escape_attribute",
]
