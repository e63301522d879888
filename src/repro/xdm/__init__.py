"""XQuery Data Model (XDM) implementation.

This package provides the data model of XQuery 1.0 / XPath 2.0 as used by
the XRPC paper: atomic values annotated with XML Schema types, the seven
node kinds with node identity and document order, and sequence operations
(atomization, effective boolean value, deep-equal).

Sequences are represented as plain Python lists of items; an *item* is
either an :class:`~repro.xdm.atomic.AtomicValue` or a
:class:`~repro.xdm.nodes.Node`.
"""

from repro.xdm.types import XSType, xs, UNTYPED_ATOMIC, type_by_name
from repro.xdm.atomic import AtomicValue, untyped, string, integer, decimal, double, boolean
from repro.xdm.nodes import (
    Node,
    DocumentNode,
    ElementNode,
    AttributeNode,
    TextNode,
    CommentNode,
    ProcessingInstructionNode,
    NodeFactory,
    copy_tree,
)
from repro.xdm.nodes import KEY_STRIDE
from repro.xdm.structural import (
    ENCODING_STATS,
    StructuralIndex,
    invalidate_structural_index,
    reencode_spliced_attributes,
    reencode_spliced_children,
    reencode_tree,
    rekey_detached,
    structural_index,
)
from repro.xdm.sequence import (
    atomize,
    effective_boolean_value,
    string_value,
    deep_equal,
    is_node,
    is_atomic,
    singleton,
    document_order_sort,
)

__all__ = [
    "XSType",
    "xs",
    "UNTYPED_ATOMIC",
    "type_by_name",
    "AtomicValue",
    "untyped",
    "string",
    "integer",
    "decimal",
    "double",
    "boolean",
    "Node",
    "DocumentNode",
    "ElementNode",
    "AttributeNode",
    "TextNode",
    "CommentNode",
    "ProcessingInstructionNode",
    "NodeFactory",
    "copy_tree",
    "KEY_STRIDE",
    "ENCODING_STATS",
    "StructuralIndex",
    "structural_index",
    "invalidate_structural_index",
    "reencode_spliced_attributes",
    "reencode_spliced_children",
    "reencode_tree",
    "rekey_detached",
    "atomize",
    "effective_boolean_value",
    "string_value",
    "deep_equal",
    "is_node",
    "is_atomic",
    "singleton",
    "document_order_sort",
]
