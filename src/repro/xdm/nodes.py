"""XDM node kinds with node identity and global document order.

Node identity is Python object identity.  Document order is a total order
across *all* documents in a process: each node carries an ``order_key``
``(doc_id, serial)`` assigned by a :class:`NodeFactory` at construction
time.  Parsers and constructors create nodes in document order, so the
serial numbers directly encode the order within one tree, and ``doc_id``
provides the paper-mandated "consistent order over nodes from different
documents".

Call-by-value semantics of XRPC (section 2.2 of the paper) are realised
with :func:`copy_tree`: marshaling a node into a SOAP message and back
produces a fresh tree with new identity, whose upward/sideways axes are
empty at the remote side.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterator, Optional

from repro.xdm.atomic import AtomicValue, untyped

_doc_counter = itertools.count(1)
_doc_counter_lock = threading.Lock()

#: Default spacing between consecutive serials (the *gapped pre-plane*).
#: Stamping with gaps leaves ``KEY_STRIDE - 1`` unused serials between
#: neighbouring nodes, so a small XQUF insert usually mints its keys
#: inside the gap — O(change) — instead of restamping the whole tree.
KEY_STRIDE = 32


def _next_doc_id() -> int:
    with _doc_counter_lock:
        return next(_doc_counter)


class NodeFactory:
    """Creates nodes of one tree, assigning document-order keys.

    One factory corresponds to one document (or one constructed fragment
    root): all nodes it makes share a ``doc_id`` and receive increasing
    serial numbers.  Serials are spaced :data:`KEY_STRIDE` apart (the
    gapped pre-plane) so later inserts can mint
    in-between keys without restamping neighbours.  The serial is the
    node's *pre* coordinate in the XPath-accelerator encoding; creators
    that know their depth (the XML parser, ``copy_tree``) pass ``level``
    so nodes come out fully pre/size/level-stamped without a post-hoc
    walk — ``size`` (in serial units: the subtree's descendant window is
    ``pre < x <= pre + size``, attributes included) is stamped by the
    creator once the subtree is complete (see :meth:`last_serial`).
    """

    def __init__(self) -> None:
        self.doc_id = _next_doc_id()
        self._next_serial = 0
        self._issued = 0

    def _key(self) -> tuple[int, int]:
        serial = self._next_serial
        self._next_serial = serial + KEY_STRIDE
        self._issued += 1
        return (self.doc_id, serial)

    @property
    def issued(self) -> int:
        """Number of keys issued so far."""
        return self._issued

    @property
    def last_serial(self) -> int:
        """Serial of the most recently issued key (``-1`` before the
        first); a container created at serial ``s`` whose subtree is
        complete has ``size = factory.last_serial - s``."""
        return self._next_serial - KEY_STRIDE

    def document(self, uri: Optional[str] = None,
                 level: int = 0) -> "DocumentNode":
        node = DocumentNode(self._key(), uri)
        node.level = level
        return node

    def element(self, name: str, ns_uri: Optional[str] = None,
                level: int = 0) -> "ElementNode":
        node = ElementNode(self._key(), name, ns_uri)
        node.level = level
        return node

    def attribute(self, name: str, value: str,
                  ns_uri: Optional[str] = None,
                  level: int = 0) -> "AttributeNode":
        node = AttributeNode(self._key(), name, value, ns_uri)
        node.level = level
        return node

    def text(self, content: str, level: int = 0) -> "TextNode":
        node = TextNode(self._key(), content)
        node.level = level
        return node

    def comment(self, content: str, level: int = 0) -> "CommentNode":
        node = CommentNode(self._key(), content)
        node.level = level
        return node

    def processing_instruction(self, target: str, content: str,
                               level: int = 0) -> "ProcessingInstructionNode":
        node = ProcessingInstructionNode(self._key(), target, content)
        node.level = level
        return node


class Node:
    """Base class of the seven XDM node kinds (we implement six;

    namespace nodes are not exposed by this engine, matching most XQuery
    implementations).
    """

    kind: str = "node"

    # XPath-accelerator stamps.  ``pre`` is the document-order serial
    # (the same key every document-order comparison in the engine uses);
    # serials are *gapped* (see :data:`KEY_STRIDE`), so the only
    # invariant is strict monotonicity in document order — never
    # density.  ``size`` is the subtree extent in serial units: every
    # descendant (attributes included) has ``pre < x <= pre + size``,
    # and the window may cover unused serials (insert gaps, freed
    # serials of deleted nodes).  ``level`` is the depth below the
    # construction root.  Stamped in one pass by the parsers /
    # ``copy_tree``; after updates the XQUF applier mints in-gap keys
    # for spliced content (worst case ``reencode_tree``).  Axis
    # evaluation itself reads the authoritative per-tree
    # :class:`~repro.xdm.structural.StructuralIndex` (positional pre
    # ranks), which also covers trees assembled without stamps.
    size: int = 0
    level: int = 0
    # Back-reference to the StructuralIndex that covers this node, set
    # when one is built; mutators flip its ``stale`` bit (O(1)).
    _sidx = None

    def __init__(self, order_key: tuple[int, int]) -> None:
        self.order_key = order_key
        self.parent: Optional[Node] = None

    @property
    def pre(self) -> int:
        return self.order_key[1]

    def _invalidate_index(self) -> None:
        index = self._sidx
        if index is not None:
            index.stale = True

    # -- axes ------------------------------------------------------------

    @property
    def children(self) -> list["Node"]:
        return []

    @property
    def attributes(self) -> list["AttributeNode"]:
        return []

    def root(self) -> "Node":
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self, include_self: bool = False) -> Iterator["Node"]:
        """Subtree in document order, iteratively (deep trees would
        overflow the interpreter stack with the obvious recursion)."""
        if include_self:
            yield self
        stack = [iter(self.children)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                continue
            yield child
            children = child.children
            if children:
                stack.append(iter(children))

    def following_siblings(self) -> Iterator["Node"]:
        if self.parent is None or isinstance(self, AttributeNode):
            return
        siblings = self.parent.children
        index = _index_of(siblings, self)
        yield from siblings[index + 1:]

    def preceding_siblings(self) -> Iterator["Node"]:
        if self.parent is None or isinstance(self, AttributeNode):
            return
        siblings = self.parent.children
        index = _index_of(siblings, self)
        yield from reversed(siblings[:index])

    def following(self) -> Iterator["Node"]:
        """Nodes after self in document order, excluding descendants."""
        node: Node = self
        while node is not None:
            for sibling in node.following_siblings():
                yield from sibling.descendants(include_self=True)
            node = node.parent  # type: ignore[assignment]
            if node is None:
                break

    def preceding(self) -> Iterator["Node"]:
        """Nodes before self in document order, excluding ancestors.

        Yields in reverse document order without ever materialising the
        whole document: climbing the ancestor chain, each preceding
        sibling's subtree is emitted back-to-front.  Nodes *after* self
        are never visited (the old implementation walked the entire tree
        forward and reversed a list).  For an attribute, the chain starts
        at its owner, so the result equals the owner's preceding axis.
        """
        node: Optional[Node] = self
        while node is not None:
            for sibling in node.preceding_siblings():
                subtree = [sibling]
                subtree.extend(sibling.descendants())
                yield from reversed(subtree)
            node = node.parent

    # -- values ------------------------------------------------------------

    def string_value(self) -> str:
        raise NotImplementedError

    def typed_value(self) -> list[AtomicValue]:
        """Atomization result; untyped documents yield xs:untypedAtomic."""
        return [untyped(self.string_value())]

    @property
    def node_name(self) -> Optional[str]:
        return None

    def serialize(self, indent: bool = False) -> str:
        """Serialize this node to XML text (convenience wrapper)."""
        from repro.xml.serializer import serialize
        return serialize(self, indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = self.node_name or ""
        return f"<{self.kind} {name} @{self.order_key}>"


def _index_of(nodes: list[Node], target: Node) -> int:
    """Position of *target* (by identity) in its parent's child list.

    Children are appended in document order, so a bisect on the order
    key finds the position in O(log n); identity is verified around the
    probe (several children cannot share a key within one tree), with a
    linear scan as the safety net for hand-assembled cross-factory trees
    whose keys may not be monotone.
    """
    key = target.order_key
    low, high = 0, len(nodes)
    while low < high:
        mid = (low + high) // 2
        if nodes[mid].order_key < key:
            low = mid + 1
        else:
            high = mid
    if low < len(nodes) and nodes[low] is target:
        return low
    for index, node in enumerate(nodes):
        if node is target:
            return index
    raise ValueError("node not found among parent's children")


class DocumentNode(Node):
    kind = "document"

    def __init__(self, order_key: tuple[int, int], uri: Optional[str] = None) -> None:
        super().__init__(order_key)
        self.uri = uri
        self._children: list[Node] = []

    @property
    def children(self) -> list[Node]:
        return self._children

    def append(self, child: Node) -> None:
        child.parent = self
        self._children.append(child)
        self._invalidate_index()

    def string_value(self) -> str:
        # Concatenated descendant text, via the iterative walk — nested
        # generator recursion overflowed on deep trees (atomization is
        # on the XRPC marshal hot path).
        return "".join(node.content for node in self.descendants()
                       if isinstance(node, TextNode))

    @property
    def root_element(self) -> Optional["ElementNode"]:
        for child in self._children:
            if isinstance(child, ElementNode):
                return child
        return None


class ElementNode(Node):
    kind = "element"

    def __init__(self, order_key: tuple[int, int], name: str,
                 ns_uri: Optional[str] = None) -> None:
        super().__init__(order_key)
        self.name = name            # lexical QName as written, e.g. "xrpc:call"
        # Cached local part: name tests probe it per candidate node, so
        # splitting the QName on every access is a measurable axis-step
        # cost.  Renames must go through :meth:`rename`.
        self._local_name = name.split(":")[-1] if ":" in name else name
        self.ns_uri = ns_uri        # resolved namespace URI or None
        self._attributes: list[AttributeNode] = []
        self._children: list[Node] = []
        # Prefix->URI bindings declared *on this element* (xmlns attrs).
        self.namespace_declarations: dict[str, str] = {}

    @property
    def local_name(self) -> str:
        return self._local_name

    def rename(self, name: str) -> None:
        """Change the lexical QName (XQUF ``rename node``), keeping the
        cached local part coherent."""
        self.name = name
        self._local_name = name.split(":")[-1] if ":" in name else name
        self._invalidate_index()

    @property
    def node_name(self) -> Optional[str]:
        return self.name

    @property
    def children(self) -> list[Node]:
        return self._children

    @property
    def attributes(self) -> list["AttributeNode"]:
        return self._attributes

    def append(self, child: Node) -> None:
        child.parent = self
        self._children.append(child)
        self._invalidate_index()

    def set_attribute(self, attribute: "AttributeNode") -> None:
        attribute.parent = self
        self._attributes.append(attribute)
        self._invalidate_index()

    def get_attribute(self, name: str) -> Optional["AttributeNode"]:
        """Lookup by lexical name first, falling back to local name."""
        for attribute in self._attributes:
            if attribute.name == name:
                return attribute
        for attribute in self._attributes:
            if attribute.local_name == name:
                return attribute
        return None

    def string_value(self) -> str:
        # Iterative for the same reason as DocumentNode.string_value.
        return "".join(node.content for node in self.descendants()
                       if isinstance(node, TextNode))

    def find(self, local_name: str, ns_uri: Optional[str] = None) -> Optional["ElementNode"]:
        """First child element with the given local name (+ namespace)."""
        for child in self._children:
            if isinstance(child, ElementNode) and child.local_name == local_name:
                if ns_uri is None or child.ns_uri == ns_uri:
                    return child
        return None

    def find_all(self, local_name: str, ns_uri: Optional[str] = None) -> list["ElementNode"]:
        return [
            child for child in self._children
            if isinstance(child, ElementNode) and child.local_name == local_name
            and (ns_uri is None or child.ns_uri == ns_uri)
        ]

    def child_elements(self) -> list["ElementNode"]:
        return [c for c in self._children if isinstance(c, ElementNode)]


class AttributeNode(Node):
    kind = "attribute"

    def __init__(self, order_key: tuple[int, int], name: str, value: str,
                 ns_uri: Optional[str] = None) -> None:
        super().__init__(order_key)
        self.name = name
        self._local_name = name.split(":")[-1] if ":" in name else name
        self.value = value
        self.ns_uri = ns_uri

    @property
    def local_name(self) -> str:
        return self._local_name

    def rename(self, name: str) -> None:
        """Change the lexical QName (XQUF ``rename node``), keeping the
        cached local part coherent."""
        self.name = name
        self._local_name = name.split(":")[-1] if ":" in name else name
        self._invalidate_index()

    @property
    def node_name(self) -> Optional[str]:
        return self.name

    def string_value(self) -> str:
        return self.value


class TextNode(Node):
    kind = "text"

    def __init__(self, order_key: tuple[int, int], content: str) -> None:
        super().__init__(order_key)
        self.content = content

    def string_value(self) -> str:
        return self.content


class CommentNode(Node):
    kind = "comment"

    def __init__(self, order_key: tuple[int, int], content: str) -> None:
        super().__init__(order_key)
        self.content = content

    def string_value(self) -> str:
        return self.content


class ProcessingInstructionNode(Node):
    kind = "processing-instruction"

    def __init__(self, order_key: tuple[int, int], target: str, content: str) -> None:
        super().__init__(order_key)
        self.target = target
        self.content = content

    @property
    def node_name(self) -> Optional[str]:
        return self.target

    def string_value(self) -> str:
        return self.content


def copy_tree(node: Node, factory: Optional[NodeFactory] = None) -> Node:
    """Deep-copy *node* into a fresh tree with new node identity.

    The copy is parentless (a standalone fragment), which is exactly the
    XRPC call-by-value guarantee: upward and horizontal axes evaluated on
    the copy yield empty results.
    """
    factory = factory or NodeFactory()
    return _copy_into(node, factory)


def copy_into(node: Node, factory: NodeFactory) -> Node:
    """Deep-copy *node* using an existing factory (same target tree)."""
    return _copy_into(node, factory)


def _copy_one(node: Node, factory: NodeFactory, level: int) -> Node:
    """Shallow-copy one node (attributes included — they precede the
    children in factory serial order, exactly like the parsers)."""
    if isinstance(node, DocumentNode):
        return factory.document(node.uri, level=level)
    if isinstance(node, ElementNode):
        copy = factory.element(node.name, node.ns_uri, level=level)
        copy.namespace_declarations = dict(node.namespace_declarations)
        for attribute in node.attributes:
            copy.set_attribute(
                factory.attribute(attribute.name, attribute.value,
                                  attribute.ns_uri, level=level + 1))
        return copy
    if isinstance(node, AttributeNode):
        return factory.attribute(node.name, node.value, node.ns_uri,
                                 level=level)
    if isinstance(node, TextNode):
        return factory.text(node.content, level=level)
    if isinstance(node, CommentNode):
        return factory.comment(node.content, level=level)
    if isinstance(node, ProcessingInstructionNode):
        return factory.processing_instruction(node.target, node.content,
                                              level=level)
    raise TypeError(f"cannot copy node kind {node.kind}")


def _copy_into(node: Node, factory: NodeFactory, level: int = 0) -> Node:
    """Iterative deep copy: an explicit work stack replaces the call
    stack (deep trees — XRPC call-by-value payloads routinely nest
    thousands of levels — must not hit the interpreter recursion limit).

    Serials are issued in document order by pre-order traversal, and a
    close marker stamps each container's ``size`` from the factory's
    serial counter once its subtree is complete — the same single-pass
    pre/size/level stamping the recursive version performed.
    """
    result: Optional[Node] = None
    # Work items: (source, parent_copy, level) visits, (None, copy, 0)
    # closes a container and stamps its subtree size.
    stack: list[tuple] = [(node, None, level)]
    while stack:
        source, parent_copy, depth = stack.pop()
        if source is None:
            copy = parent_copy
            copy.size = factory.last_serial - copy.order_key[1]
            continue
        copy = _copy_one(source, factory, depth)
        if result is None:
            result = copy
        if parent_copy is not None:
            parent_copy.append(copy)
        if isinstance(source, (DocumentNode, ElementNode)):
            stack.append((None, copy, 0))
            for child in reversed(source.children):
                stack.append((child, copy, depth + 1))
    assert result is not None
    return result
