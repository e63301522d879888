"""Update primitives, pending update lists, and applyUpdates().

Matches the XQUF draft the paper cites: each updating expression appends
a primitive describing *what* to change; :func:`apply_updates` performs
the side effects.  Per the paper (end of section 2.3), when the same node
is updated twice in one query the application order of the conflicting
actions is non-deterministic, so unioning PULs from multiple XRPC calls
is sound — :meth:`PendingUpdateList.merge` implements exactly that union.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import UpdateError
from repro.xdm.nodes import (
    AttributeNode,
    DocumentNode,
    ElementNode,
    Node,
    NodeFactory,
    TextNode,
    copy_tree,
)


class UpdatePrimitive:
    """Base class of all update primitives."""

    target: Node

    def apply(self) -> None:
        raise NotImplementedError


def _require_element_or_document(node: Node, verb: str) -> None:
    if not isinstance(node, (ElementNode, DocumentNode)):
        raise UpdateError(
            "XUTY0005", f"{verb} target must be an element or document node")


def _insert_children(parent: Node, nodes: list[Node], index: int) -> None:
    _require_element_or_document(parent, "insert")
    offset = 0
    for node in nodes:
        if isinstance(node, AttributeNode):
            if not isinstance(parent, ElementNode):
                raise UpdateError(
                    "XUTY0022", "attributes may only be inserted into elements")
            parent.set_attribute(node)
            continue
        node.parent = parent
        parent.children.insert(index + offset, node)
        offset += 1


def _child_index(node: Node) -> int:
    parent = node.parent
    if parent is None:
        raise UpdateError("XUDY0027", "target has no parent")
    for index, child in enumerate(parent.children):
        if child is node:
            return index
    raise UpdateError("XUDY0027", "target detached from parent")


@dataclass
class InsertInto(UpdatePrimitive):
    target: Node
    content: list[Node]

    def apply(self) -> None:
        _insert_children(self.target, self.content, len(self.target.children))


@dataclass
class InsertFirst(UpdatePrimitive):
    target: Node
    content: list[Node]

    def apply(self) -> None:
        _insert_children(self.target, self.content, 0)


@dataclass
class InsertLast(UpdatePrimitive):
    target: Node
    content: list[Node]

    def apply(self) -> None:
        _insert_children(self.target, self.content, len(self.target.children))


@dataclass
class InsertBefore(UpdatePrimitive):
    target: Node
    content: list[Node]

    def apply(self) -> None:
        parent = self.target.parent
        if parent is None:
            raise UpdateError("XUDY0027", "insert before target has no parent")
        _insert_children(parent, self.content, _child_index(self.target))


@dataclass
class InsertAfter(UpdatePrimitive):
    target: Node
    content: list[Node]

    def apply(self) -> None:
        parent = self.target.parent
        if parent is None:
            raise UpdateError("XUDY0027", "insert after target has no parent")
        _insert_children(parent, self.content, _child_index(self.target) + 1)


@dataclass
class DeleteNode(UpdatePrimitive):
    target: Node

    def apply(self) -> None:
        parent = self.target.parent
        if parent is None:
            return  # deleting a root: becomes detached, nothing to do
        if isinstance(self.target, AttributeNode):
            assert isinstance(parent, ElementNode)
            parent.attributes[:] = [
                a for a in parent.attributes if a is not self.target]
        else:
            parent.children[:] = [
                c for c in parent.children if c is not self.target]
        self.target.parent = None


@dataclass
class ReplaceNode(UpdatePrimitive):
    target: Node
    replacement: list[Node]

    def apply(self) -> None:
        parent = self.target.parent
        if parent is None:
            raise UpdateError("XUDY0009", "replace target has no parent")
        if isinstance(self.target, AttributeNode):
            assert isinstance(parent, ElementNode)
            index = next(
                i for i, a in enumerate(parent.attributes) if a is self.target)
            parent.attributes.pop(index)
            for offset, node in enumerate(self.replacement):
                if not isinstance(node, AttributeNode):
                    raise UpdateError(
                        "XUTY0011", "attribute may only be replaced by attributes")
                node.parent = parent
                parent.attributes.insert(index + offset, node)
            return
        index = _child_index(self.target)
        parent.children.pop(index)
        self.target.parent = None
        _insert_children(parent, self.replacement, index)


@dataclass
class ReplaceValue(UpdatePrimitive):
    target: Node
    value: str

    def apply(self) -> None:
        if isinstance(self.target, AttributeNode):
            self.target.value = self.value
            return
        if isinstance(self.target, TextNode):
            self.target.content = self.value
            return
        if isinstance(self.target, ElementNode):
            factory = NodeFactory()
            self.target.children.clear()
            if self.value:
                text = factory.text(self.value)
                text.parent = self.target
                self.target.children.append(text)
            return
        raise UpdateError("XUTY0008", "replace value target kind unsupported")


@dataclass
class RenameNode(UpdatePrimitive):
    target: Node
    new_name: str

    def apply(self) -> None:
        if isinstance(self.target, (ElementNode, AttributeNode)):
            self.target.rename(self.new_name)
            return
        raise UpdateError("XUTY0012", "rename target must be element or attribute")


@dataclass
class PutDocument(UpdatePrimitive):
    """fn:put() — store a document at a URI (data shipping write)."""

    target: Node
    uri: str
    store: Optional[Callable[[str, Node], None]] = None

    def apply(self) -> None:
        if self.store is None:
            raise UpdateError("FOUP0002", f"no document store for fn:put({self.uri!r})")
        node = self.target
        if not isinstance(node, DocumentNode):
            document = NodeFactory().document(self.uri)
            document.append(copy_tree(node))
            node = document
        self.store(self.uri, node)


@dataclass
class PendingUpdateList:
    """An ordered collection of update primitives (Δ in the paper)."""

    primitives: list[UpdatePrimitive] = field(default_factory=list)

    def add(self, primitive: UpdatePrimitive) -> None:
        self.primitives.append(primitive)

    def merge(self, other: "PendingUpdateList") -> None:
        """Union with another PUL (Δ ∪ Δ'), order preserved per-list."""
        self.primitives.extend(other.primitives)

    def document_uris(self) -> list[str]:
        """URIs of the stored documents the primitives will mutate, in
        first-touch order."""
        uris: list[str] = []
        for primitive in self.primitives:
            root = primitive.target.root()
            if isinstance(root, DocumentNode) and root.uri \
                    and root.uri not in uris:
                uris.append(root.uri)
        return uris

    def __len__(self) -> int:
        return len(self.primitives)

    def __bool__(self) -> bool:
        return bool(self.primitives)


class _TreeState:
    """Per-tree bookkeeping of one :func:`apply_updates` run."""

    __slots__ = ("root", "index")

    def __init__(self, root: Node, index) -> None:
        self.root = root
        # The live StructuralIndex being patched in place, or None when
        # the tree has no fresh index (it will rebuild lazily) or a
        # patch failed / a full re-encode killed it.
        self.index = index


class _IncrementalApplier:
    """Applies primitives with O(change) re-encoding and in-place
    :class:`~repro.xdm.structural.StructuralIndex` patching.

    Each structural primitive mints order keys for exactly its splice
    region (gap fast path; region respread / full re-encode fallbacks)
    and splices the affected rows of the tree's live index.  Value-only
    primitives (replace value on attributes/text, rename) skip
    restamping entirely — their ``order_key``/``size``/``level`` stamps
    stay valid — and merely evict the value indexes they can invalidate.
    """

    def __init__(self) -> None:
        from repro.xdm import structural

        self._structural = structural
        self._trees: dict[int, _TreeState] = {}
        self._current: Optional[_TreeState] = None

    # -- plumbing ----------------------------------------------------------

    def _state(self, root: Node) -> _TreeState:
        state = self._trees.get(id(root))
        if state is None:
            index = root._sidx
            live = index is not None and not index.stale \
                and index.root is root
            state = _TreeState(root, index if live else None)
            self._trees[id(root)] = state
        self._current = state
        return state

    def _abandon(self, state: _TreeState) -> None:
        """A patch could not locate its splice point: stale-mark and let
        the next query rebuild (correctness over bookkeeping)."""
        if state.index is not None:
            state.index.stale = True
            state.index = None

    def apply(self, primitive: UpdatePrimitive) -> None:
        self._current = None
        try:
            self._dispatch(primitive)
        except Exception:
            # A primitive failed mid-flight (XQUF dynamic errors raise
            # after part of the splice happened): anything we patched so
            # far is consistent, but the failing splice is not — force a
            # rebuild of the touched tree's index.
            state = self._current
            if state is not None:
                self._abandon(state)
            raise

    def finalize(self) -> None:
        """Clear the stale bits the primitives' own mutators flipped:
        every mutation went through a successful patch, so each
        still-tracked index is consistent with its tree."""
        for state in self._trees.values():
            if state.index is not None:
                state.index.stale = False

    # -- primitive handlers ------------------------------------------------

    def _dispatch(self, primitive: UpdatePrimitive) -> None:
        if isinstance(primitive, (InsertInto, InsertFirst, InsertLast,
                                  InsertBefore, InsertAfter)):
            self._apply_insert(primitive)
        elif isinstance(primitive, ReplaceNode):
            self._apply_replace(primitive)
        elif isinstance(primitive, ReplaceValue):
            self._apply_replace_value(primitive)
        elif isinstance(primitive, RenameNode):
            self._apply_rename(primitive)
        elif isinstance(primitive, DeleteNode):
            self._apply_delete(primitive)
        elif isinstance(primitive, PutDocument):
            primitive.apply()
        else:
            # Unknown primitive kind: apply, then fall back to a full
            # re-encode of its tree (conservative).
            root = primitive.target.root()
            state = self._state(root)
            primitive.apply()
            self._structural.reencode_tree(state.root)
            state.index = None

    def _split_content(self, content: list[Node],
                       ) -> tuple[list[Node], list[Node]]:
        roots = [n for n in content if not isinstance(n, AttributeNode)]
        attrs = [n for n in content if isinstance(n, AttributeNode)]
        return roots, attrs

    def _splice(self, state: _TreeState, parent: Node,
                roots: list[Node], attrs: list[Node]) -> None:
        """Mint keys for freshly inserted content and patch the index."""
        structural = self._structural
        outcome = "subtree"
        if roots:
            outcome = structural.reencode_spliced_children(parent, roots)
        if attrs and outcome != "full":
            outcome = structural.reencode_spliced_attributes(parent, attrs)
        if outcome == "full":
            # reencode_tree already stale-marked the index.
            state.index = None
            return
        if state.index is not None:
            ok = state.index.patch_insert(parent, roots) if roots else True
            if ok and attrs:
                ok = state.index.patch_attributes(parent, attrs)
            if not ok:
                self._abandon(state)

    def _apply_insert(self, primitive: UpdatePrimitive) -> None:
        target = primitive.target
        if isinstance(primitive, (InsertBefore, InsertAfter)):
            parent = target.parent
        else:
            parent = target
        if parent is None:
            primitive.apply()  # raises the proper XUDY0027
            return
        state = self._state(target.root())
        primitive.apply()
        roots, attrs = self._split_content(primitive.content)
        self._splice(state, parent, roots, attrs)

    def _apply_replace(self, primitive: ReplaceNode) -> None:
        target = primitive.target
        parent = target.parent
        if parent is None:
            primitive.apply()  # raises XUDY0009
            return
        state = self._state(target.root())
        if isinstance(target, AttributeNode):
            primitive.apply()
            self._structural.rekey_detached(target)
            outcome = self._structural.reencode_spliced_attributes(
                parent, list(primitive.replacement))
            if outcome == "full":
                state.index = None
            elif state.index is not None:
                if not state.index.patch_attributes(
                        parent, primitive.replacement):
                    self._abandon(state)
            return
        if state.index is not None:
            if not state.index.patch_delete(target):
                self._abandon(state)
        primitive.apply()
        self._structural.rekey_detached(target)
        roots, attrs = self._split_content(primitive.replacement)
        self._splice(state, parent, roots, attrs)

    def _apply_replace_value(self, primitive: ReplaceValue) -> None:
        target = primitive.target
        if isinstance(target, ElementNode):
            # Splices a fresh-factory text node in place of the old
            # children — a structural change like any replace.
            state = self._state(target.root())
            old_children = list(target.children)
            if state.index is not None:
                for child in old_children:
                    if not state.index.patch_delete(child):
                        self._abandon(state)
                        break
            primitive.apply()
            for child in old_children:
                self._structural.rekey_detached(child)
            self._splice(state, target, list(target.children), [])
            return
        # Attribute / text target: value-only — order keys, sizes and
        # index rows all stay valid; no restamp at all.
        state = self._state(target.root())
        primitive.apply()
        if state.index is not None:
            if not state.index.patch_content(target):
                self._abandon(state)

    def _apply_rename(self, primitive: RenameNode) -> None:
        target = primitive.target
        state = self._state(target.root())
        old_local = getattr(target, "local_name", None)
        primitive.apply()
        if state.index is not None:
            if not state.index.patch_rename(target, old_local):
                self._abandon(state)

    def _apply_delete(self, primitive: DeleteNode) -> None:
        target = primitive.target
        parent = target.parent
        if parent is None:
            primitive.apply()  # detached root: no-op
            return
        state = self._state(target.root())
        if isinstance(target, AttributeNode):
            primitive.apply()
            self._structural.rekey_detached(target)
            if state.index is not None:
                if not state.index.patch_attributes(parent):
                    self._abandon(state)
            if target._sidx is not None:
                target._sidx = None
            return
        # Tree-node delete: the *remaining* keys need no work at all —
        # freed serials simply become gaps.  The detached subtree is
        # rekeyed under a fresh doc id (O(detached)) so a held
        # reference can never collide with a later in-gap mint.
        if state.index is not None:
            if not state.index.patch_delete(target):
                self._abandon(state)
        primitive.apply()
        self._structural.rekey_detached(target)


def apply_updates(pul: PendingUpdateList, *,
                  incremental: bool = True) -> None:
    """applyUpdates(Δ): carry through all changes in the list.

    Deletions are applied last (after inserts/replaces), following the
    XQUF semantics that the primitives operate against the pre-update
    tree as far as observable.

    With ``incremental`` (the default), every primitive re-encodes only
    its splice region on the gapped order-key plane — inserted content
    mints keys inside the gap between its document-order neighbours,
    deletes need no key work, value/rename updates skip restamping
    entirely — and the tree's :class:`StructuralIndex` is patched in
    place (rows spliced, tag partitions shifted, covered value indexes
    evicted) instead of stale-marked.  ``incremental=False`` is the
    full-reencode reference — a whole-tree
    :func:`~repro.xdm.structural.reencode_tree` per structurally
    mutated tree plus index stale-marking — that the equivalence tests
    and the incremental-update benchmark compare against.
    """
    if not incremental:
        _apply_updates_full(pul)
        return
    applier = _IncrementalApplier()
    deletions = [p for p in pul.primitives if isinstance(p, DeleteNode)]
    for primitive in pul.primitives:
        if not isinstance(primitive, DeleteNode):
            applier.apply(primitive)
    for primitive in deletions:
        applier.apply(primitive)
    applier.finalize()


def _apply_updates_full(pul: PendingUpdateList) -> None:
    """The full-reencode reference: apply, then restamp every
    structurally mutated tree (with gaps) and stale-mark its index."""
    from repro.xdm.structural import invalidate_structural_index, reencode_tree

    structural = (InsertInto, InsertFirst, InsertLast, InsertBefore,
                  InsertAfter, DeleteNode, ReplaceNode)

    def is_structural(primitive: UpdatePrimitive) -> bool:
        if isinstance(primitive, structural):
            return True
        # ReplaceValue on an *element* splices in a fresh-factory text
        # node — a structural change needing re-encoding like any insert.
        return isinstance(primitive, ReplaceValue) and \
            isinstance(primitive.target, ElementNode)

    # Roots must be resolved *before* applying: a deletion detaches its
    # target, and the tree it was removed from is the one to re-encode.
    mutated_roots: dict[int, Node] = {}
    for primitive in pul.primitives:
        if is_structural(primitive):
            root = primitive.target.root()
            mutated_roots[id(root)] = root
    deletions = [p for p in pul.primitives if isinstance(p, DeleteNode)]
    for primitive in pul.primitives:
        if not isinstance(primitive, DeleteNode):
            primitive.apply()
        if not is_structural(primitive):
            invalidate_structural_index(primitive.target)
    for primitive in deletions:
        primitive.apply()
    for root in mutated_roots.values():
        reencode_tree(root)
