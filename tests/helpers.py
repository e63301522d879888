"""Shared test helpers."""

from __future__ import annotations

from typing import Optional

from repro.xdm.atomic import AtomicValue
from repro.xdm.nodes import Node
from repro.xml import parse_document
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery
from repro.xquery.modules import ModuleRegistry
from repro.xquf.pul import apply_updates


def interpret(source: str, registry: Optional[ModuleRegistry] = None,
              apply: bool = True, incremental: bool = True, **context):
    """Run *source* on the tree interpreter (no lifted attempt).

    ``context`` fills the :class:`ExecutionContext`; pending updates
    are applied afterwards unless ``apply`` is false, on the
    incremental path or — with ``incremental=False`` — the
    full-reencode reference.
    """
    result, pul = CompiledQuery(source, registry).run(
        ExecutionContext(**context))
    if pul and apply:
        apply_updates(pul, incremental=incremental)
    return result


def run(source: str, docs: Optional[dict[str, str]] = None,
        modules: Optional[dict[str, str]] = None, **kwargs):
    """Evaluate an XQuery; docs maps uri->xml text, modules location->source."""
    registry = ModuleRegistry()
    for location, module_source in (modules or {}).items():
        registry.register_source(module_source, location=location)
    parsed = {uri: parse_document(text, uri=uri) for uri, text in (docs or {}).items()}
    resolver = parsed.get if docs else None
    return interpret(source, registry=registry, doc_resolver=resolver, **kwargs)


def values(sequence) -> list:
    """Python values of an all-atomic result sequence."""
    result = []
    for item in sequence:
        assert isinstance(item, AtomicValue), f"expected atomic, got {item!r}"
        result.append(item.value)
    return result


def strings(sequence) -> list[str]:
    return [item.string_value() for item in sequence]


def xml(sequence) -> str:
    """Serialize a result sequence to a single XML string."""
    from repro.xml.serializer import serialize_sequence
    return serialize_sequence(sequence)


def single_node(sequence) -> Node:
    assert len(sequence) == 1 and isinstance(sequence[0], Node), sequence
    return sequence[0]


def densify(document, rounds: int = 3):
    """Pack *document*'s order keys tighter than the parsers space them.

    Each round inserts a comment before every element below the root
    element through the incremental update path, bisecting the serial
    gap in front of it, so keys end up unevenly spaced and a few serials
    apart.  Returns *document*.
    """
    for _ in range(rounds):
        interpret("for $e in /*//* return insert node comment { 'k' } "
                  "before $e", context_item=document)
    return document
