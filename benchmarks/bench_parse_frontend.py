"""Benchmark: the expat parse frontend vs the pure-python fallback parser.

Cold parses of XMark documents — the bulk-ingest / message-treebuild
pass ROADMAP names the dominant message-path cost.  Both parsers are
timed on identical input; the expat frontend must win
by >= 5x at the largest scale while producing a byte-identical encoding
(pre/size/level planes and gapped order keys are asserted per run).
The serializer's wire fast path is measured alongside on the same
document.

Run standalone (CI uploads the JSON):

    PYTHONPATH=src python -m pytest -q -rA \
        benchmarks/bench_parse_frontend.py \
        --benchmark-json=BENCH_parse_frontend.json
"""

import time

import pytest

from repro.workloads.xmark import XMarkConfig, generate_auctions
from repro.xdm.nodes import (
    DocumentNode,
    ElementNode,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xml.expat_parser import parse_document_expat
from repro.xml.parser import parse_document, parse_document_python
from repro.xml.serializer import serialize

SCALES = {
    "sf-small": XMarkConfig(persons=25, closed_auctions=120, open_auctions=12),
    "sf-medium": XMarkConfig(persons=50, closed_auctions=300, open_auctions=30),
    "sf-large": XMarkConfig(persons=100, closed_auctions=600, open_auctions=60),
}
LARGEST = "sf-large"
BASELINE_RUNS = 3


def encoding_plane(document):
    """The full structural encoding: (kind, serial, size, level) rows in
    document order, attributes included — byte-identical across parsers
    means these (and names/values) match exactly."""
    rows = []
    stack = [document]
    while stack:
        node = stack.pop()
        rows.append((type(node).__name__, node.order_key[1], node.size,
                     node.level, getattr(node, "name", None),
                     getattr(node, "content", None)))
        if isinstance(node, ElementNode):
            for attribute in node.attributes:
                rows.append(("Attribute", attribute.order_key[1], 0,
                             attribute.level, attribute.name,
                             attribute.value))
            stack.extend(reversed(node.children))
        elif isinstance(node, DocumentNode):
            stack.extend(reversed(node.children))
    return rows


@pytest.mark.parametrize("scale", list(SCALES))
def test_cold_parse_speedup(benchmark, report, scale):
    text = generate_auctions(SCALES[scale])

    # Best-of-N pure-python baseline (the slow side).
    baseline_seconds = float("inf")
    python_doc = None
    for _ in range(BASELINE_RUNS):
        started = time.perf_counter()
        python_doc = parse_document_python(text, uri="auctions.xml")
        baseline_seconds = min(baseline_seconds,
                               time.perf_counter() - started)

    expat_docs = []

    def parse_expat():
        document = parse_document_expat(text, uri="auctions.xml")
        expat_docs.append(document)
        return document

    benchmark.pedantic(parse_expat, rounds=10, iterations=1)
    expat_seconds = benchmark.stats.stats.min

    # Byte-identical encodings: pre/size/level planes + order keys.
    assert encoding_plane(expat_docs[0]) == encoding_plane(python_doc)

    speedup = baseline_seconds / max(expat_seconds, 1e-9)
    mb = len(text.encode("utf-8")) / 1e6
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["document_mb"] = round(mb, 3)
    benchmark.extra_info["python_ms"] = round(baseline_seconds * 1000, 3)
    benchmark.extra_info["expat_ms"] = round(expat_seconds * 1000, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    report(f"parse frontend [{scale:9s}] {mb:6.3f} MB  "
           f"python {baseline_seconds * 1000:8.2f} ms -> "
           f"expat {expat_seconds * 1000:7.2f} ms  ({speedup:5.2f}x)")

    # Acceptance floor (ISSUE 7): >= 5x cold parse at the largest scale.
    if scale == LARGEST:
        assert speedup >= 5.0, speedup


def test_serializer_wire_fast_path(benchmark, report):
    """The mirror-image pass: wire serialization of the parsed tree."""
    text = generate_auctions(SCALES[LARGEST])
    document = parse_document(text, uri="auctions.xml")

    benchmark.pedantic(serialize, args=(document,), rounds=10, iterations=1)
    wire_seconds = benchmark.stats.stats.min

    # Round-trip sanity: reparsing the output reproduces the encoding.
    output = serialize(document)
    assert encoding_plane(parse_document(output)) \
        == encoding_plane(parse_document(text))

    benchmark.extra_info["wire_ms"] = round(wire_seconds * 1000, 3)
    report(f"serialize wire [{LARGEST:9s}] "
           f"{len(output.encode()) / 1e6:6.3f} MB  "
           f"{wire_seconds * 1000:7.2f} ms")
