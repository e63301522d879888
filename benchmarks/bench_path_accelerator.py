"""Benchmark: XPath-accelerator axis evaluation vs the naive walkers.

``Engine(accelerator=True)`` maps whole context sequences through an
axis as window scans over the per-tree pre array (staircase pruning,
tag-partitioned name tests); ``accelerator=False`` is the reference
implementation — per context node, recursive generators plus a
document-order sort.  Both must return identical results; the
accelerated path must win by a wide margin on the descendant- and
following-heavy shapes that dominate XMark path queries.

Run standalone (CI uploads the JSON):

    PYTHONPATH=src python -m pytest -q -rA \
        benchmarks/bench_path_accelerator.py \
        --benchmark-json=BENCH_path_accelerator.json
"""

import time

import pytest

from repro.workloads.xmark import XMarkConfig, generate_auctions
from repro.xml import parse_document
from repro.xml.serializer import serialize_sequence
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery

SCALES = {
    "sf-small": XMarkConfig(persons=25, closed_auctions=120, open_auctions=12),
    "sf-medium": XMarkConfig(persons=50, closed_auctions=300, open_auctions=30),
    "sf-large": XMarkConfig(persons=100, closed_auctions=600, open_auctions=60),
}
LARGEST = "sf-large"

QUERIES = {
    "descendant": "count(doc('auctions.xml')//annotation)",
    "descendant-name": "doc('auctions.xml')//closed_auction"
                       "[buyer/@person = 'person0']/price",
    "following": "count(doc('auctions.xml')//buyer/following::itemref)",
    "preceding": "count(doc('auctions.xml')"
                 "//open_auction/preceding::closed_auction)",
}

_documents = {}


def _resolver(scale: str):
    if scale not in _documents:
        _documents[scale] = parse_document(
            generate_auctions(SCALES[scale]), uri="auctions.xml")
    document = _documents[scale]
    return {"auctions.xml": document}.get


def _timed(query: str, resolver, accelerator: bool) -> tuple[float, list]:
    started = time.perf_counter()
    result, _ = CompiledQuery(query).run(ExecutionContext(
        doc_resolver=resolver, accelerator=accelerator))
    return time.perf_counter() - started, result


@pytest.mark.parametrize("scale", list(SCALES))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_accelerator_speedup(benchmark, report, scale, shape):
    query = QUERIES[shape]
    resolver = _resolver(scale)

    # Warm both paths once (structural index build, plan shapes), then
    # measure; results must be identical in both modes.
    _, warm_accel = _timed(query, resolver, True)
    _, warm_naive = _timed(query, resolver, False)
    assert serialize_sequence(warm_accel) == serialize_sequence(warm_naive)

    # Best-of-3 on both sides keeps the asserted ratio robust against
    # one-off scheduler/GC stalls on shared CI runners.
    naive_seconds = min(_timed(query, resolver, False)[0] for _ in range(3))
    benchmark.pedantic(_timed, args=(query, resolver, True),
                       rounds=3, iterations=1)
    accel_seconds = benchmark.stats.stats.min
    speedup = naive_seconds / max(accel_seconds, 1e-9)
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["naive_ms"] = round(naive_seconds * 1000, 3)
    benchmark.extra_info["accel_ms"] = round(accel_seconds * 1000, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    report(f"path accelerator [{scale:9s}] {shape:15s} "
           f"naive {naive_seconds * 1000:9.2f} ms -> "
           f"accel {accel_seconds * 1000:7.2f} ms  ({speedup:8.1f}x)")

    # Acceptance floor: >= 5x on descendant/following-heavy queries at
    # the largest scale factor (measured margins are far larger).
    if scale == LARGEST and shape in ("descendant", "following", "preceding"):
        assert speedup >= 5.0, (shape, speedup)
