"""Benchmark: loop-lifted path pushdown vs the interpreter fallback.

Queries mixing FLWOR iteration with path steps now compile through
:class:`~repro.pathfinder.LoopLiftingCompiler` to algebra plans whose
axis steps are staircase-pruned window scans over the
``StructuralIndex`` pre/size/level columns — one set-at-a-time scan per
step across *all* iterations.  The fallback is the tree interpreter,
which re-enters the path for every FLWOR binding; with the accelerator
ablated (``accelerator=False``) it pays the full per-node walking tax
these queries paid before the pushdown landed.

Run standalone (CI uploads the JSON):

    PYTHONPATH=src python -m pytest -q -rA \
        benchmarks/bench_pathfinder_pushdown.py \
        --benchmark-json=BENCH_pathfinder_pushdown.json
"""

import gc
import time

import pytest

from repro.pathfinder import LoopLiftedQuery
from repro.workloads.xmark import XMarkConfig, generate_auctions, generate_persons
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

# Path-heavy shapes over the XMark documents: a bulk scan, a FLWOR that
# re-enters a path per binding (the loop-lifting win: the lifted plan
# runs each step once, set-at-a-time, across all iterations), and a
# predicate selection.
QUERIES = {
    "descendant-scan": "doc('auctions.xml')//closed_auction/price",
    "flwor-paths": "for $ca in doc('auctions.xml')//closed_auction "
                   "return $ca/annotation/description/text",
    # A non-equality predicate: the engine's equality value index (the
    # Saxon-style hash-join probe) covers [x = v] in *both* modes, so an
    # inequality is what actually measures predicate pushdown.
    "predicate-select": "doc('auctions.xml')"
                        "//closed_auction[price > 400]/itemref/@item",
}

_documents = {}


def _resolver(scale: str):
    if scale not in _documents:
        config = SCALES[scale]
        _documents[scale] = {
            "persons.xml": parse_document(generate_persons(config),
                                          uri="persons.xml"),
            "auctions.xml": parse_document(generate_auctions(config),
                                           uri="auctions.xml"),
        }
    return _documents[scale].get


def _timed_lifted(query: str, resolver) -> tuple[float, list]:
    started = time.perf_counter()
    result = LoopLiftedQuery(query, doc_resolver=resolver).run()
    return time.perf_counter() - started, result


def _timed_interpreter(query: str, resolver,
                       accelerator: bool) -> tuple[float, list]:
    started = time.perf_counter()
    result, _ = CompiledQuery(query).run(ExecutionContext(
        doc_resolver=resolver, accelerator=accelerator))
    return time.perf_counter() - started, result


@pytest.mark.parametrize("scale", list(SCALES))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_pushdown_speedup(benchmark, report, scale, shape):
    query = QUERIES[shape]
    resolver = _resolver(scale)

    # Warm all paths (structural index, plan shapes); results must be
    # identical between the lifted plan and both interpreter modes.
    _, warm_lifted = _timed_lifted(query, resolver)
    _, warm_interp = _timed_interpreter(query, resolver, True)
    _, warm_naive = _timed_interpreter(query, resolver, False)
    assert serialize_sequence(warm_lifted) == serialize_sequence(warm_interp)
    assert serialize_sequence(warm_lifted) == serialize_sequence(warm_naive)

    # Best-of-5 on all sides (with a GC sweep first) keeps the asserted
    # ratio robust against one-off scheduler/GC stalls on shared CI
    # runners and against allocation pressure from earlier tests.
    gc.collect()
    fallback_seconds = min(_timed_interpreter(query, resolver, False)[0]
                           for _ in range(5))
    interp_seconds = min(_timed_interpreter(query, resolver, True)[0]
                         for _ in range(5))
    gc.collect()
    benchmark.pedantic(_timed_lifted, args=(query, resolver),
                       rounds=5, iterations=1)
    lifted_seconds = benchmark.stats.stats.min
    speedup = fallback_seconds / max(lifted_seconds, 1e-9)
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["fallback_ms"] = round(fallback_seconds * 1000, 3)
    benchmark.extra_info["interp_accel_ms"] = round(interp_seconds * 1000, 3)
    benchmark.extra_info["lifted_ms"] = round(lifted_seconds * 1000, 3)
    benchmark.extra_info["speedup_vs_fallback"] = round(speedup, 1)
    report(f"path pushdown [{scale:9s}] {shape:16s} "
           f"fallback {fallback_seconds * 1000:9.2f} ms -> "
           f"lifted {lifted_seconds * 1000:7.2f} ms  ({speedup:8.1f}x)")

    # Acceptance floor: lifted path steps beat the interpreter fallback
    # at the largest scale factor.  Bulk scans win big (window scans vs
    # full walks); per-iteration FLWOR/predicate shapes win on constant
    # factors (batched set-at-a-time scans vs per-binding re-entry), so
    # their floors are deliberately conservative for noisy CI runners.
    if scale == LARGEST:
        floors = {"descendant-scan": 1.5, "flwor-paths": 1.02,
                  "predicate-select": 1.1}
        assert speedup >= floors[shape], (shape, speedup)


# -- per-axis microbench: the closed lifted core ---------------------------
#
# One query per newly lifted axis (plus the positional-predicate
# shapes), measured exactly like the pushdown shapes above: the lifted
# window kernel vs the naive per-node interpreter baseline those
# queries fell back to before the core closed.  ``following`` /
# ``preceding`` carry the hard >=2x acceptance floor at sf-large — the
# staircase boundary windows vs a whole-document walk per context node.
AXIS_QUERIES = {
    "ancestor": "doc('persons.xml')//city/ancestor::person/name",
    "ancestor-or-self": "doc('persons.xml')//city/ancestor-or-self::*",
    "following": "doc('auctions.xml')//seller/following::price",
    "preceding": "doc('auctions.xml')//price/preceding::seller",
    "following-sibling":
        "doc('auctions.xml')//seller/following-sibling::itemref",
    "preceding-sibling":
        "doc('auctions.xml')//itemref/preceding-sibling::seller",
    "positional-literal": "doc('auctions.xml')//closed_auction/*[2]",
    "positional-last": "doc('auctions.xml')//closed_auction/*[last()]",
}

AXIS_FLOORS = {
    "ancestor": 1.2,
    "ancestor-or-self": 1.2,
    "following": 2.0,
    "preceding": 2.0,
    "following-sibling": 1.2,
    "preceding-sibling": 1.2,
    "positional-literal": 1.02,
    "positional-last": 1.02,
}


@pytest.mark.parametrize("axis", list(AXIS_QUERIES))
def test_axis_kernel_speedup(benchmark, report, axis):
    scale = LARGEST
    query = AXIS_QUERIES[axis]
    resolver = _resolver(scale)

    _, warm_lifted = _timed_lifted(query, resolver)
    _, warm_interp = _timed_interpreter(query, resolver, True)
    _, warm_naive = _timed_interpreter(query, resolver, False)
    assert serialize_sequence(warm_lifted) == serialize_sequence(warm_interp)
    assert serialize_sequence(warm_lifted) == serialize_sequence(warm_naive)

    gc.collect()
    fallback_seconds = min(_timed_interpreter(query, resolver, False)[0]
                           for _ in range(5))
    interp_seconds = min(_timed_interpreter(query, resolver, True)[0]
                         for _ in range(5))
    gc.collect()
    benchmark.pedantic(_timed_lifted, args=(query, resolver),
                       rounds=5, iterations=1)
    lifted_seconds = benchmark.stats.stats.min
    speedup = fallback_seconds / max(lifted_seconds, 1e-9)
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["axis"] = axis
    benchmark.extra_info["fallback_ms"] = round(fallback_seconds * 1000, 3)
    benchmark.extra_info["interp_accel_ms"] = round(interp_seconds * 1000, 3)
    benchmark.extra_info["lifted_ms"] = round(lifted_seconds * 1000, 3)
    benchmark.extra_info["speedup_vs_fallback"] = round(speedup, 1)
    report(f"axis kernel   [{scale:9s}] {axis:18s} "
           f"fallback {fallback_seconds * 1000:9.2f} ms -> "
           f"lifted {lifted_seconds * 1000:7.2f} ms  ({speedup:8.1f}x)")
    assert speedup >= AXIS_FLOORS[axis], (axis, speedup)


def test_read_suite_fully_lifted(report):
    """Coverage gate: every XMark read-suite query runs ``plan ==
    "lifted"`` with no recorded fallback — a bench-side tripwire so a
    kernel regression shows up in CI even before the speedup floors."""
    from repro.engine.base import Engine
    from repro.workloads.xmark import READ_SUITE
    from repro.xquery.context import ExecutionContext

    resolver = _resolver("sf-small")
    engine = Engine()
    for name, query in READ_SUITE.items():
        result, explain = engine.execute(
            query, ExecutionContext(doc_resolver=resolver))
        assert explain.plan == "lifted", (name, explain.fallback_reason)
        assert explain.fallback_reason is None
        assert result, f"read-suite query unexpectedly empty: {name}"
    assert engine.fallback_stats() == {}
    report(f"read suite: {len(READ_SUITE)}/{len(READ_SUITE)} queries lifted, "
           "0 fallbacks")
