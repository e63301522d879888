"""XMark read-suite coverage: 100% lifted, interpreter-identical.

The acceptance gate for the closed lifted core: every query in
:data:`repro.workloads.xmark.READ_SUITE` must execute with ``plan ==
"lifted"`` and no fallback, and return exactly the interpreter's
sequence — across accelerator on/off and gapped/dense pre-plane
encodings.  A query that starts recording a fallback fails here, so a
regression in any window kernel is visible per axis.
"""

import pytest

from repro.engine.base import Engine
from repro.workloads.xmark import (
    READ_SUITE,
    XMarkConfig,
    generate_auctions,
    generate_persons,
)
from repro.xdm.nodes import Node
from repro.xml import parse_document
from repro.xml.serializer import serialize_sequence
from repro.xquery.context import ExecutionContext
from tests.helpers import densify, interpret

CONFIG = XMarkConfig(persons=10, closed_auctions=20, open_auctions=5,
                     matches=3)


@pytest.fixture(scope="module", params=[False, True], ids=["gapped", "dense"])
def resolver(request):
    # "dense": keys packed unevenly by in-gap inserts, so no kernel may
    # rely on the parsers' KEY_STRIDE spacing.
    documents = {
        "persons.xml": parse_document(generate_persons(CONFIG),
                                      uri="persons.xml"),
        "auctions.xml": parse_document(generate_auctions(CONFIG),
                                       uri="auctions.xml"),
    }
    if request.param:
        for document in documents.values():
            densify(document)
    return documents.get


@pytest.mark.parametrize("accelerator", [True, False],
                         ids=["accel", "naive"])
@pytest.mark.parametrize("name", sorted(READ_SUITE))
def test_read_suite_runs_lifted(resolver, name, accelerator):
    query = READ_SUITE[name]
    engine = Engine(accelerator=accelerator)
    result, explain = engine.execute(query, ExecutionContext(
        doc_resolver=resolver, accelerator=accelerator))
    assert explain.plan == "lifted", (name, explain.fallback_reason)
    assert explain.fallback_reason is None
    assert explain.fallback_code is None
    assert engine.fallback_stats() == {}
    interpreted = interpret(query, doc_resolver=resolver,
                            accelerator=accelerator)
    assert len(result) == len(interpreted)
    for left, right in zip(result, interpreted):
        if isinstance(left, Node) or isinstance(right, Node):
            assert left is right  # node identity, not just equal text
    assert serialize_sequence(result) == serialize_sequence(interpreted)
    assert result, f"read-suite query unexpectedly empty: {name}"
