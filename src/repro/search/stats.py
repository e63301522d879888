"""Keyword-search telemetry counters (see :mod:`repro.obs`).

``term_index_builds`` — full :class:`~repro.search.index.TermIndex`
(re)builds (the satellite assertion "postings survive interleaved PULs
un-rebuilt" checks this stays flat across updates);
``postings_built`` — (term, serial) postings materialized by full
builds; ``postings_patched`` — postings added or removed by the
incremental PUL hooks; ``search_queries`` — posting-list query plans
served (lifted ``contains`` filters + ``Database.search`` calls);
``postings_hits`` — results those plans surfaced.
"""

from __future__ import annotations

from repro.obs import Counters

SEARCH_STATS = Counters("term_index_builds", "postings_built",
                        "postings_patched", "search_queries", "postings_hits")
