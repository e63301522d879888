"""Engine profiles wrapping the XQuery evaluator."""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis import QueryProperties, analyze_compiled
from repro.obs import tally
from repro.xquery.context import ExecutionContext
from repro.xquery.evaluator import CompiledQuery
from repro.xquery.modules import ModuleRegistry

#: Default bound of the per-engine plan cache.  Large enough that any of
#: the paper's workloads fit entirely; small enough that a multi-user
#: peer serving millions of distinct ad-hoc query texts cannot grow the
#: cache without bound.
DEFAULT_PLAN_CACHE_SIZE = 256


@dataclass
class Explain:
    """Telemetry of one execution through the unified entry point.

    ``plan`` is the pipeline that produced the result (``"lifted"`` for
    the Pathfinder loop-lifted relational plan, ``"interpreter"`` for
    the tree-walking fallback); ``fallback_reason`` is the
    ``UnsupportedExpression`` message — uniformly naming the offending
    AST node type — when a lifted attempt bailed, and ``None`` when the
    plan ran lifted or lifting was disabled by the caller.
    ``fallback_code`` is the matching stable code (see
    :class:`~repro.pathfinder.compiler.UnsupportedExpression`) — the
    key the engine's per-reason fallback histogram counts under.

    ``counters`` is the execution's :func:`~repro.obs.tally`: every
    counter bumped while it ran, by field name (a missing name reads
    0).  The groups are :data:`~repro.xdm.structural.ENCODING_STATS`
    (what the update path cost: a splice on the O(change) fast path
    counts under ``reencodes_subtree`` + ``index_patches``, while
    ``reencodes_full`` flags the whole-tree fallback),
    :data:`~repro.xml.parser.PARSE_STATS` (documents the parse frontend
    built — fn:doc on cold URIs, Bulk RPC replies — and expat-to-python
    fallbacks), :data:`~repro.search.stats.SEARCH_STATS` (postings
    built versus patched, posting-list plans served and their hits) and
    :data:`~repro.net.retry.NET_STATS` (what the retry, breaker,
    deadline and partial-results machinery did).  Work a remote peer
    did for this execution is charged to that peer, whatever the
    transport.
    """

    plan: str
    fallback_reason: Optional[str]
    compile_seconds: float
    execute_seconds: float
    cache_hit: bool
    fallback_code: Optional[str] = None
    counters: Counter[str] = field(default_factory=Counter)
    #: The prepare-time static analysis report (liftability prediction,
    #: updating-ness, site profile, semantic diagnostics) — memoized on
    #: the compiled query, so a plan-cache hit reattaches it for free.
    analysis: Optional[QueryProperties] = None

    def render(self) -> str:
        """Human-readable one-paragraph form (the CLI's --explain)."""
        lines = [f"plan: {self.plan}"]
        if self.fallback_reason:
            code = f" [{self.fallback_code}]" if self.fallback_code else ""
            lines.append(f"fallback: {self.fallback_reason}{code}")
        if self.analysis is not None:
            lines.append(self.analysis.render())
        lines.append(f"plan cache: {'hit' if self.cache_hit else 'miss'}")
        lines.append(f"compile: {self.compile_seconds * 1000.0:.3f} ms")
        lines.append(f"execute: {self.execute_seconds * 1000.0:.3f} ms")
        counts = self.counters
        groups = (
            ("updates", (("reencode full", counts["reencodes_full"]),
                         ("subtree", counts["reencodes_subtree"]),
                         ("respreads", counts["gap_respreads"]),
                         ("index patches", counts["index_patches"]))),
            ("parse", (("documents", counts["documents_expat"]
                        + counts["documents_python"]),
                       ("fallbacks", counts["fallbacks_to_python"]))),
            ("search", (("postings built", counts["postings_built"]),
                        ("patched", counts["postings_patched"]),
                        ("queries", counts["search_queries"]),
                        ("hits", counts["postings_hits"]))),
            ("net", (("retries", counts["retries"]),
                     ("giveups", counts["retry_giveups"]),
                     ("breaker opens", counts["breaker_opens"]),
                     ("fast fails", counts["breaker_fast_fails"]),
                     ("deadline expired", counts["deadline_expired"]),
                     ("degraded peers", counts["degraded_peers"]))),
        )
        for title, items in groups:
            if any(value for _, value in items):
                lines.append(f"{title}: " + " ".join(
                    f"{label}={value}" for label, value in items))
        return "\n".join(lines)


class Engine:
    """Base engine: compiles queries, optionally caching plans.

    ``execute`` is the single query-service surface: compile through the
    (bounded, thread-safe) plan cache, try the loop-lifted relational
    plan, fall back to the tree interpreter with recorded telemetry.
    :class:`~repro.session.Database` and :class:`~repro.rpc.XRPCPeer`
    both route through it.

    Parameters
    ----------
    registry:
        Module registry resolving ``import module`` statements.
    plan_cache:
        Cache compiled queries by source text (prepared-query behaviour).
    plan_cache_size:
        Bound of the plan cache (LRU eviction); ``None`` means unbounded.
    function_cache:
        Remember which remote-callable functions already have a
        translated plan; the XRPC server consults this to decide whether
        to charge module-translation cost for a request (Table 2).
    bulk_rpc:
        Ship loop-lifted ``execute at`` calls as Bulk RPC messages.
    accelerator:
        Evaluate path steps set-at-a-time over the XPath-accelerator
        structural index (pre/size/level window scans with staircase
        pruning).  ``False`` falls back to the naive per-node axis
        walkers — the reference implementation, kept for ablations like
        ``bulk_rpc``.
    """

    name = "generic"

    def __init__(self, registry: Optional[ModuleRegistry] = None,
                 plan_cache: bool = True, function_cache: bool = True,
                 bulk_rpc: bool = True, optimize_flwor_joins: bool = True,
                 accelerator: bool = True,
                 plan_cache_size: Optional[int] = DEFAULT_PLAN_CACHE_SIZE,
                 ) -> None:
        self.registry = registry or ModuleRegistry()
        self.plan_cache_enabled = plan_cache
        self.plan_cache_size = plan_cache_size
        self.function_cache_enabled = function_cache
        self.bulk_rpc = bulk_rpc
        self.optimize_flwor_joins = optimize_flwor_joins
        self.accelerator = accelerator
        self._plan_cache: OrderedDict[str, CompiledQuery] = OrderedDict()
        self._function_cache: set[tuple[str, str, int]] = set()
        # compile() and the function cache may be hit concurrently (the
        # HTTP daemon is threaded; Database.prepare is documented
        # thread-safe), so cache mutation is serialized.  Parsing itself
        # runs outside the lock — concurrent misses on the same source
        # compile twice and the last insert wins, which is harmless.
        self._cache_lock = threading.Lock()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Per-reason fallback histogram (stable UnsupportedExpression
        # codes -> count), so retired fallbacks are visible one by one.
        self._fallback_counts: dict[str, int] = {}

    def compile(self, source: str) -> CompiledQuery:
        compiled, _, _ = self.compile_with_stats(source)
        return compiled

    def compile_with_stats(self, source: str,
                           ) -> tuple[CompiledQuery, float, bool]:
        """Compile through the plan cache; returns
        ``(compiled, compile_seconds, cache_hit)``.

        The stats come back as return values so concurrent compiles
        cannot report each other's numbers.
        """
        if self.plan_cache_enabled:
            with self._cache_lock:
                cached = self._plan_cache.get(source)
                if cached is not None:
                    self._plan_cache.move_to_end(source)
                    self.plan_cache_hits += 1
                    return cached, 0.0, True
                self.plan_cache_misses += 1
        started = time.perf_counter()
        compiled = CompiledQuery(source, self.registry)
        compile_seconds = time.perf_counter() - started
        if self.plan_cache_enabled:
            with self._cache_lock:
                self._plan_cache[source] = compiled
                self._plan_cache.move_to_end(source)
                if self.plan_cache_size is not None:
                    while len(self._plan_cache) > self.plan_cache_size:
                        self._plan_cache.popitem(last=False)
        return compiled, compile_seconds, False

    # -- the unified prepare/execute surface --------------------------------

    def execute(self, source: str,
                context: Optional[ExecutionContext] = None,
                ) -> tuple[list, Explain]:
        """Run a query through the lifted pipeline with interpreter
        fallback; returns ``(result, Explain)``.

        The compiled query comes from the shared plan cache, and the
        lifted pipeline statically preflights the AST, so
        statically-unsupported queries fall back before any ``execute
        at`` ships; a *dynamic* bail (runtime positional predicate,
        non-node path item) can still occur mid-plan, so route queries
        with updating remote calls to the interpreter directly
        (``context.try_lifted = False``) if that matters.

        ``context.dispatch`` serves the lifted plan's Bulk RPC shipping;
        ``context.xrpc_handler`` serves ``execute at`` on the
        interpreter fallback (the two layers' contracts differ, see
        :class:`~repro.xquery.context.RemoteCall`).  The attempt and its
        outcome are returned as the :class:`Explain`.
        """
        # A missing context inherits the engine's own configuration.
        options = context if context is not None else ExecutionContext(
            accelerator=self.accelerator,
            optimize_joins=self.optimize_flwor_joins)
        compiled, compile_seconds, cache_hit = self.compile_with_stats(source)
        analysis = self.analyze(compiled, options)
        started = time.perf_counter()
        with tally() as counts:
            plan, fallback_reason, fallback_code = "interpreter", None, None
            if options.try_lifted:
                result, fallback_reason, fallback_code = self.attempt_lifted(
                    source, compiled, options)
                if fallback_reason is None:
                    plan = "lifted"
            self.record_plan(plan, fallback_reason, fallback_code)
            if plan == "interpreter":
                result, pul = compiled.run(options)
                if pul and options.apply_updates:
                    from repro.xquf.pul import apply_updates
                    apply_updates(pul)
        return result, Explain(
            plan=plan, fallback_reason=fallback_reason,
            compile_seconds=compile_seconds,
            execute_seconds=time.perf_counter() - started,
            cache_hit=cache_hit, fallback_code=fallback_code,
            counters=counts, analysis=analysis)

    def analyze(self, compiled: CompiledQuery,
                context: Optional[ExecutionContext] = None,
                ) -> QueryProperties:
        """The static analysis report for *compiled* under *context*'s
        capabilities — the same call :meth:`execute` makes, so callers
        (the peer's router, ``repro check``) see exactly the properties
        execution will act on.  Memoized on the compiled query."""
        options = context if context is not None else ExecutionContext(
            accelerator=self.accelerator,
            optimize_joins=self.optimize_flwor_joins)
        return analyze_compiled(
            compiled,
            has_dispatch=options.dispatch is not None,
            has_doc_resolver=options.doc_resolver is not None,
            variables=set(options.variables or {}),
            context_item=options.context_item is not None)

    def attempt_lifted(self, source: str, compiled: CompiledQuery,
                       context: ExecutionContext,
                       ) -> tuple[Optional[list], Optional[str], Optional[str]]:
        """One lifted-plan attempt: ``(result, None, None)`` on success,
        ``(None, fallback_reason, fallback_code)`` when the query is
        outside the lifted core — shared by :meth:`execute` and the
        peer's originating path, so fallback handling cannot drift
        between them."""
        from repro.pathfinder import LoopLiftedQuery, UnsupportedExpression

        try:
            query = LoopLiftedQuery(source, compiled=compiled,
                                    context=context)
            return query.run(context=context), None, None
        except UnsupportedExpression as unsupported:
            return None, str(unsupported), unsupported.code

    def record_plan(self, plan: str, fallback_reason: Optional[str],
                    fallback_code: Optional[str] = None) -> None:
        """Count one plan choice: bump the per-code fallback histogram
        when a lifted attempt bailed (the per-execution outcome travels
        in :class:`Explain` / ``QueryResult``)."""
        if plan == "interpreter" and fallback_reason is not None:
            code = fallback_code or "uncoded"
            with self._cache_lock:
                self._fallback_counts[code] = \
                    self._fallback_counts.get(code, 0) + 1

    # -- function cache (server-side plan cache per remote function) -------

    def function_cache_lookup(self, key: tuple[str, str, int]) -> bool:
        with self._cache_lock:
            return self.function_cache_enabled and key in self._function_cache

    def function_cache_store(self, key: tuple[str, str, int]) -> None:
        if self.function_cache_enabled:
            with self._cache_lock:
                self._function_cache.add(key)

    def clear_caches(self) -> None:
        with self._cache_lock:
            self._plan_cache.clear()
            self._function_cache.clear()

    def fallback_stats(self) -> dict:
        """Per-reason fallback histogram: stable code -> count of lifted
        attempts that bailed with it since engine construction."""
        with self._cache_lock:
            return dict(self._fallback_counts)

    def cache_stats(self) -> dict:
        """Plan/function cache counters (surfaced by Database.stats())."""
        with self._cache_lock:
            return {
                "plan_cache_hits": self.plan_cache_hits,
                "plan_cache_misses": self.plan_cache_misses,
                "plan_cache_entries": len(self._plan_cache),
                "plan_cache_size": self.plan_cache_size,
                "function_cache_entries": len(self._function_cache),
            }


class MonetEngine(Engine):
    """MonetDB/XQuery profile: function cache + Bulk RPC by default."""

    name = "monetdb-xquery"

    def __init__(self, registry: Optional[ModuleRegistry] = None,
                 function_cache: bool = True, bulk_rpc: bool = True,
                 accelerator: bool = True) -> None:
        super().__init__(registry, plan_cache=function_cache,
                         function_cache=function_cache, bulk_rpc=bulk_rpc,
                         accelerator=accelerator)


class TreeEngine(Engine):
    """Saxon profile: recompiles everything, no native bulk shipping."""

    name = "saxon-like"

    def __init__(self, registry: Optional[ModuleRegistry] = None,
                 accelerator: bool = True) -> None:
        # No FLWOR join optimization: the paper-era Saxon only detected
        # the predicate-index join (Table 3's getPerson), which both
        # engines get via the evaluator's equality-predicate index.
        # (Saxon's TinyTree gives it fast axes of its own, so the
        # structural accelerator stays on by default here too.)
        super().__init__(registry, plan_cache=False, function_cache=False,
                         bulk_rpc=False, optimize_flwor_joins=False,
                         accelerator=accelerator)
