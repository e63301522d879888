"""Engine profiles wrapping the XQuery evaluator."""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.analysis import QueryProperties, analyze_compiled
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

    ``reencodes_full`` / ``reencodes_subtree`` / ``gap_respreads`` /
    ``index_patches`` are *this execution's* deltas of the
    :data:`~repro.xdm.structural.ENCODING_STATS` counters (taken
    against the executing thread's totals, so concurrent executions
    never attribute each other's work) — what the update path actually
    cost: a splice that stayed on the O(change) fast path counts under
    ``reencodes_subtree`` + ``index_patches``, while ``reencodes_full``
    flags the whole-tree fallback.

    ``documents_parsed`` / ``parse_fallbacks`` are the same per-thread
    delta discipline over :data:`~repro.xml.stats.PARSE_STATS`: how many
    documents the parse frontend built during this execution (fn:doc on
    cold URIs, shipped Bulk RPC messages) and how many of those fell
    back from expat to the pure-python parser.

    ``postings_built`` / ``postings_patched`` / ``search_queries`` /
    ``postings_hits`` are the keyword-search deltas
    (:data:`~repro.search.stats.SEARCH_STATS`): term postings
    materialized by full :class:`~repro.search.index.TermIndex` builds
    versus maintained incrementally by the PUL hooks, posting-list
    query plans served (lifted ``contains`` prefilters), and the
    results they surfaced.

    ``net_retries`` / ``net_giveups`` / ``net_breaker_opens`` /
    ``net_breaker_fast_fails`` / ``net_deadline_expired`` /
    ``net_degraded_peers`` are the fault-tolerance deltas
    (:data:`~repro.net.retry.NET_STATS`): what the retry/backoff,
    circuit-breaker, deadline, and partial-results machinery did while
    this execution's exchanges were in flight.
    """

    plan: str
    fallback_reason: Optional[str]
    compile_seconds: float
    execute_seconds: float
    cache_hit: bool
    fallback_code: Optional[str] = None
    reencodes_full: int = 0
    reencodes_subtree: int = 0
    gap_respreads: int = 0
    index_patches: int = 0
    documents_parsed: int = 0
    parse_fallbacks: int = 0
    postings_built: int = 0
    postings_patched: int = 0
    search_queries: int = 0
    postings_hits: int = 0
    net_retries: int = 0
    net_giveups: int = 0
    net_breaker_opens: int = 0
    net_breaker_fast_fails: int = 0
    net_deadline_expired: int = 0
    net_degraded_peers: int = 0
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
        if (self.reencodes_full or self.reencodes_subtree
                or self.gap_respreads or self.index_patches):
            lines.append(
                "updates: "
                f"reencode full={self.reencodes_full} "
                f"subtree={self.reencodes_subtree} "
                f"respreads={self.gap_respreads} "
                f"index patches={self.index_patches}")
        if self.documents_parsed or self.parse_fallbacks:
            lines.append(
                "parse: "
                f"documents={self.documents_parsed} "
                f"fallbacks={self.parse_fallbacks}")
        if (self.postings_built or self.postings_patched
                or self.search_queries or self.postings_hits):
            lines.append(
                "search: "
                f"postings built={self.postings_built} "
                f"patched={self.postings_patched} "
                f"queries={self.search_queries} "
                f"hits={self.postings_hits}")
        if (self.net_retries or self.net_giveups or self.net_breaker_opens
                or self.net_breaker_fast_fails or self.net_deadline_expired
                or self.net_degraded_peers):
            lines.append(
                "net: "
                f"retries={self.net_retries} "
                f"giveups={self.net_giveups} "
                f"breaker opens={self.net_breaker_opens} "
                f"fast fails={self.net_breaker_fast_fails} "
                f"deadline expired={self.net_deadline_expired} "
                f"degraded peers={self.net_degraded_peers}")
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
        from repro.net.retry import NET_STATS
        from repro.search.stats import SEARCH_STATS
        from repro.xdm.structural import ENCODING_STATS
        from repro.xml.stats import PARSE_STATS

        # A missing context inherits the engine's own configuration.
        options = context if context is not None else ExecutionContext(
            accelerator=self.accelerator,
            optimize_joins=self.optimize_flwor_joins)
        compiled, compile_seconds, cache_hit = self.compile_with_stats(source)
        analysis = self.analyze(compiled, options)
        started = time.perf_counter()
        # Thread-local basis: concurrent executions must not attribute
        # each other's update costs (apply_updates runs synchronously on
        # this thread, so its bumps land in this thread's counters).
        encoding_before = ENCODING_STATS.snapshot_local()
        parse_before = PARSE_STATS.snapshot_local()
        search_before = SEARCH_STATS.snapshot_local()
        net_before = NET_STATS.snapshot_local()

        def update_deltas() -> dict:
            after = ENCODING_STATS.snapshot_local()
            deltas = {
                field: after[field] - encoding_before[field]
                for field in ("reencodes_full", "reencodes_subtree",
                              "gap_respreads", "index_patches")}
            parse_after = PARSE_STATS.snapshot_local()
            deltas["documents_parsed"] = (
                parse_after["documents_expat"]
                + parse_after["documents_python"]
                - parse_before["documents_expat"]
                - parse_before["documents_python"])
            deltas["parse_fallbacks"] = (
                parse_after["fallbacks_to_python"]
                - parse_before["fallbacks_to_python"])
            search_after = SEARCH_STATS.snapshot_local()
            for field in ("postings_built", "postings_patched",
                          "search_queries", "postings_hits"):
                deltas[field] = search_after[field] - search_before[field]
            net_after = NET_STATS.snapshot_local()
            for field, source in (("net_retries", "retries"),
                                  ("net_giveups", "retry_giveups"),
                                  ("net_breaker_opens", "breaker_opens"),
                                  ("net_breaker_fast_fails",
                                   "breaker_fast_fails"),
                                  ("net_deadline_expired",
                                   "deadline_expired"),
                                  ("net_degraded_peers", "degraded_peers")):
                deltas[field] = net_after[source] - net_before[source]
            return deltas

        fallback_reason = None
        fallback_code = None
        if options.try_lifted:
            result, fallback_reason, fallback_code = self.attempt_lifted(
                source, compiled, options)
            if fallback_reason is None:
                self.record_plan("lifted", None)
                return result, Explain(
                    plan="lifted", fallback_reason=None,
                    compile_seconds=compile_seconds,
                    execute_seconds=time.perf_counter() - started,
                    cache_hit=cache_hit, analysis=analysis,
                    **update_deltas())
        self.record_plan("interpreter", fallback_reason, fallback_code)
        result, pul = compiled.run(options)
        if pul and options.apply_updates:
            from repro.xquf.pul import apply_updates
            apply_updates(pul)
        return result, Explain(
            plan="interpreter", fallback_reason=fallback_reason,
            compile_seconds=compile_seconds,
            execute_seconds=time.perf_counter() - started,
            cache_hit=cache_hit, fallback_code=fallback_code,
            analysis=analysis, **update_deltas())

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
