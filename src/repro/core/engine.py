"""The XKeyword engine: the paper's query-processing pipeline (Figure 7).

``XKeyword.search`` runs the five stages end to end: keyword discoverer
(containing lists), CN generator, CTSSN reduction, optimizer, execution —
and materializes MTTONs.  Top-k queries use the paper's thread-pool
strategy: a thread per candidate network, smaller CNs first (they are
cheaper *and* produce higher-ranked results), all threads sharing a
global result budget of K.

CN generation and CTSSN reduction read only the schema, the schema
nodes each keyword hits and Z, so they run once per such signature and
are cached per engine (:mod:`repro.core.frontcache`).  So does each
CTSSN's plan shape (cover and join order) per anchor role.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Protocol, Sequence

from ..schema.tss import TSSGraph
from ..storage.decomposer import LoadedDatabase
from ..storage.relations import RelationStore
from ..storage.stmtcache import CompiledStatementCache
from ..trace import NULL_TRACE, NULL_TRACER, QueryTrace, Span
from .cn_generator import CandidateNetwork
from .ctssn import CTSSN
from .execution import (
    BACKEND_SQL,
    CTSSNExecutor,
    ExecutionMetrics,
    ExecutionObserver,
    ExecutorConfig,
    PrefixSpec,
    ResultCache,
    ShardPartition,
    SharedPrefixTable,
    TopKBound,
    assign_shared_prefixes,
    prefix_shapes,
    resolve_shards,
)
from .frontcache import (
    FrontHalfCache,
    PlanMemo,
    PlanShape,
    bind_ctssns,
    bind_networks,
    build_template,
    front_half_signature,
    template_networks,
)
from .matching import ContainingLists
from .optimizer import Optimizer
from .plans import ExecutionPlan
from .query import KeywordQuery
from .results import MTTON, materialize
from .sqlcompile import SQLCTSSNExecutor, render_sql
from .streaming import ResultStream, _StreamEmitter


@dataclass
class SearchResult:
    """Ranked results plus the metrics the experiments report."""

    query: KeywordQuery
    mttons: list[MTTON]
    metrics: ExecutionMetrics
    candidate_networks: list[CandidateNetwork] = field(default_factory=list)
    ctssns: list[CTSSN] = field(default_factory=list)
    trace: QueryTrace | None = None
    """The span tree recorded for this search, when a tracer was
    installed on the engine (see :mod:`repro.trace`); ``None`` otherwise."""
    relations_used: frozenset[str] = frozenset()
    """Connection relations the planned CNs read — the service cache
    keys staleness off these under live updates."""
    epoch: int = 0
    """The loaded database's mutation epoch when this search ran."""
    front_half_cache: str | None = None
    """``"hit"`` or ``"miss"`` in the engine's front-half cache (see
    :mod:`repro.core.frontcache`); ``None`` when the search ended at
    keyword matching."""

    def top(self, count: int) -> list[MTTON]:
        """First ``count`` ranked results."""
        return self.mttons[:count]

    def scores(self) -> list[int]:
        """MTNN sizes of the ranked results, best first."""
        return [mtton.score for mtton in self.mttons]

    def page(self, number: int, per_page: int = 10) -> list[MTTON]:
        """One page of results, web-search-engine style (Section 3.2:
        "output to the user page by page as in web search engine
        interfaces").  Pages are numbered from 1."""
        if number < 1:
            raise ValueError("pages are numbered from 1")
        start = (number - 1) * per_page
        return self.mttons[start:start + per_page]

    def page_count(self, per_page: int = 10) -> int:
        """Number of pages at the given page size (matches ``page``'s
        ``per_page`` argument, which a previous revision ignored)."""
        if per_page < 1:
            raise ValueError("per_page must be positive")
        return -(-len(self.mttons) // per_page)

    def grouped_by_candidate_network(self) -> dict[str, list[MTTON]]:
        """Results grouped per CN, the unit the presentation graphs use."""
        groups: dict[str, list[MTTON]] = {}
        for mtton in self.mttons:
            groups.setdefault(mtton.ctssn.canonical_key, []).append(mtton)
        return groups


@dataclass
class SearchHooks:
    """Lightweight engine instrumentation (the service layer's probe).

    Every field is optional; unset hooks cost one ``None`` check.  The
    engine never depends on what the callbacks do — they must not raise
    and must be thread-safe (``observer`` is shared by the per-CN
    thread pool).
    """

    on_search_start: Callable[[KeywordQuery], None] | None = None
    """Called when a search begins, before containing-list retrieval."""

    on_search_complete: Callable[[KeywordQuery, "SearchResult", float], None] | None = None
    """Called with the finished result and wall-clock seconds elapsed."""

    observer: ExecutionObserver | None = None
    """Passed to every executor; sees per-lookup and per-CN completion."""


class _FrontHalf(NamedTuple):
    """Stages 2-3 of one query, bound to its keywords."""

    networks: list[CandidateNetwork]
    ctssns: list[CTSSN]
    plan_memos: list[PlanMemo]
    """``plan_memos[i]`` is the template's plan memo for ``ctssns[i]``."""
    outcome: str
    """The front-half cache outcome, ``"hit"`` or ``"miss"``."""


class NetworkVerifier(Protocol):
    """Checks pipeline objects before execution (the ``debug_verify`` seam).

    The engine calls these on every generated CN, every reduced CTSSN and
    every plan when a verifier is installed; implementations raise on
    violation.  The concrete checker lives in
    :class:`repro.analysis.plans.DebugVerifier` — the protocol keeps the
    dependency pointing analysis -> core, never the reverse.
    """

    def check_cn(self, cn: CandidateNetwork, keywords: Sequence[str]) -> None:
        """Verify one candidate network against ``keywords``."""

    def check_ctssn(
        self, ctssn: CTSSN, keywords: Sequence[str], tss_graph: TSSGraph
    ) -> None:
        """Verify one candidate TSS network against its source CN."""

    def check_plan(
        self, plan: ExecutionPlan, stores: Mapping[str, RelationStore]
    ) -> None:
        """Verify one execution plan against its CTSSN."""

    def check_shared_prefix(self, plan: ExecutionPlan, prefix: PrefixSpec) -> None:
        """Verify a shared prefix is embeddable in the borrowing plan."""


class XKeyword:
    """Keyword proximity search over a loaded XML database."""

    def __init__(
        self,
        loaded: LoadedDatabase,
        store_priority: list[str] | None = None,
        executor_config: ExecutorConfig | None = None,
        threads: int = 4,
        hooks: SearchHooks | None = None,
        verifier: NetworkVerifier | None = None,
        tracer=None,
        statement_cache: CompiledStatementCache | None = None,
        shards: int | None = None,
    ) -> None:
        """
        Args:
            loaded: The load-stage output (database + indexes + stores).
            store_priority: Decomposition names, highest priority first;
                defaults to the load order.  The optimizer prefers
                relations from earlier stores.
            executor_config: Default execution switches.
            threads: Thread-pool width for top-k search.
            hooks: Optional instrumentation callbacks.
            verifier: Optional invariant checker run on every CN, CTSSN
                and plan before execution (``debug_verify`` mode); adds
                per-query overhead, so serving defaults to ``None``.
            tracer: Optional :class:`repro.trace.Tracer`; when set, every
                search records a span tree onto ``SearchResult.trace``
                (the EXPLAIN/``/debug/trace`` substrate).  ``None`` uses
                the null tracer — the identical code path at no-op cost.
            statement_cache: Compiled-SQL statement cache for the
                ``sql`` backend; the service passes one guarded by its
                mutation ``VersionVector``.  A private unguarded cache
                is created when omitted.
            shards: Scatter execution across this many logical shards of
                the target-object id space (one thread per shard, anchor
                seeds partitioned by :func:`~repro.core.execution.shard_of`;
                ranked results stay byte-identical to the unsharded run).
                ``None`` resolves from ``$REPRO_SHARDS``; 0/1 disable
                scattering.  Process-per-shard execution lives in
                :mod:`repro.sharding`.
        """
        self.loaded = loaded
        names = store_priority or list(loaded.stores)
        self.stores = {name: loaded.store(name) for name in names}
        self.executor_config = executor_config or ExecutorConfig()
        self.threads = max(1, threads)
        self.shards = resolve_shards(shards)
        self.hooks = hooks or SearchHooks()
        self.verifier = verifier
        self.tracer = tracer or NULL_TRACER
        self.optimizer = Optimizer(self.stores, loaded.statistics)
        self.statement_cache = statement_cache or CompiledStatementCache()
        self.front_half_cache = FrontHalfCache()

    # ------------------------------------------------------------------
    # Pipeline stages, individually exposed for tests and examples
    # ------------------------------------------------------------------
    def containing_lists(self, query: KeywordQuery) -> ContainingLists:
        """Stage 1 (Fig 7): keyword matching against the master index."""
        return ContainingLists.fetch(self.loaded.master_index, query)

    def candidate_networks(
        self, query: KeywordQuery, containing: ContainingLists | None = None
    ) -> list[CandidateNetwork]:
        """Stage 2 (Fig 7): generate candidate networks on the schema graph."""
        containing = containing or self.containing_lists(query)
        return self._front_half(query, containing).networks

    def candidate_tss_networks(
        self, query: KeywordQuery, containing: ContainingLists | None = None
    ) -> list[CTSSN]:
        """Stage 3 (Fig 7): reduce CNs to candidate TSS networks."""
        containing = containing or self.containing_lists(query)
        return self._front_half(query, containing).ctssns

    def plan(
        self,
        ctssn: CTSSN,
        containing: ContainingLists,
        span: Span | None = None,
    ) -> ExecutionPlan:
        """Optimize one CTSSN into an execution plan.

        Args:
            ctssn: The candidate TSS network to plan.
            containing: Containing lists (supply per-role costs).
            span: Optional trace span the optimizer annotates with the
                chosen relations, join count and anchor.
        """
        return self._plan(ctssn, self._role_costs(ctssn, containing), span)[0]

    def _front_half(
        self,
        query: KeywordQuery,
        containing: ContainingLists,
        trace=NULL_TRACE,
        metrics: ExecutionMetrics | None = None,
    ) -> _FrontHalf:
        """Stages 2-3 through the front-half cache.

        Returns the bound CNs, their CTSSNs (both byte-identical to a
        cold generation), each CTSSN's template plan memo and the cache
        outcome, ``"hit"`` or ``"miss"``.  A
        miss generates and reduces once over placeholder keywords; the
        ``cn_generation`` and ``ctssn_reduction`` spans and stages time
        the two halves either way.  A verifier checks every bound
        network, hit or miss.
        """
        metrics = metrics if metrics is not None else ExecutionMetrics()
        signature = front_half_signature(query, containing)

        span = trace.span("cn_generation")
        started = time.perf_counter()
        template = self.front_half_cache.get(signature)
        outcome = "miss" if template is None else "hit"
        placeholder_networks = (
            template_networks(self.loaded.catalog.schema, signature)
            if template is None
            else template.networks
        )
        networks, order = bind_networks(placeholder_networks, query.keywords)
        if self.verifier is not None:
            for cn in networks:
                self.verifier.check_cn(cn, query.keywords)
        metrics.record_stage("cn_generation", time.perf_counter() - started)
        span.annotate(networks=len(networks), cache=outcome)
        span.finish()

        span = trace.span("ctssn_reduction")
        started = time.perf_counter()
        if template is None:
            template = build_template(placeholder_networks, self.loaded.catalog.tss)
            self.front_half_cache.put(signature, template)
        ctssns = bind_ctssns(template.ctssns, query.keywords, networks, order)
        if self.verifier is not None:
            for ctssn in ctssns:
                self.verifier.check_ctssn(
                    ctssn, query.keywords, self.loaded.catalog.tss
                )
        metrics.record_stage("ctssn_reduction", time.perf_counter() - started)
        span.annotate(ctssns=len(ctssns))
        span.finish()
        return _FrontHalf(
            networks, ctssns, [template.plans[index] for index in order], outcome
        )

    @staticmethod
    def _role_costs(ctssn: CTSSN, containing: ContainingLists) -> dict[int, int]:
        """Admissible target objects per annotated role (planner input)."""
        return {
            role: len(containing.allowed_tos(constraints))
            for role, constraints in ctssn.keyword_roles()
        }

    def _plan(
        self,
        ctssn: CTSSN,
        role_costs: dict[int, int],
        span: Span | None = None,
        memo: PlanMemo | None = None,
        metrics: ExecutionMetrics | None = None,
    ) -> tuple[ExecutionPlan, PlanShape]:
        """Plan one CTSSN and return the plan with its shape.

        ``memo`` is the front-half template's plan memo for ``ctssn``:
        the anchor is picked from this query's role costs, and a shape
        cached for it skips the cover search and join ordering.  A miss
        plans cold and fills the memo.  ``metrics`` and ``span`` record
        the outcome.
        """
        anchor = self.optimizer.pick_anchor(ctssn, role_costs)
        cached = memo.get(anchor) if memo is not None else None
        plan = self.optimizer.plan(
            ctssn,
            anchor_role=anchor,
            span=span,
            steps=None if cached is None else cached.steps,
        )
        if cached is not None:
            shape, outcome = cached, "hit"
        else:
            shape, outcome = PlanShape(plan.steps, prefix_shapes(plan)), "miss"
            if memo is not None:
                memo[anchor] = shape
        if memo is not None:
            if metrics is not None:
                metrics.record_plan_cache(outcome)
            if span is not None and span.enabled:
                span.annotate(cache=outcome)
        if self.verifier is not None:
            self.verifier.check_plan(plan, self.stores)
        return plan, shape

    def _make_executor(
        self, plan: ExecutionPlan, containing: ContainingLists,
        config: ExecutorConfig, **kwargs
    ) -> CTSSNExecutor:
        """Build the executor the configured backend selects."""
        if config.backend == BACKEND_SQL:
            return SQLCTSSNExecutor(
                plan,
                self.stores,
                containing,
                statement_cache=self.statement_cache,
                config=config,
                **kwargs,
            )
        return CTSSNExecutor(plan, self.stores, containing, config=config, **kwargs)

    def compiled_sql(
        self, plan: ExecutionPlan, containing: ContainingLists
    ) -> str:
        """The statement the ``sql`` backend executes for ``plan``.

        EXPLAIN's view of the compiler: the same rendering the
        :class:`~repro.core.sqlcompile.SQLCTSSNExecutor` runs (shared
        prefixes aside — those are assigned per query, so EXPLAIN shows
        the standalone form).
        """
        role_filters = {
            role: containing.allowed_tos(constraints)
            for role, constraints in plan.ctssn.keyword_roles()
        }
        return render_sql(plan, self.stores, role_filters)

    # ------------------------------------------------------------------
    # Search entry points
    # ------------------------------------------------------------------
    def search(
        self,
        query: KeywordQuery | str,
        k: int = 10,
        config: ExecutorConfig | None = None,
        parallel: bool = True,
        *,
        partition: ShardPartition | None = None,
        shared_bound=None,
        stream: ResultStream | None = None,
    ) -> SearchResult:
        """Top-k search: the web-search-engine-like presentation mode.

        Args:
            query: Keywords (a :class:`KeywordQuery` or a plain string).
            k: Ranked-result cutoff.
            config: Per-call execution switches (defaults to the
                engine's).
            parallel: Evaluate candidate networks on a thread pool.
            partition: Evaluate only one shard's slice of the anchor
                space (a worker's sub-run in scatter-gather mode); the
                engine's own ``shards`` scattering is bypassed.
            shared_bound: External top-k bound replacing the local
                :class:`~repro.core.execution.TopKBound` — scatter-gather
                coordinators propagate the global k-th best through it so
                cross-shard pruning stays exact.
            stream: Optional :class:`~repro.core.streaming.ResultStream`
                the scheduler publishes each ranked result to the moment
                its score band is final (the streamed sequence is
                byte-identical to the returned ``result.mttons``); the
                stream is completed — or its unstreamed tail published —
                when the search returns.
        """
        return self._run(
            query,
            limit=k,
            config=config,
            parallel=parallel,
            partition=partition,
            shared_bound=shared_bound,
            stream=stream,
        )

    def search_all(
        self,
        query: KeywordQuery | str,
        config: ExecutorConfig | None = None,
        parallel: bool = False,
        stream: ResultStream | None = None,
    ) -> SearchResult:
        """Produce the full list of results (no K cutoff).

        ``stream`` works as in :meth:`search`, with no emission budget.
        """
        return self._run(
            query, limit=None, config=config, parallel=parallel, stream=stream
        )

    def search_streaming(
        self,
        query: KeywordQuery | str,
        k: int = 10,
        config: ExecutorConfig | None = None,
        parallel: bool = True,
        *,
        all_results: bool = False,
    ) -> ResultStream:
        """Run :meth:`search` on a background thread, returning its stream.

        The returned :class:`~repro.core.streaming.ResultStream` yields
        ranked results incrementally (iterate it, or
        :meth:`~repro.core.streaming.ResultStream.subscribe` several
        cursors) and exposes the buffered
        :class:`SearchResult` via
        :meth:`~repro.core.streaming.ResultStream.result` once the
        execution finishes.  Call
        :meth:`~repro.core.streaming.ResultStream.cancel` to wind the
        execution down early.
        """
        stream = ResultStream()

        def run() -> None:
            try:
                if all_results:
                    self.search_all(
                        query, config=config, parallel=parallel, stream=stream
                    )
                else:
                    self.search(
                        query, k=k, config=config, parallel=parallel, stream=stream
                    )
            except BaseException as exc:  # noqa: BLE001 - delivered to consumers
                stream.fail(exc)

        threading.Thread(target=run, name="xkeyword-stream", daemon=True).start()
        return stream

    # ------------------------------------------------------------------
    def _coerce(self, query: KeywordQuery | str) -> KeywordQuery:
        if isinstance(query, str):
            return KeywordQuery(tuple(query.split()))
        return query

    def _run(
        self,
        query: KeywordQuery | str,
        limit: int | None,
        config: ExecutorConfig | None,
        parallel: bool,
        partition: ShardPartition | None = None,
        shared_bound=None,
        stream: ResultStream | None = None,
    ) -> SearchResult:
        query = self._coerce(query)
        config = config or self.executor_config
        if self.hooks.on_search_start is not None:
            self.hooks.on_search_start(query)
        trace = self.tracer.begin(
            " ".join(query.keywords), k=limit, max_size=query.max_size
        )
        started = time.perf_counter()
        metrics = ExecutionMetrics()
        result = SearchResult(query, [], metrics)
        result.epoch = getattr(self.loaded, "epoch", 0)
        if trace.enabled:
            result.trace = trace  # type: ignore[assignment]

        span = trace.span("matching")
        stage_started = time.perf_counter()
        containing = self.containing_lists(query)
        metrics.record_stage("matching", time.perf_counter() - stage_started)
        span.annotate(
            target_objects={
                keyword: len(containing.keyword_tos[keyword])
                for keyword in query.keywords
            }
        )
        span.finish()
        if any(not containing.keyword_tos[k] for k in query.keywords):
            return self._finish(query, result, started, trace, stream=stream)

        front_half = self._front_half(query, containing, trace, metrics)
        result.candidate_networks = front_half.networks
        result.ctssns = front_half.ctssns
        result.front_half_cache = front_half.outcome
        memo_of = {
            id(ctssn): memo
            for ctssn, memo in zip(front_half.ctssns, front_half.plan_memos)
        }

        # Smaller CNs first (cheaper and higher ranked, per the paper);
        # ties broken by the statistics-estimated result count.  The
        # estimates are kept so EXPLAIN can show estimated vs. actual
        # cardinality per candidate network.  The role costs feed the
        # planner too, so each (CTSSN, role) is evaluated once; they are
        # keyed by object because the canonical key ignores role numbering.
        role_costs_of = {
            id(ctssn): self._role_costs(ctssn, containing) for ctssn in result.ctssns
        }
        estimates = {
            ctssn.canonical_key: self.optimizer.estimate_results(
                ctssn, role_costs_of[id(ctssn)]
            )
            for ctssn in result.ctssns
        }
        ordered = sorted(
            result.ctssns,
            key=lambda c: (c.score, estimates[c.canonical_key], c.canonical_key),
        )
        lookup_cache = ResultCache(config.cache_capacity)

        # --- Cross-CN scheduler -----------------------------------------
        # Plan every CN before any executes: the shared-prefix assignment
        # compares all plans.  A CN's plan is its template's cached shape
        # for the chosen anchor (cold on the signature's first query), so
        # this costs little even though the top-k bound later prunes
        # most CNs.  Each CN's span stays open until its execution
        # finishes, so the ``plan``/``execute`` children pair up.
        planned: list[tuple[CTSSN, ExecutionPlan, Span]] = []
        shapes: list[PlanShape] = []
        for ctssn in ordered:
            cn_span = trace.span(
                "cn",
                network=ctssn.canonical_key,
                score=ctssn.score,
                estimated_results=round(estimates[ctssn.canonical_key], 2),
            )
            plan_span = cn_span.child("plan")
            stage_started = time.perf_counter()
            try:
                plan, shape = self._plan(
                    ctssn,
                    role_costs_of[id(ctssn)],
                    span=plan_span,
                    memo=memo_of[id(ctssn)],
                    metrics=metrics,
                )
            finally:
                metrics.record_stage(
                    "planning", time.perf_counter() - stage_started
                )
                plan_span.finish()
            planned.append((ctssn, plan, cn_span))
            shapes.append(shape)
        result.relations_used = frozenset(
            name for _, plan, _ in planned for name in plan.relations_used()
        )
        prefixes: dict[int, PrefixSpec] = {}
        if config.share_prefixes:
            prefixes = assign_shared_prefixes(
                [plan for _, plan, _ in planned],
                [shape.prefixes for shape in shapes],
            )
            if self.verifier is not None:
                for index, spec in prefixes.items():
                    self.verifier.check_shared_prefix(planned[index][1], spec)

        emitter: _StreamEmitter | None = None
        if stream is not None:
            # One completion signal per (CN, shard) on the thread-scatter
            # path; per CN otherwise.  A process-sharded override that
            # ignores the emitter simply never flushes — the stream is
            # then filled at gather time by ``_finish``'s complete().
            scatter = partition is None and self.shards > 1
            on_emit = None
            if trace.enabled:

                def on_emit(rank: int, mtton: MTTON) -> None:
                    trace.span(
                        "emit",
                        rank=rank,
                        score=mtton.score,
                        network=mtton.ctssn.canonical_key,
                    ).finish()

            emitter = _StreamEmitter(
                stream,
                [ctssn.score for ctssn, _, _ in planned],
                limit,
                multiplier=self.shards if scatter else 1,
                on_first=lambda seconds: metrics.record_stage(
                    "first_result", seconds
                ),
                on_emit=on_emit,
            )

        if partition is None and self.shards > 1:
            # Scatter-gather: one thread per logical shard, anchor seeds
            # partitioned by target-object hash, the global bound shared
            # so cross-shard pruning stays exact.  The gathered multiset
            # equals the unsharded run's, so the final sort+truncate
            # below yields a byte-identical ranked top-k.
            collected = self._scatter_execute(
                query, planned, containing, config, limit, trace, metrics,
                lookup_cache, emitter=emitter, prefixes=prefixes,
            )
            collected.sort(
                key=lambda m: (m.score, m.ctssn.canonical_key, m.assignment)
            )
            if limit is not None:
                collected = collected[:limit]
            result.mttons = collected
            return self._finish(query, result, started, trace, stream=stream)

        prefix_table = SharedPrefixTable() if prefixes else None

        if config.prune_by_bound and limit is not None:
            bound = shared_bound if shared_bound is not None else TopKBound(limit)
        else:
            bound = None
        collected: list[MTTON] = []
        lock = threading.Lock()

        def evaluate(index: int) -> ExecutionMetrics:
            # The emitter must see a completion signal for *every*
            # planned CN — executed, pruned, abandoned, or cancelled —
            # or its score-band frontier would never advance.
            try:
                return evaluate_cn(index)
            finally:
                if emitter is not None:
                    emitter.cn_done(planned[index][0].score)

        def evaluate_cn(index: int) -> ExecutionMetrics:
            ctssn, plan, cn_span = planned[index]
            local_metrics = ExecutionMetrics()
            lower = self.optimizer.score_lower_bound(ctssn)
            if emitter is not None and emitter.cancelled:
                cn_span.annotate(cancelled=True, actual_results=0)
                cn_span.finish()
                return local_metrics
            if bound is not None and not bound.admits(lower):
                local_metrics.cns_pruned += 1
                cn_span.annotate(
                    pruned=True, prune_bound=bound.bound(), actual_results=0
                )
                cn_span.finish()
                return local_metrics
            execute_span = cn_span.child("execute")
            execute_span.annotate(backend=config.backend)
            executor = self._make_executor(
                plan,
                containing,
                config,
                metrics=local_metrics,
                lookup_cache=lookup_cache,
                observer=self.hooks.observer,
                span=execute_span if trace.enabled else None,
                prefix=prefixes.get(index),
                prefix_table=prefix_table,
                partition=partition,
            )
            produced = 0
            abandoned = False
            stage_started = time.perf_counter()
            try:
                for row in executor.run(limit=limit):
                    mtton = materialize(ctssn, row, self.loaded.to_graph)
                    produced += 1
                    with lock:
                        collected.append(mtton)
                    if emitter is not None:
                        emitter.offer(mtton)
                        if emitter.cancelled:
                            abandoned = True
                            break
                    if bound is not None:
                        bound.add(mtton.score)
                        # Another CN may have lowered the bound below
                        # this CN's score mid-run: abandon, nothing more
                        # from this plan can place in the top k.
                        if not bound.admits(lower):
                            abandoned = True
                            break
            finally:
                local_metrics.record_stage(
                    "execution", time.perf_counter() - stage_started
                )
                execute_span.annotate(
                    results=produced,
                    queries_sent=local_metrics.queries_sent,
                    cache_hits=local_metrics.cache_hits,
                    cache_misses=local_metrics.cache_misses,
                )
                if abandoned:
                    execute_span.annotate(pruned="abandoned")
                execute_span.finish()
                cn_span.annotate(actual_results=produced)
                cn_span.finish()
            return local_metrics

        if parallel and len(planned) > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                for local in pool.map(evaluate, range(len(planned))):
                    metrics.merge(local)
        else:
            for index in range(len(planned)):
                metrics.merge(evaluate(index))

        collected.sort(key=lambda m: (m.score, m.ctssn.canonical_key, m.assignment))
        if limit is not None:
            collected = collected[:limit]
        result.mttons = collected
        return self._finish(query, result, started, trace, stream=stream)

    def _scatter_execute(
        self,
        query: KeywordQuery,
        planned: list[tuple[CTSSN, ExecutionPlan, Span]],
        containing: ContainingLists,
        config: ExecutorConfig,
        limit: int | None,
        trace,
        metrics: ExecutionMetrics,
        lookup_cache: ResultCache,
        emitter: _StreamEmitter | None = None,
        prefixes: Mapping[int, PrefixSpec] | None = None,
    ) -> list[MTTON]:
        """Evaluate every planned CN once per shard, gathering results.

        ``query`` is unused on the in-process path but part of the seam:
        :class:`repro.sharding.engine.ShardedXKeyword` overrides this
        method to ship the query to per-shard worker processes.

        ``emitter`` (when the caller streams) expects one completion
        signal per (CN, shard) pair; results are offered as produced so
        finished score bands flush incrementally.  Overrides that gather
        all results at once may ignore it — the stream then falls back
        to bulk publication at completion.

        Each shard gets a :class:`~repro.core.execution.ShardPartition`
        restricting anchor seeds to the target objects it owns, its own
        ``shard`` trace span (with per-CN ``execute`` children), and its
        own :class:`~repro.core.execution.SharedPrefixTable` for the
        ``prefixes`` :meth:`_run` assigned — prefix rows embed the
        partitioned anchor, so they must not cross shards.  The relation-lookup cache *is* shared: raw probes are
        partition-independent.  One
        :class:`~repro.core.execution.TopKBound` spans all shards, so a
        result collected on any shard prunes candidate networks
        everywhere.  Per-shard pruning decisions are per-shard work
        units: ``cns_pruned`` counts each (CN, shard) skip.
        """
        shard_count = self.shards
        prefixes = prefixes or {}
        for _, _, cn_span in planned:
            cn_span.annotate(scattered_across=shard_count)
            cn_span.finish()
        bound = (
            TopKBound(limit)
            if config.prune_by_bound and limit is not None
            else None
        )
        collected: list[MTTON] = []
        lock = threading.Lock()

        def run_shard(shard_index: int) -> ExecutionMetrics:
            partition = ShardPartition(shard_index, shard_count)
            local_metrics = ExecutionMetrics()
            prefix_table = SharedPrefixTable() if prefixes else None
            shard_span = trace.span(
                "shard", shard=shard_index, shards=shard_count
            )
            shard_results = 0
            shard_started = time.perf_counter()
            try:
                for index, (ctssn, plan, _) in enumerate(planned):
                    lower = self.optimizer.score_lower_bound(ctssn)
                    if emitter is not None and emitter.cancelled:
                        emitter.cn_done(ctssn.score)
                        continue
                    if bound is not None and not bound.admits(lower):
                        local_metrics.cns_pruned += 1
                        if emitter is not None:
                            emitter.cn_done(ctssn.score)
                        continue
                    execute_span = shard_span.child("execute")
                    execute_span.annotate(
                        network=ctssn.canonical_key, backend=config.backend
                    )
                    executor = self._make_executor(
                        plan,
                        containing,
                        config,
                        metrics=local_metrics,
                        lookup_cache=lookup_cache,
                        observer=self.hooks.observer,
                        span=execute_span if trace.enabled else None,
                        prefix=prefixes.get(index),
                        prefix_table=prefix_table,
                        partition=partition,
                    )
                    produced = 0
                    abandoned = False
                    stage_started = time.perf_counter()
                    try:
                        for row in executor.run(limit=limit):
                            mtton = materialize(
                                ctssn, row, self.loaded.to_graph
                            )
                            produced += 1
                            with lock:
                                collected.append(mtton)
                            if emitter is not None:
                                emitter.offer(mtton)
                                if emitter.cancelled:
                                    abandoned = True
                                    break
                            if bound is not None:
                                bound.add(mtton.score)
                                if not bound.admits(lower):
                                    abandoned = True
                                    break
                    finally:
                        local_metrics.record_stage(
                            "execution", time.perf_counter() - stage_started
                        )
                        execute_span.annotate(results=produced)
                        if abandoned:
                            execute_span.annotate(pruned="abandoned")
                        execute_span.finish()
                        shard_results += produced
                        if emitter is not None:
                            emitter.cn_done(ctssn.score)
            finally:
                local_metrics.record_shard(
                    shard_index,
                    shard_results,
                    time.perf_counter() - shard_started,
                )
                shard_span.annotate(
                    results=shard_results,
                    queries_sent=local_metrics.queries_sent,
                    cns_pruned=local_metrics.cns_pruned,
                )
                shard_span.finish()
            return local_metrics

        with ThreadPoolExecutor(max_workers=shard_count) as pool:
            for local in pool.map(run_shard, range(shard_count)):
                metrics.merge(local)
        return collected

    def _finish(
        self,
        query: KeywordQuery,
        result: SearchResult,
        started: float,
        trace=None,
        stream: ResultStream | None = None,
    ) -> SearchResult:
        if stream is not None and result.mttons:
            # Paths without an incremental emitter (process-sharded
            # gather, empty-query early return) only deliver at
            # completion: first-result latency equals full latency.
            if "first_result" not in result.metrics.stage_seconds:
                result.metrics.record_stage(
                    "first_result", time.perf_counter() - started
                )
        if trace is not None:
            trace.root.annotate(
                results=len(result.mttons),
                candidate_networks=len(result.candidate_networks),
                epoch=result.epoch,
            )
            self.tracer.finish(trace)
        if self.hooks.on_search_complete is not None:
            self.hooks.on_search_complete(
                query, result, time.perf_counter() - started
            )
        if stream is not None:
            stream.complete(result)
        return result
