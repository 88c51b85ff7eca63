"""The process-parallel engine: XKeyword over a shard worker pool.

:class:`ShardedXKeyword` keeps the whole front half of the pipeline —
matching, CN generation, CTSSN reduction, planning, tracing — in the
coordinator process (over the gather views, which see every shard) and
overrides only the execution scatter: instead of one thread per logical
shard it ships the query to the :class:`~repro.sharding.worker.ShardWorkerPool`
and gathers ``(canonical_key, assignment, score)`` triples back,
rematerializing MTTONs locally.  The final sort-and-truncate in
``XKeyword._run`` is unchanged, so the ranked top-k stays byte-identical
to the unsharded oracle.
"""

from __future__ import annotations

from pathlib import Path

from ..core.engine import XKeyword
from ..core.execution import ExecutionMetrics
from ..core.results import MTTON, materialize
from ..storage.decomposer import LoadedDatabase
from ..storage.persistence import reopen_database
from .database import ShardedDatabase
from .worker import ShardWorkerPool


def open_sharded(
    directory: str | Path,
    catalog,
    decompositions,
    simulated_latency: float = 0.0,
) -> LoadedDatabase:
    """Reopen a shard directory as one queryable :class:`LoadedDatabase`.

    The returned object reads through :class:`ShardedDatabase` gather
    views, so every store, the master index and the statistics see the
    union of all shards.  ``graph`` is ``None`` (as for any reopen); a
    caller that needs live updates re-attaches the XML graph.
    """
    database = ShardedDatabase(directory, simulated_latency=simulated_latency)
    return reopen_database(database, catalog, decompositions)


class ShardedXKeyword(XKeyword):
    """XKeyword whose execution stage runs on per-shard worker processes.

    Construct over a gather :class:`LoadedDatabase` (see
    :func:`open_sharded`) and a running
    :class:`~repro.sharding.worker.ShardWorkerPool` for the same shard
    directory.  Scattered runs always execute with the *pool's*
    :class:`~repro.core.execution.ExecutorConfig` (workers were started
    with it); per-call config overrides only affect the coordinator-side
    stages.

    Attributes:
        pool: The worker pool queries are scattered to.
    """

    def __init__(self, loaded: LoadedDatabase, pool: ShardWorkerPool, **kwargs) -> None:
        """
        Args:
            loaded: Gather view of the pool's shard directory.
            pool: Started worker pool (one process per shard).
            **kwargs: Forwarded to :class:`~repro.core.engine.XKeyword`
                (``executor_config`` defaults to the pool's config;
                ``shards`` is forced to the pool's shard count).
        """
        kwargs.setdefault("executor_config", pool.config)
        kwargs["shards"] = pool.num_shards
        super().__init__(loaded, **kwargs)
        self.pool = pool

    def refresh_workers(self) -> None:
        """Propagate coordinator-side mutations to every worker.

        Workers snapshot storage (statistics, rotation bindings, epoch)
        when they open it; after writing through the gather database —
        live updates route each row to its owning shard — call this so
        workers reopen and observe the committed state.
        """
        self.pool.refresh()

    def _scatter_execute(
        self,
        query,
        planned,
        containing,
        config,
        limit,
        trace,
        metrics: ExecutionMetrics,
        lookup_cache,
        emitter=None,
        prefixes=None,
    ) -> list[MTTON]:
        """Ship the query to the pool; gather, rematerialize, and account.

        Replaces the thread-per-shard scatter of the base engine.  The
        trace keeps the same scattered shape (``cn`` spans annotated
        ``scattered_across``, one ``shard`` span per shard) with
        ``worker="process"`` marking the dispatch mode.  The streaming
        ``emitter`` is accepted but unused: workers only report results
        at gather time, so streamed runs fall back to bulk publication
        when the search completes (documented on the base method).
        ``prefixes`` is unused too: each worker assigns its own.
        """
        shard_count = self.shards
        for _, _, cn_span in planned:
            cn_span.annotate(scattered_across=shard_count, worker="process")
            cn_span.finish()
        ctssn_by_key = {
            ctssn.canonical_key: ctssn for ctssn, _, _ in planned
        }
        triples_by_shard, metrics_by_shard = self.pool.search(query, limit)
        collected: list[MTTON] = []
        for index in sorted(triples_by_shard):
            triples = triples_by_shard[index]
            worker_metrics = metrics_by_shard.get(index) or ExecutionMetrics()
            execution_seconds = worker_metrics.stage_seconds.get("execution", 0.0)
            shard_span = trace.span(
                "shard", shard=index, shards=shard_count, worker="process"
            )
            produced = 0
            for canonical_key, assignment, score in triples:
                ctssn = ctssn_by_key.get(canonical_key)
                if ctssn is None:  # pragma: no cover - worker/coordinator skew
                    continue
                collected.append(
                    materialize(ctssn, dict(assignment), self.loaded.to_graph)
                )
                produced += 1
            # Fold only execution-side counters: the worker re-ran the
            # front half of the pipeline too, but the coordinator already
            # accounted its own matching/planning stages.
            folded = ExecutionMetrics(
                queries_sent=worker_metrics.queries_sent,
                rows_fetched=worker_metrics.rows_fetched,
                cache_hits=worker_metrics.cache_hits,
                cache_misses=worker_metrics.cache_misses,
                prefix_hits=worker_metrics.prefix_hits,
                prefix_materializations=worker_metrics.prefix_materializations,
                cns_pruned=worker_metrics.cns_pruned,
            )
            folded.record_stage("execution", execution_seconds)
            folded.record_shard(index, produced, execution_seconds)
            metrics.merge(folded)
            shard_span.annotate(
                results=produced,
                queries_sent=worker_metrics.queries_sent,
                cns_pruned=worker_metrics.cns_pruned,
            )
            shard_span.finish()
        return collected
