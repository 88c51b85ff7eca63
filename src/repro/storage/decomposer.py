"""The load stage (paper Section 4, Figure 7 left half).

The decomposer inputs the schema graph, the TSS graph and the XML graph
and creates: the master index, the statistics, the target-object BLOBs
and the connection relations of one or more decompositions.  The result,
a :class:`LoadedDatabase`, is everything the query-processing stage needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..decomposition.strategies import Decomposition
from ..schema.catalogs import Catalog
from ..schema.validate import check_conformance
from ..xmlgraph.model import XMLGraph
from .blobs import BlobStore
from .database import Database
from .master_index import MasterIndex
from .relations import RelationStore
from .statistics import Statistics
from .target_objects import TargetObjectGraph, build_target_object_graph


@dataclass
class LoadReport:
    """What the load stage built, and how long each part took."""

    target_objects: int = 0
    edge_instances: int = 0
    index_entries: int = 0
    blobs: int = 0
    relation_rows: dict[str, dict[str, int]] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)

    def total_relation_rows(self, decomposition: str) -> int:
        return sum(self.relation_rows.get(decomposition, {}).values())


@dataclass
class LoadedDatabase:
    """A fully loaded XKeyword database, ready for query processing.

    ``graph`` is ``None`` when the database was reopened from persisted
    metadata (see :mod:`repro.storage.persistence`); everything except
    node-level MTNN expansion works without it.
    """

    catalog: Catalog
    database: Database
    graph: XMLGraph | None
    to_graph: TargetObjectGraph
    master_index: MasterIndex
    blobs: BlobStore
    statistics: Statistics
    stores: dict[str, RelationStore]
    report: LoadReport
    epoch: int = 0
    """Mutation counter; the update subsystem bumps it per mutation."""
    index_tags: bool = False
    """Whether the master index also indexes element tags."""

    def store(self, decomposition_name: str) -> RelationStore:
        try:
            return self.stores[decomposition_name]
        except KeyError:
            raise KeyError(
                f"decomposition {decomposition_name!r} not loaded; "
                f"available: {sorted(self.stores)}"
            ) from None

    def fingerprint(self) -> str:
        """Content digest of the loaded data (see :mod:`.fingerprint`)."""
        from .fingerprint import database_fingerprint

        return database_fingerprint(self)

    def add_decomposition(self, decomposition: Decomposition) -> RelationStore:
        """Load one more decomposition into the same database."""
        store = _load_relations(self.database, decomposition, self.to_graph, self.report)
        self.stores[decomposition.name] = store
        return store


def load_database(
    graph: XMLGraph,
    catalog: Catalog,
    decompositions: list[Decomposition],
    database: Database | None = None,
    validate: bool = True,
    index_tags: bool = False,
) -> LoadedDatabase:
    """Run the full load stage.

    Args:
        graph: The XML graph to load.
        catalog: Schema + TSS graph + keyword surface.
        decompositions: Decompositions whose connection relations to
            materialize (several may share one database, as Section 6's
            combined execution requires).
        database: Existing database, or ``None`` for a fresh in-memory one.
        validate: Check schema conformance first.
        index_tags: Also index element tags as keywords.
    """
    report = LoadReport()
    database = database or Database()
    if validate:
        check_conformance(graph, catalog.schema)

    started = time.perf_counter()
    to_graph = build_target_object_graph(graph, catalog.tss)
    report.seconds["target_objects"] = time.perf_counter() - started
    report.target_objects = to_graph.target_object_count
    report.edge_instances = to_graph.instance_count

    started = time.perf_counter()
    master_index = MasterIndex(database)
    master_index.create()
    report.index_entries = master_index.load(
        graph, to_graph, catalog.text_nodes, index_tags=index_tags
    )
    report.seconds["master_index"] = time.perf_counter() - started

    started = time.perf_counter()
    blobs = BlobStore(database)
    blobs.create()
    report.blobs = blobs.load(graph, to_graph)
    report.seconds["blobs"] = time.perf_counter() - started

    statistics = Statistics.from_target_object_graph(to_graph)

    stores = {
        decomposition.name: _load_relations(database, decomposition, to_graph, report)
        for decomposition in decompositions
    }

    return LoadedDatabase(
        catalog=catalog,
        database=database,
        graph=graph,
        to_graph=to_graph,
        master_index=master_index,
        blobs=blobs,
        statistics=statistics,
        stores=stores,
        report=report,
        index_tags=index_tags,
    )


def _load_relations(
    database: Database,
    decomposition: Decomposition,
    to_graph: TargetObjectGraph,
    report: LoadReport,
) -> RelationStore:
    """Create and fill one decomposition's relations, recording the time.

    ``report.seconds["relations:<name>"]`` is the whole step (DDL,
    enumeration, inserts, rotation copies, commit);
    ``"relations:<name>:<phase>"`` splits it by
    :data:`~repro.storage.relations.LOAD_PHASES`.
    """
    started = time.perf_counter()
    store = RelationStore(database, decomposition)
    store.create()
    phases: dict[str, float] = {}
    report.relation_rows[decomposition.name] = store.load(to_graph, phases)
    key = f"relations:{decomposition.name}"
    report.seconds[key] = time.perf_counter() - started
    for phase, seconds in phases.items():
        report.seconds[f"{key}:{phase}"] = seconds
    return store
