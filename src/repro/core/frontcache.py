"""The keyword-abstract front-half cache: CN generation and CTSSN
reduction once per schema signature, not once per query.

Candidate-network generation (paper Section 4, Definition 4.1) and the
CN -> CTSSN reduction read three inputs only: the schema/TSS graph, the
set of schema nodes each keyword hits, and Z.  They never read the data,
and the keyword strings themselves are mere labels.  So the engine runs
both once per *signature*

    (tuple(frozenset(schema nodes hit by keyword i) for i in query order), Z)

over positional placeholder keywords, caches the result as a
:class:`FrontHalfTemplate`, and *binds* the template to each query's
keywords.  Binding renames the placeholders and re-sorts exactly as the
cold path sorts — CNs by ``(size, canonical_key)`` and each TSS role's
witness constraints by ``sort_key()`` — so the bound networks equal a
cold run's byte for byte.  The bound objects share the template's
:class:`~repro.decomposition.fragments.TSSNetwork` instances, so the
embedding memo :func:`~repro.decomposition.cover.embedding_pieces` keeps
on each network stays warm across queries too.

Why renaming is exact: the generator visits keywords by query position
and schema nodes in sorted order, and deduplicates by canonical keys,
which are injective in the annotation strings (keywords are
``[a-z0-9]+`` index tokens, placeholders ``$<position>``).  A bijective
renaming therefore maps the placeholder run's networks one to one onto
the cold run's; only the final sort orders differ, and binding redoes
those.

Each template also keeps its CTSSNs' plan shapes (:class:`PlanShape`):
the optimizer's cover and join order, which read only the shared
:class:`~repro.decomposition.fragments.TSSNetwork`, the set of keyword
roles, the anchor role and the engine's fragment universe and row
counts — never the keywords.  The anchor is still picked per query from
the role costs, so the shapes are keyed by it; a query rebuilds its plan
as ``ExecutionPlan(bound_ctssn, shape.steps, anchor)`` and binds only the
witness constraints of each shared-prefix key.

No invalidation is needed.  The key is recomputed from each query's
fresh containing lists, so a live mutation that changes which schema
nodes a keyword hits simply produces a different key; and an engine's
catalog never changes (a reload builds a new engine, with a new cache).
Neither do its fragment universe and the optimizer's row counts, which
are read once per engine, so a cached plan shape equals a cold plan's.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

from ..schema.graph import SchemaGraph
from ..schema.tss import TSSGraph
from .cn_generator import CandidateNetwork, CNGenerator
from .ctssn import CTSSN, WitnessConstraint, reduce_to_ctssn
from .execution import PrefixShape
from .matching import ContainingLists
from .plans import PlanStep
from .query import KeywordQuery

FRONT_HALF_CACHE_CAPACITY = 32
"""Signatures one engine keeps (LRU).  An entry holds a few hundred
small objects; the service caps Z and the keyword count, which bounds
both the cost of a miss and the size of an entry."""

Signature = tuple[tuple[frozenset[str], ...], int]


def front_half_signature(
    query: KeywordQuery, containing: ContainingLists
) -> Signature:
    """The cache key: per-keyword schema-node sets in query order, and Z."""
    return (
        tuple(
            frozenset(containing.keyword_schema_nodes.get(keyword, ()))
            for keyword in query.keywords
        ),
        query.max_size,
    )


def _placeholder(position: int) -> str:
    return f"${position}"


@dataclass(frozen=True)
class PlanShape:
    """One template CTSSN's plan for one anchor role, keywords left out.

    ``prefixes[i]`` is :func:`~repro.core.execution.prefix_shapes`'s
    entry for the first ``i + 1`` steps.
    """

    steps: tuple[PlanStep, ...]
    prefixes: tuple[PrefixShape, ...]


PlanMemo = dict[int, PlanShape]
"""One template CTSSN's plan shapes by anchor role.  Plain dict reads
and writes only: concurrent misses store equal shapes, so the last
write may win."""


@dataclass(frozen=True)
class FrontHalfTemplate:
    """One signature's CNs and CTSSNs over placeholder keywords.

    ``ctssns[i]`` is the reduction of ``networks[i]`` and ``plans[i]``
    its plan memo; all are in generation order (binding sorts).
    """

    networks: tuple[CandidateNetwork, ...]
    ctssns: tuple[CTSSN, ...]
    plans: tuple[PlanMemo, ...] = field(compare=False)


def template_networks(
    schema: SchemaGraph, signature: Signature
) -> list[CandidateNetwork]:
    """Run the CN generator over the signature's placeholder keywords."""
    node_sets, max_size = signature
    placeholders = tuple(_placeholder(i) for i in range(len(node_sets)))
    generator = CNGenerator(schema, dict(zip(placeholders, node_sets)))
    return generator.generate(KeywordQuery(placeholders, max_size=max_size))


def build_template(
    networks: Sequence[CandidateNetwork], tss_graph: TSSGraph
) -> FrontHalfTemplate:
    """Reduce the placeholder networks and freeze them into a template."""
    return FrontHalfTemplate(
        tuple(networks),
        tuple(reduce_to_ctssn(cn, tss_graph) for cn in networks),
        tuple({} for _ in networks),
    )


def _renamer(keywords: Sequence[str]):
    names = {_placeholder(i): keyword for i, keyword in enumerate(keywords)}
    return lambda placeholders: frozenset(names[p] for p in placeholders)


def bind_networks(
    networks: Sequence[CandidateNetwork], keywords: Sequence[str]
) -> tuple[list[CandidateNetwork], list[int]]:
    """Bind placeholder CNs to ``keywords`` in the cold path's order.

    Returns the bound networks sorted by ``(size, canonical_key)`` and,
    for each, the index of its template network (what
    :func:`bind_ctssns` needs to follow the same order).
    """
    rename = _renamer(keywords)
    bound = [
        CandidateNetwork(cn.network, tuple(rename(a) for a in cn.annotations))
        for cn in networks
    ]
    order = sorted(
        range(len(bound)), key=lambda i: (bound[i].size, bound[i].canonical_key)
    )
    return [bound[i] for i in order], order


def bind_ctssns(
    ctssns: Sequence[CTSSN],
    keywords: Sequence[str],
    networks: Sequence[CandidateNetwork],
    order: Sequence[int],
) -> list[CTSSN]:
    """Bind placeholder CTSSNs, pairing each with its bound CN.

    ``networks`` and ``order`` are :func:`bind_networks`' output; the
    result is the cold path's ``[reduce_to_ctssn(cn) for cn in networks]``.
    """
    rename = _renamer(keywords)

    def bind_role(constraints):
        bound = (WitnessConstraint(c.schema_node, rename(c.keywords)) for c in constraints)
        return tuple(sorted(bound, key=WitnessConstraint.sort_key))

    return [
        CTSSN(
            ctssns[index].network,
            tuple(bind_role(role) for role in ctssns[index].annotations),
            cn,
        )
        for cn, index in zip(networks, order)
    ]


class FrontHalfCache:
    """Thread-safe LRU of :class:`FrontHalfTemplate` by signature.

    Concurrent misses on one signature each build a template and the
    last ``put`` wins; both templates are correct, so no single-flight
    is needed.  Generation runs outside the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[Signature, FrontHalfTemplate] = (  # guarded by: self._lock
            OrderedDict()
        )

    def get(self, signature: Signature) -> FrontHalfTemplate | None:
        """The cached template, or ``None`` on a miss."""
        with self._lock:
            template = self._entries.get(signature)
            if template is not None:
                self._entries.move_to_end(signature)
            return template

    def put(self, signature: Signature, template: FrontHalfTemplate) -> None:
        """Cache ``template``, evicting the least recently used entry."""
        with self._lock:
            self._entries[signature] = template
            self._entries.move_to_end(signature)
            while len(self._entries) > FRONT_HALF_CACHE_CAPACITY:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
