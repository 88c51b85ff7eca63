"""Containing-list processing: from the master index to role filters.

The keyword discoverer (paper Figure 7) retrieves, for each query
keyword, its containing list ``L(k)`` of ``(TO id, node id, schema
node)`` triplets.  This module turns those lists into per-role admission
filters for execution: a target object may bind an annotated CTSSN role
iff its nodes can witness the role's constraints under DISCOVER's
exact-subset semantics, with one distinct witness node per constraint
(the ``node id`` component exists precisely "to distinguish two nodes of
the same type and of the same target object").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..storage.master_index import MasterIndex
from .ctssn import WitnessConstraint
from .query import KeywordQuery


@dataclass
class ContainingLists:
    """Processed containing lists for one keyword query."""

    query: KeywordQuery
    node_keywords: dict[str, frozenset[str]] = field(default_factory=dict)
    node_schema: dict[str, str] = field(default_factory=dict)
    node_to: dict[str, str] = field(default_factory=dict)
    keyword_tos: dict[str, set[str]] = field(default_factory=dict)
    nodes_by_to: dict[str, list[str]] = field(default_factory=dict)
    keyword_schema_nodes: dict[str, set[str]] = field(default_factory=dict)
    _allowed: dict[tuple[WitnessConstraint, ...], frozenset[str]] = field(  # guarded by: self._allowed_lock
        default_factory=dict, init=False, repr=False, compare=False
    )
    _allowed_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @classmethod
    def fetch(cls, master_index: MasterIndex, query: KeywordQuery) -> "ContainingLists":
        """Run the keyword discoverer: one index probe per keyword."""
        lists = cls(query)
        node_kw: dict[str, set[str]] = {}
        for keyword in query.keywords:
            lists.keyword_tos[keyword] = set()
            lists.keyword_schema_nodes[keyword] = set()
            for entry in master_index.containing_list(keyword):
                node_kw.setdefault(entry.node_id, set()).add(keyword)
                lists.node_schema[entry.node_id] = entry.schema_node
                lists.node_to[entry.node_id] = entry.to_id
                lists.keyword_tos[keyword].add(entry.to_id)
                lists.keyword_schema_nodes[keyword].add(entry.schema_node)
                lists.nodes_by_to.setdefault(entry.to_id, [])
                if entry.node_id not in lists.nodes_by_to[entry.to_id]:
                    lists.nodes_by_to[entry.to_id].append(entry.node_id)
        lists.node_keywords = {
            node: frozenset(keywords) for node, keywords in node_kw.items()
        }
        return lists

    # ------------------------------------------------------------------
    def schema_nodes(self) -> dict[str, set[str]]:
        """Keyword -> schema nodes map for the CN generator."""
        return {k: set(v) for k, v in self.keyword_schema_nodes.items()}

    def smallest_keyword(self) -> str:
        """The keyword with the fewest containing target objects."""
        return min(self.query.keywords, key=lambda k: len(self.keyword_tos[k]))

    def witnesses(self, to_id: str, constraint: WitnessConstraint) -> list[str]:
        """Nodes of ``to_id`` exactly witnessing one constraint."""
        return [
            node
            for node in self.nodes_by_to.get(to_id, ())
            if self.node_schema[node] == constraint.schema_node
            and self.node_keywords[node] == constraint.keywords
        ]

    def satisfies(self, to_id: str, constraints: tuple[WitnessConstraint, ...]) -> bool:
        """Can ``to_id`` witness all constraints with distinct nodes?"""
        options = [self.witnesses(to_id, constraint) for constraint in constraints]

        def assign(index: int, used: set[str]) -> bool:
            if index == len(options):
                return True
            for node in options[index]:
                if node not in used:
                    used.add(node)
                    if assign(index + 1, used):
                        used.discard(node)
                        return True
                    used.discard(node)
            return False

        return assign(0, set())

    def allowed_tos(
        self, constraints: tuple[WitnessConstraint, ...]
    ) -> frozenset[str]:
        """Target objects admissible for a role with these constraints.

        Memoized per constraints tuple: many CTSSNs of one query share a
        role's constraints, and the role costs and every executor's role
        filters ask for the same set.  The per-CN thread pool shares the
        lists, hence the lock; the set is frozen because callers share it.
        """
        with self._allowed_lock:
            allowed = self._allowed.get(constraints)
        if allowed is not None:
            return allowed
        allowed = self._compute_allowed(constraints)
        with self._allowed_lock:
            return self._allowed.setdefault(constraints, allowed)

    def _compute_allowed(
        self, constraints: tuple[WitnessConstraint, ...]
    ) -> frozenset[str]:
        if not constraints:
            return frozenset()
        candidate_pool: set[str] | None = None
        for constraint in constraints:
            tos: set[str] = set()
            for keyword in constraint.keywords:
                tos |= self.keyword_tos.get(keyword, set())
            candidate_pool = tos if candidate_pool is None else candidate_pool & tos
        assert candidate_pool is not None
        return frozenset(to for to in candidate_pool if self.satisfies(to, constraints))
