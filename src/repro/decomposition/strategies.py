"""Decomposition strategies (paper Section 5.1 and Figure 12).

A *decomposition* fixes which connection relations are materialized at
load time and how they are physically organized.  The paper compares:

* **minimal** — one fragment per TSS edge; three physical variants used
  in Figure 15: ``MinClust`` (every clustering of every fragment),
  ``MinNClustIndx`` (heap relations + single-column indexes) and
  ``MinNClustNIndx`` (heap relations, no indexes);
* **complete** — all satisfiable fragments of size L;
* **maximal** — a fragment per possible candidate TSS network (zero
  joins, infeasible space; exposed for completeness/testing);
* **xkeyword** — the Figure 12 algorithm: inlined (non-MVD) fragments
  only, sized to meet the join bound B, with MVD fragments added last
  and only where unavoidable;
* **combined** — the union of xkeyword and minimal, which Section 6 uses
  for on-demand presentation-graph expansion.

Theorem 5.1 supplies the fragment-size bound ``L = ceil(M / (B + 1))``:
chopping a size-M network into B+1 chunks needs chunks of at least that
size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from ..schema.tss import TSSGraph
from .cover import covers_with_joins, masks_cover
from .enumerate_fragments import enumerate_fragments, enumerate_networks, subtrees_of
from .fragments import Fragment, TSSNetwork, embedding_masks, single_edge_fragment
from .mvd import has_genuine_mvd
from .useless import is_useless


class IndexPolicy(enum.Enum):
    """Physical organization of connection relations (Section 7 variants)."""

    ALL_ROTATIONS = "all_rotations"
    """A clustered (index-organized) copy per rotation of the columns."""

    SINGLE_COLUMN_INDEXES = "single_column_indexes"
    """One heap relation with a secondary index on every id column."""

    NONE = "none"
    """One heap relation, no indexes (full scans + hash joins)."""


@dataclass(frozen=True)
class Decomposition:
    """A named set of fragments plus their physical organization."""

    name: str
    fragments: tuple[Fragment, ...]
    index_policy: IndexPolicy

    def __post_init__(self) -> None:
        names = [fragment.relation_name for fragment in self.fragments]
        if len(set(names)) != len(names):
            raise ValueError(f"decomposition {self.name!r} has duplicate fragments")

    def fragment_by_relation(self, relation_name: str) -> Fragment:
        for fragment in self.fragments:
            if fragment.relation_name == relation_name:
                return fragment
        raise KeyError(relation_name)

    def covers_all_edges(self, tss_graph: TSSGraph) -> bool:
        """Definition 5.2 validity: every TSS edge appears in a fragment."""
        used = {
            edge.edge_id for fragment in self.fragments for edge in fragment.edges
        }
        return all(edge.edge_id in used for edge in tss_graph.edges())

    def union(self, other: "Decomposition", name: str | None = None) -> "Decomposition":
        """Combine two decompositions (deduplicating fragments)."""
        seen = {fragment.relation_name for fragment in self.fragments}
        merged = list(self.fragments) + [
            fragment
            for fragment in other.fragments
            if fragment.relation_name not in seen
        ]
        return Decomposition(
            name or f"{self.name}+{other.name}", tuple(merged), self.index_policy
        )

    @property
    def size(self) -> int:
        return len(self.fragments)


def fragment_size_bound(max_network_size: int, max_joins: int) -> int:
    """Theorem 5.1: the fragment size L sufficient for the join bound B."""
    if max_network_size < 1:
        raise ValueError("max_network_size must be >= 1")
    if max_joins < 0:
        raise ValueError("max_joins must be >= 0")
    return math.ceil(max_network_size / (max_joins + 1))


def star_fragments_required(
    tss_graph: TSSGraph, max_network_size: int, max_joins: int
) -> list[Fragment]:
    """Theorem 5.2's lower bound, constructively.

    When the TSS graph's edges are star-like (one hub fanning out) and
    ``M = L * (B + 1)`` exactly, *every* satisfiable fragment of size L
    is needed: for each such fragment there is a size-M network whose
    ``B``-join evaluation must use it.  This function returns the
    fragments of size L for which such a witnessing network exists —
    on a theorem-shaped TSS graph that is all of them, which the tests
    verify by checking that removing any one fragment breaks coverage.
    """
    size_bound = fragment_size_bound(max_network_size, max_joins)
    if size_bound * (max_joins + 1) != max_network_size:
        raise ValueError(
            "Theorem 5.2 requires M = L * (B + 1); got "
            f"M={max_network_size}, B={max_joins}, L={size_bound}"
        )
    all_l = enumerate_fragments(tss_graph, size_bound, min_size=size_bound)
    networks = enumerate_networks(tss_graph, max_network_size, min_size=max_network_size)
    required = []
    for fragment in all_l:
        others = [f for f in all_l if f.relation_name != fragment.relation_name]
        if any(
            not covers_with_joins(network, others, max_joins)
            and covers_with_joins(network, all_l, max_joins)
            for network in networks
        ):
            required.append(fragment)
    return required


def minimal_fragments(tss_graph: TSSGraph) -> tuple[Fragment, ...]:
    """One single-edge fragment per TSS edge."""
    return tuple(
        single_edge_fragment(tss_graph, edge.edge_id) for edge in tss_graph.edges()
    )


def minimal_decomposition(
    tss_graph: TSSGraph, index_policy: IndexPolicy = IndexPolicy.ALL_ROTATIONS
) -> Decomposition:
    """The minimal decomposition; physical variant chosen by policy."""
    names = {
        IndexPolicy.ALL_ROTATIONS: "MinClust",
        IndexPolicy.SINGLE_COLUMN_INDEXES: "MinNClustIndx",
        IndexPolicy.NONE: "MinNClustNIndx",
    }
    return Decomposition(names[index_policy], minimal_fragments(tss_graph), index_policy)


def complete_decomposition(
    tss_graph: TSSGraph, max_network_size: int, max_joins: int
) -> Decomposition:
    """All satisfiable fragments of size up to L, MVD ones included."""
    size_bound = fragment_size_bound(max_network_size, max_joins)
    fragments = enumerate_fragments(tss_graph, size_bound)
    return Decomposition("Complete", tuple(fragments), IndexPolicy.ALL_ROTATIONS)


def maximal_decomposition(tss_graph: TSSGraph, max_network_size: int) -> Decomposition:
    """A fragment per possible candidate TSS network (zero joins).

    Infeasible in practice beyond toy sizes — exactly the paper's point —
    but useful for tests and small ablations.
    """
    fragments = enumerate_fragments(tss_graph, max_network_size)
    return Decomposition("Maximal", tuple(fragments), IndexPolicy.ALL_ROTATIONS)


def xkeyword_decomposition(
    tss_graph: TSSGraph,
    max_network_size: int,
    max_joins: int,
    networks: Sequence[TSSNetwork] | None = None,
) -> Decomposition:
    """The Figure 12 decomposition algorithm.

    1. start from all non-MVD fragments of size up to L;
    2. list the candidate TSS networks of size up to M not covered with
       at most B joins;
    3. add non-MVD fragments larger than L that cover some of them;
    4. cover the remainder with a greedy-minimal set of MVD fragments of
       size up to L.

    Steps 2 and 3 run as one pass over the networks: a network's step 2
    verdict depends only on the step 1 fragments, and step 3 visits the
    uncovered networks in enumeration order.  Coverage is decided over
    per-network edge masks (:func:`masks_cover`) that are dropped once
    the network is settled; only step 4's networks keep theirs.

    Args:
        tss_graph: The TSS graph.
        max_network_size: M, the largest candidate TSS network size.
        max_joins: B, the join bound.
        networks: Optional explicit list of networks to cover (defaults
            to every satisfiable network of size up to M).
    """
    size_bound = fragment_size_bound(max_network_size, max_joins)
    max_pieces = max_joins + 1
    universe = enumerate_fragments(tss_graph, size_bound)
    chosen: list[Fragment] = []
    mvd_pool: list[Fragment] = []
    for fragment in universe:
        if has_genuine_mvd(fragment, tss_graph):
            mvd_pool.append(fragment)
        else:
            chosen.append(fragment)
    base = list(chosen)
    chosen_names = {fragment.relation_name for fragment in chosen}

    if networks is None:
        networks = enumerate_networks(tss_graph, max_network_size)
        shapes = networks
    else:
        shapes = enumerate_networks(
            tss_graph, max((network.size for network in networks), default=0)
        )

    eligible_by_key: dict[str, bool] = {}

    def eligible(fragment: TSSNetwork) -> bool:
        """Non-MVD and not useless; both are properties of the shape."""
        key = fragment.canonical_key()
        verdict = eligible_by_key.get(key)
        if verdict is None:
            verdict = not has_genuine_mvd(fragment, tss_graph) and not is_useless(
                fragment, tss_graph
            )
            eligible_by_key[key] = verdict
        return verdict

    def union_masks(network: TSSNetwork, fragments: Sequence[Fragment]) -> set[int]:
        return set().union(*embedding_masks(network, fragments))

    def covered_with(network: TSSNetwork, masks: set[int], extra: set[int]) -> bool:
        """Do ``masks`` plus ``extra`` cover a network ``masks`` alone does not?"""
        return not extra <= masks and masks_cover(network.size, masks | extra, max_pieces)

    # Every eligible subtree of a network is itself a satisfiable network
    # of size <= M, so step 3 can only ever add one of these shapes.
    open_rescuers = [
        shape for shape in shapes if shape.size > size_bound and eligible(shape)
    ]
    rescuers: list[Fragment] = []

    # Steps 2 and 3: larger non-MVD fragments that rescue uncovered networks.
    still_pending: list[TSSNetwork] = []
    pending_masks: list[tuple[int, ...]] = []
    for network in networks:
        masks = union_masks(network, base)
        if masks_cover(network.size, masks, max_pieces):
            continue
        extra = union_masks(network, rescuers)
        covered = covered_with(network, masks, extra)
        masks |= extra
        # Without an unchosen eligible subtree there is nothing to add, so
        # skip enumerating the subtrees.
        if open_rescuers and any(embedding_masks(network, open_rescuers)):
            candidates = [
                fragment
                for fragment in subtrees_of(network, size_bound + 1, network.size)
                if eligible(fragment)
            ]
            # Prefer the smallest helpful fragment to limit space.  A
            # network already covered by earlier additions still takes
            # the first unchosen candidate (DESIGN.md fidelity notes).
            for fragment in sorted(candidates, key=lambda f: f.size):
                if fragment.relation_name in chosen_names:
                    continue
                if covered or covered_with(
                    network, masks, union_masks(network, [fragment])
                ):
                    chosen.append(fragment)
                    chosen_names.add(fragment.relation_name)
                    rescuers.append(fragment)
                    open_rescuers = [
                        shape
                        for shape in open_rescuers
                        if shape.relation_name != fragment.relation_name
                    ]
                    covered = True
                    break
        if not covered:
            still_pending.append(network)
            pending_masks.append(tuple(masks))

    # Step 4: greedy-minimal MVD fragments for whatever remains.  The
    # per-fragment contribution sets are computed once against the
    # fragment set after step 3 (coverage is monotone in the fragment
    # set), then the classic greedy set cover runs on those sets; a final
    # incremental sweep catches networks only coverable by *combinations*
    # of the newly added MVD fragments.
    if still_pending:
        contribution: dict[str, set[int]] = {
            fragment.relation_name: set() for fragment in mvd_pool
        }
        for position, network in enumerate(still_pending):
            # Fragments rescued after this network was visited count too.
            masks = set(pending_masks[position])
            extra = union_masks(network, rescuers)
            covered = covered_with(network, masks, extra)
            masks |= extra
            pending_masks[position] = tuple(masks)
            for fragment, fragment_masks in zip(
                mvd_pool, embedding_masks(network, mvd_pool)
            ):
                if covered or covered_with(network, masks, fragment_masks):
                    contribution[fragment.relation_name].add(position)
        uncovered = set(range(len(still_pending)))
        greedy: list[Fragment] = []
        while uncovered:
            best_fragment = max(
                mvd_pool,
                key=lambda f: len(contribution[f.relation_name] & uncovered),
                default=None,
            )
            if (
                best_fragment is None
                or not contribution[best_fragment.relation_name] & uncovered
            ):
                break
            chosen.append(best_fragment)
            greedy.append(best_fragment)
            mvd_pool = [
                f for f in mvd_pool if f.relation_name != best_fragment.relation_name
            ]
            uncovered -= contribution[best_fragment.relation_name]
        if uncovered:
            # Combination sweep: re-test stragglers against the grown set.
            straggler_masks = {
                position: set(pending_masks[position])
                | union_masks(still_pending[position], greedy)
                for position in uncovered
            }
            uncovered = {
                position
                for position in uncovered
                if not masks_cover(
                    still_pending[position].size,
                    straggler_masks[position],
                    max_pieces,
                )
            }
            for fragment in list(mvd_pool):
                if not uncovered:
                    break
                added = {
                    position: union_masks(still_pending[position], [fragment])
                    for position in uncovered
                }
                rescued = {
                    position
                    for position in uncovered
                    if covered_with(
                        still_pending[position], straggler_masks[position], added[position]
                    )
                }
                if rescued:
                    chosen.append(fragment)
                    uncovered -= rescued
                    for position in uncovered:
                        straggler_masks[position] |= added[position]

    # Definition 5.2 validity: every TSS edge must appear somewhere.
    used_edges = {edge.edge_id for fragment in chosen for edge in fragment.edges}
    for tss_edge in tss_graph.edges():
        if tss_edge.edge_id not in used_edges:
            chosen.append(single_edge_fragment(tss_graph, tss_edge.edge_id))

    return Decomposition("XKeyword", tuple(chosen), IndexPolicy.ALL_ROTATIONS)


def combined_decomposition(
    tss_graph: TSSGraph, max_network_size: int, max_joins: int
) -> Decomposition:
    """XKeyword plus minimal fragments — Section 6's expansion workhorse."""
    xkeyword = xkeyword_decomposition(tss_graph, max_network_size, max_joins)
    minimal = minimal_decomposition(tss_graph)
    return xkeyword.union(minimal, name="Combined")


def inlined_only_decomposition(
    tss_graph: TSSGraph, max_network_size: int, max_joins: int
) -> Decomposition:
    """The Figure 12 decomposition *without* gratuitous single edges.

    Figure 16(b) compares presentation-graph expansion over the pure
    "inlined, non-MVD" decomposition against the minimal one: adjacency
    probes must then pay for the wider relations.  See
    :func:`inlined_only_from`.
    """
    return inlined_only_from(
        xkeyword_decomposition(tss_graph, max_network_size, max_joins)
    )


def inlined_only_from(xkeyword: Decomposition) -> Decomposition:
    """The "Inlined" decomposition derived from a built XKeyword one.

    Single-edge fragments are kept only where an edge appears in no
    wider fragment (otherwise Definition 5.2 validity would break).
    Callers that already hold the XKeyword decomposition use this to
    avoid running the Figure 12 algorithm a second time.
    """
    wide = [fragment for fragment in xkeyword.fragments if fragment.size > 1]
    covered = {edge.edge_id for fragment in wide for edge in fragment.edges}
    keep = list(wide) + [
        fragment
        for fragment in xkeyword.fragments
        if fragment.size == 1 and fragment.edges[0].edge_id not in covered
    ]
    return Decomposition("Inlined", tuple(keep), xkeyword.index_policy)
