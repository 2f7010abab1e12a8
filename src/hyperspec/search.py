"""Small-scale search for uniform, intersecting, non-2-colorable
hypergraphs minimizing the number of distinct intersection sizes.

The search enumerates families in lexicographic edge order inside an
iterative-deepening loop over the spectrum-size target. Adding an edge
can only grow the set of intersection sizes, so every family whose final
spectrum fits the target survives the per-prefix cap, and a completed pass
covers all of them. Witnesses are canonicalized up to vertex relabeling:
in the minimum-lexicographic representative the first edge is
{0, ..., k-1} and new vertices appear consecutively, which the enumeration
enforces at every vertex count. The first witness found at the lowest
feasible target therefore proves the minimum over the whole space. A run
either completes (``exhaustive``) or names the budget limit that stopped
it; the candidate edge space is capped at ``EDGE_SPACE_CAP`` edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from typing import Optional

from .coloring import ColorStatus, find_2_coloring
from .core import Budget, Hypergraph, intersection_sizes, intersection_spectrum, pack_words
from .core import mask_of, pair_size_counts, row_masks, vertices_of
from .errors import InvalidParameterError

__all__ = [
    "SearchReport",
    "min_spectrum_search",
    "canonical_form",
    "are_isomorphic",
    "invariant_signature",
]

_CANONICAL_VERTEX_CAP = 9

# The per-edge size masks take about C(n, k)^2 bytes: peak RSS is about
# 60 MB at 2,000 candidate edges, and at C(16, 8) = 12,870 the size matrix
# alone would take 166 MB.
EDGE_SPACE_CAP = 2048


def canonical_form(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Minimum lexicographic edge list over all vertex permutations.

    Brute force over n! relabelings; capped at 9 vertices. Use
    :func:`invariant_signature` as a cheap prefilter for larger inputs.
    """
    n = h.num_vertices
    if n > _CANONICAL_VERTEX_CAP:
        raise ValueError(f"canonical form supported up to {_CANONICAL_VERTEX_CAP} vertices")
    edge_tuples = [vertices_of(m) for m in h.edge_masks]
    best: Optional[tuple[tuple[int, ...], ...]] = None
    for perm in permutations(range(n)):
        candidate = tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edge_tuples))
        if best is None or candidate < best:
            best = candidate
    return best if best is not None else ()


def invariant_signature(h: Hypergraph) -> tuple:
    """Cheap permutation-invariant fingerprint: vertex count, sorted degree
    sequence, sorted edge sizes, and the pairwise intersection multiset as
    ascending (size, pair count) items."""
    degrees = sorted(h.degree(v) for v in range(h.num_vertices))
    sizes = sorted(m.bit_count() for m in h.edge_masks)
    pairs = tuple(pair_size_counts(h.edge_masks).items())
    return (h.num_vertices, tuple(degrees), tuple(sizes), pairs)


def are_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Signature prefilter followed by exact canonical-form comparison."""
    if invariant_signature(h1) != invariant_signature(h2):
        return False
    return canonical_form(h1) == canonical_form(h2)


@dataclass(frozen=True)
class SearchReport:
    k: int
    max_vertices: int
    edge_space: int
    best_spectrum_size: Optional[int]
    witness: Optional[Hypergraph]
    m_tilde_estimate: Optional[int]
    exhaustive: bool
    nodes: int
    elapsed_ms: float
    method: str
    budget_tripped: Optional[str]  # "nodes", "ms", or None

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "max_vertices": self.max_vertices,
            "edge_space": self.edge_space,
            "best_spectrum_size": self.best_spectrum_size,
            "witness_edges": self.witness.num_edges if self.witness else None,
            "witness_vertices": self.witness.num_vertices if self.witness else None,
            "witness": sorted(sorted(e) for e in self.witness.edges())
            if self.witness
            else None,
            "m_tilde_estimate": self.m_tilde_estimate,
            "exhaustive": self.exhaustive,
            "nodes": self.nodes,
            "budget_tripped": self.budget_tripped,
            "method": self.method,
            "timings": {"elapsed_ms": self.elapsed_ms},
        }


def min_spectrum_search(
    k: int,
    max_vertices: int,
    budget_ms: Optional[float] = None,
    budget_nodes: Optional[int] = None,
) -> SearchReport:
    """Minimize the spectrum size over intersecting k-uniform
    non-2-colorable hypergraphs on at most ``max_vertices`` vertices.

    Iterative deepening over the spectrum-size target at every size, one
    search-tree node per :class:`~hyperspec.core.Budget` step. The report is
    exhaustive unless the node or millisecond limit trips, which
    ``budget_tripped`` names. :func:`~hyperspec.coloring.find_2_coloring`
    solves families with no node limit, outside ``nodes``. The search keeps per-edge masks over all
    C(max_vertices, k) candidate edges, so its memory grows as the square of
    that count; above ``EDGE_SPACE_CAP`` candidates it raises
    :class:`~hyperspec.errors.InvalidParameterError`. The search draws
    nothing, so it takes no seed.
    """
    if k < 2 or max_vertices < k:
        raise InvalidParameterError("need k >= 2 and max_vertices >= k")
    if comb(max_vertices, k) > EDGE_SPACE_CAP:
        raise InvalidParameterError(
            f"C({max_vertices}, {k}) = {comb(max_vertices, k)} candidate edges exceeds the cap of {EDGE_SPACE_CAP}"
        )
    budget = Budget(budget_nodes, budget_ms)
    edge_masks = list(map(mask_of, combinations(range(max_vertices), k)))
    min_edges_needed = 2 ** (k - 1)  # below this a random coloring works
    # by_size[i][s]: the edges j with |e_i & e_j| = s, as an edge-index mask.
    rows = pack_words(edge_masks, max_vertices)
    pair_sizes = intersection_sizes(rows, rows)
    by_size = list(zip(*(row_masks(pair_sizes == s) for s in range(k))))
    # allowed[u]: the edges whose vertices >= u are u, u + 1, ... in order,
    # that is, whose mask shifted down by u is a run of low bits. New
    # vertices must extend the used prefix consecutively; the min-lex
    # representative of every isomorphism class does.
    allowed = [
        sum(1 << i for i, m in enumerate(edge_masks) if (m >> u) & ((m >> u) + 1) == 0)
        for u in range(max_vertices + 1)
    ]

    def first_witness(target: int) -> Optional[Hypergraph]:
        """Depth-first over the families that extend edge 0 and keep at most
        ``target`` intersection sizes: the first non-2-colorable one, or None
        once they are exhausted or the budget trips.

        A node's state is its edge list ``chosen``, the bitmask ``sizes`` of
        its intersection sizes, ``meets[s]`` (the edges meeting some chosen
        edge in exactly s vertices), the used vertex count, and ``ones``,
        the color-1 vertices of a proper coloring of the family (None until
        the solver has run). Each open node keeps a frame holding its state
        and the candidates it has still to visit.
        """
        chosen = [0]  # edge 0 in lexicographic order is {0, ..., k-1}
        sizes, meets, used, ones = 0, by_size[0], k, None
        frames: list[tuple[int, int, tuple[int, ...], int, Optional[int]]] = []
        while True:
            if not budget.step():
                return None
            new = edge_masks[chosen[-1]]
            # A coloring of the parent stays proper unless the new edge is
            # monochromatic under it (fresh vertices have color 0).
            if len(chosen) >= min_edges_needed and (ones is None or (new & ones) in (0, new)):
                family = Hypergraph.from_masks(used, [edge_masks[i] for i in chosen])
                result = find_2_coloring(family, budget_nodes=None)
                if result.status is ColorStatus.NOT_COLORABLE:
                    return family
                ones = sum(1 << v for v, c in enumerate(result.coloring) if c)
            start = chosen[-1] + 1
            cands = (allowed[used] & ~meets[0]) >> start << start
            # Drop the candidates that would add more new sizes than the
            # target leaves room for: at_least[j] holds the candidates in at
            # least j of the masks meets[s] over the sizes s not yet present.
            room = target - sizes.bit_count()
            at_least = [cands] + [0] * (room + 1)
            for s in range(1, k):
                if not sizes >> s & 1:
                    for j in range(room + 1, 0, -1):
                        at_least[j] |= at_least[j - 1] & meets[s]
            frames.append((cands & ~at_least[-1], sizes, meets, used, ones))
            while frames and not frames[-1][0]:
                frames.pop()
            if not frames:
                return None
            cands, sizes, meets, used, ones = frames[-1]
            low = cands & -cands
            frames[-1] = (cands ^ low, sizes, meets, used, ones)
            ci = low.bit_length() - 1
            del chosen[len(frames) :]
            chosen.append(ci)
            sizes |= sum(1 << s for s in range(1, k) if meets[s] >> ci & 1)
            meets = tuple(m | b for m, b in zip(meets, by_size[ci]))
            used = max(used, edge_masks[ci].bit_length())

    witness: Optional[Hypergraph] = None
    for target in range(1, k):
        witness = first_witness(target)
        if witness is not None or budget.tripped:
            break

    return SearchReport(
        k=k,
        max_vertices=max_vertices,
        edge_space=comb(max_vertices, k),
        best_spectrum_size=intersection_spectrum(witness).r if witness is not None else None,
        witness=witness,
        m_tilde_estimate=witness.num_edges if witness is not None else None,
        exhaustive=budget.tripped is None,
        nodes=budget.spent,
        elapsed_ms=budget.elapsed_ms(),
        method="iterative-deepening",
        budget_tripped=budget.tripped,
    )
