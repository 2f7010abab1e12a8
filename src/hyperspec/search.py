"""Small-scale search for uniform, intersecting, non-2-colorable
hypergraphs minimizing the number of distinct intersection sizes.

The exhaustive path enumerates families in lexicographic edge order inside
an iterative-deepening loop over the spectrum-size target. Adding an edge
can only grow the set of intersection sizes, so every family whose final
spectrum fits the target survives the per-prefix cap, and a completed pass
covers all of them. Witnesses are canonicalized up to vertex relabeling:
in the minimum-lexicographic representative the first edge is
{0, ..., k-1} and new vertices appear consecutively, which the enumeration
enforces. The first witness found at the lowest feasible target therefore
proves the minimum over the whole space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from typing import Optional

from .coloring import ColorStatus, find_2_coloring
from .core import Budget, Hypergraph, intersection_sizes, intersection_spectrum, is_intersecting, pack_words
from .core import pair_size_counts, row_masks, vertices_of
from .errors import InvalidParameterError
from .rng import DEFAULT_SEED, substream

__all__ = [
    "SearchReport",
    "min_spectrum_search",
    "canonical_form",
    "are_isomorphic",
    "invariant_signature",
]

_CANONICAL_VERTEX_CAP = 9


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
    sequence, sorted edge sizes, and the sorted pairwise intersection
    multiset."""
    degrees = sorted(h.degree(v) for v in range(h.num_vertices))
    sizes = sorted(m.bit_count() for m in h.edge_masks)
    pairs = [size for size, c in pair_size_counts(h.edge_masks).items() for _ in range(c)]
    return (h.num_vertices, tuple(degrees), tuple(sizes), tuple(pairs))


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
    seed: int
    budget_tripped: Optional[str]  # "nodes", "ms", or None

    def to_json(self, include_timings: bool = True) -> dict:
        out = {
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
            "seed": self.seed,
        }
        if include_timings:
            out["timings"] = {"elapsed_ms": self.elapsed_ms}
        return out


def min_spectrum_search(
    k: int,
    max_vertices: int,
    budget_ms: Optional[float] = None,
    budget_nodes: Optional[int] = None,
    seed: int = DEFAULT_SEED,
) -> SearchReport:
    """Minimize the spectrum size over intersecting k-uniform
    non-2-colorable hypergraphs on at most ``max_vertices`` vertices.

    Exhaustive (iterative deepening over the spectrum-size target) up to 10
    vertices; beyond that a seeded randomized local search over edge swaps
    reports a best-effort witness with ``exhaustive=False``. Both count
    nodes on one :class:`~hyperspec.core.Budget`: a search-tree node in the
    exhaustive path, a restart in the local search.
    """
    if k < 2 or max_vertices < k:
        raise InvalidParameterError("need k >= 2 and max_vertices >= k")
    if max_vertices <= 10:
        return _exhaustive_search(k, max_vertices, Budget(budget_nodes, budget_ms), seed)
    return _local_search(k, max_vertices, budget_ms, Budget(budget_nodes), seed)


def _exhaustive_search(k: int, max_vertices: int, budget: Budget, seed: int) -> SearchReport:
    all_edges = list(combinations(range(max_vertices), k))
    edge_masks = [sum(1 << v for v in e) for e in all_edges]
    min_edges_needed = 2 ** (k - 1)  # below this a random coloring works
    # by_size[i][s]: the edges j with |e_i & e_j| = s, as an edge-index mask.
    rows = pack_words(edge_masks, max_vertices)
    pair_sizes = intersection_sizes(rows, rows)
    by_size = list(zip(*(row_masks(pair_sizes == s) for s in range(k))))
    # allowed[u]: the edges whose vertices >= u are u, u + 1, ... in order.
    # New vertices must extend the used prefix consecutively; the min-lex
    # representative of every isomorphism class does.
    allowed = [
        sum(1 << i for i, e in enumerate(all_edges) if e[-1] < u + sum(v >= u for v in e))
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
                family = Hypergraph(used, [all_edges[i] for i in chosen])
                result = find_2_coloring(family, budget_nodes=10**6)
                if result.status is ColorStatus.UNKNOWN:
                    raise AssertionError("solver must close on tiny instances")
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
            used = max(used, all_edges[ci][-1] + 1)

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
        seed=seed,
        budget_tripped=budget.tripped,
    )


def _local_search(
    k: int,
    max_vertices: int,
    budget_ms: Optional[float],
    budget: Budget,
    seed: int,
) -> SearchReport:
    # The restart count is derived from the budget value, not the clock,
    # so identical (flags, seed) runs produce identical reports.
    rng = substream(seed, "local-search")
    restarts = max(1, int((budget_ms if budget_ms is not None else 2000.0) / 20.0))
    best: Optional[Hypergraph] = None
    best_r: Optional[int] = None

    def random_intersecting_family() -> Optional[Hypergraph]:
        edges: list[tuple[int, ...]] = []
        masks: list[int] = []
        attempts = 0
        goal = 3 * 2 ** (k - 1)
        while len(edges) < goal and attempts < 40 * goal:
            attempts += 1
            edge = tuple(sorted(rng.sample(range(max_vertices), k)))
            mask = sum(1 << v for v in edge)
            if edge in edges or any(not (mask & m) for m in masks):
                continue
            edges.append(edge)
            masks.append(mask)
        if len(edges) < 2 ** (k - 1):
            return None
        return Hypergraph(max_vertices, edges)

    for _ in range(restarts):
        if not budget.step():
            break
        candidate = random_intersecting_family()
        if candidate is None:
            continue
        result = find_2_coloring(candidate, budget_nodes=200_000)
        if result.status is not ColorStatus.NOT_COLORABLE:
            continue
        r = intersection_spectrum(candidate).r
        if best_r is None or r < best_r:
            best, best_r = candidate, r
        # Edge-swap descent: drop one edge, try a replacement that keeps
        # the family intersecting and non-2-colorable with a smaller
        # spectrum.
        for _ in range(20):
            edges = [tuple(sorted(e)) for e in best.edges()]
            i = rng.randrange(len(edges))
            replacement = tuple(sorted(rng.sample(range(max_vertices), k)))
            if replacement in edges:
                continue
            trial_edges = edges[:i] + [replacement] + edges[i + 1 :]
            trial = Hypergraph(max_vertices, trial_edges)
            if not is_intersecting(trial):
                continue
            res = find_2_coloring(trial, budget_nodes=200_000)
            if res.status is not ColorStatus.NOT_COLORABLE:
                continue
            r = intersection_spectrum(trial).r
            if best_r is None or r < best_r:
                best, best_r = trial, r

    return SearchReport(
        k=k,
        max_vertices=max_vertices,
        edge_space=comb(max_vertices, k),
        best_spectrum_size=best_r,
        witness=best,
        m_tilde_estimate=best.num_edges if best else None,
        exhaustive=False,
        nodes=budget.spent,
        elapsed_ms=budget.elapsed_ms(),
        method="local-search",
        seed=seed,
        budget_tripped=budget.tripped,
    )
