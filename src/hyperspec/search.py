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
from .core import Budget, Hypergraph, intersection_spectrum, is_intersecting, pair_size_counts, vertices_of
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


def _solver_confirms(edges: list[tuple[int, ...]], used_vertices: int) -> Optional[Hypergraph]:
    candidate = Hypergraph(used_vertices, edges)
    result = find_2_coloring(candidate, budget_nodes=10**6)
    if result.status is ColorStatus.UNKNOWN:
        raise AssertionError("solver must close on tiny instances")
    if result.status is ColorStatus.NOT_COLORABLE:
        return candidate
    return None


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

    def extend(
        chosen: list[int],
        sizes: frozenset[int],
        used_vertices: int,
        cand_start: int,
        target: int,
    ) -> Optional[Hypergraph]:
        """The first witness below this prefix, or None once the prefix is
        exhausted or the budget trips."""
        if not budget.step():
            return None
        if len(chosen) >= min_edges_needed:
            witness = _solver_confirms([all_edges[i] for i in chosen], used_vertices)
            if witness is not None:
                return witness
        for ci in range(cand_start, len(all_edges)):
            cmask = edge_masks[ci]
            cedge = all_edges[ci]
            # New vertices must extend the used prefix consecutively; the
            # min-lex representative of every isomorphism class does.
            fresh = [v for v in cedge if v >= used_vertices]
            if fresh and fresh != list(range(used_vertices, used_vertices + len(fresh))):
                continue
            new_sizes = sizes
            ok = True
            for ei in chosen:
                inter = (edge_masks[ei] & cmask).bit_count()
                if inter == 0:
                    ok = False
                    break
                if inter not in new_sizes:
                    new_sizes = new_sizes | {inter}
            if not ok or len(new_sizes) > target:
                continue
            chosen.append(ci)
            witness = extend(
                chosen,
                frozenset(new_sizes),
                max(used_vertices, cedge[-1] + 1),
                ci + 1,
                target,
            )
            chosen.pop()
            if witness is not None or budget.tripped:
                return witness
        return None

    witness: Optional[Hypergraph] = None
    for target in range(1, k):
        # Edge 0 in lexicographic order is {0, ..., k-1}.
        witness = extend([0], frozenset(), k, 1, target)
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
