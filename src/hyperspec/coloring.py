"""2-colorability decision, constructive 3-coloring, and cover numbers.

The exact solver is a backtracking search over vertex assignments with
not-all-equal unit propagation: once all but one vertex of an edge share a
color, the last vertex is forced to the other color. Results are a
tri-state; `UNKNOWN` is returned on budget exhaustion and never silently
coerced. A `COLORABLE` answer always carries a witness that has been
re-checked with :func:`monochromatic_edge`, and `NOT_COLORABLE` is only
reported after the search tree is exhausted.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import BLOCK_BYTES, Hypergraph, intersection_sizes, is_intersecting, is_uniform
from .core import pack_words, vertices_of
from .errors import (
    CompositionWitnessError,
    LengthMismatchError,
    NotIntersectingError,
    NonUniformError,
)

__all__ = [
    "ColorStatus",
    "ColorResult",
    "RefuteReport",
    "monochromatic_edge",
    "find_2_coloring",
    "random_refute",
    "three_coloring_intersecting",
    "cover_number",
    "compositional_mono_edge",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_NODE_BUDGET = 10**8


class ColorStatus(str, enum.Enum):
    COLORABLE = "colorable"
    NOT_COLORABLE = "not_colorable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ColorResult:
    status: ColorStatus
    coloring: Optional[tuple[int, ...]]
    nodes: int
    elapsed_ms: float


@dataclass(frozen=True)
class RefuteReport:
    trials: int
    seed: int
    mono_trials: int
    total_mono_edges: int
    mono_fraction: float
    mean_mono_edges: float


def monochromatic_edge(h: Hypergraph, coloring: Sequence[int]) -> Optional[int]:
    """Smallest index of an edge whose vertices all share one color."""
    if len(coloring) != h.num_vertices:
        raise LengthMismatchError(
            f"coloring has {len(coloring)} entries, hypergraph has {h.num_vertices} vertices"
        )
    color_masks: dict[int, int] = {}
    for v, c in enumerate(coloring):
        color_masks[c] = color_masks.get(c, 0) | (1 << v)
    for i, m in enumerate(h.edge_masks):
        first = (m & -m).bit_length() - 1
        if m & color_masks[coloring[first]] == m:
            return i
    return None


class _BudgetExhausted(Exception):
    pass


def find_2_coloring(
    h: Hypergraph,
    budget_nodes: Optional[int] = DEFAULT_NODE_BUDGET,
    budget_ms: Optional[float] = None,
) -> ColorResult:
    """Backtracking 2-coloring search with not-all-equal propagation.

    Branch order is descending vertex degree with index tie-breaks; the
    first decision tries only color 0 (complementing a proper coloring
    keeps it proper, so this halves the tree without losing refutations).
    """
    start = time.monotonic()
    n = h.num_vertices
    edge_verts = [vertices_of(m) for m in h.edge_masks]
    vert_edges: list[list[int]] = [[] for _ in range(n)]
    for ei, vs in enumerate(edge_verts):
        for v in vs:
            vert_edges[v].append(ei)
    order = sorted(range(n), key=lambda v: (-len(vert_edges[v]), v))

    assign = [-1] * n
    counts = [[0, 0] for _ in edge_verts]
    sizes = [len(vs) for vs in edge_verts]
    trail: list[int] = []
    nodes = 0

    def propagate(v0: int, c0: int) -> bool:
        queue = [(v0, c0)]
        qi = 0
        while qi < len(queue):
            v, c = queue[qi]
            qi += 1
            cur = assign[v]
            if cur == c:
                continue
            if cur == 1 - c:
                return False
            assign[v] = c
            trail.append(v)
            conflict = False
            for ei in vert_edges[v]:
                # Complete every increment even after a conflict so undo()
                # can decrement all of v's edges symmetrically.
                ec = counts[ei]
                ec[c] += 1
                if ec[c] == sizes[ei]:
                    conflict = True
                elif not conflict and ec[c] == sizes[ei] - 1 and ec[1 - c] == 0:
                    for u in edge_verts[ei]:
                        if assign[u] == -1:
                            queue.append((u, 1 - c))
                            break
            if conflict:
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v = trail.pop()
            c = assign[v]
            assign[v] = -1
            for ei in vert_edges[v]:
                counts[ei][c] -= 1

    def search(hint: int) -> bool:
        nonlocal nodes
        pos = hint
        while pos < n and assign[order[pos]] != -1:
            pos += 1
        if pos == n:
            return True
        v = order[pos]
        first_decision = not trail
        nodes += 1
        if budget_nodes is not None and nodes > budget_nodes:
            raise _BudgetExhausted
        if budget_ms is not None and (time.monotonic() - start) * 1000.0 > budget_ms:
            raise _BudgetExhausted
        for c in (0,) if first_decision else (0, 1):
            mark = len(trail)
            if propagate(v, c) and search(pos + 1):
                return True
            undo(mark)
        return False

    try:
        found = search(0)
    except _BudgetExhausted:
        return ColorResult(
            ColorStatus.UNKNOWN, None, nodes, (time.monotonic() - start) * 1000.0
        )
    elapsed = (time.monotonic() - start) * 1000.0
    if found:
        witness = tuple(c if c != -1 else 0 for c in assign)
        if monochromatic_edge(h, witness) is not None:
            raise AssertionError("solver produced an improper coloring")
        return ColorResult(ColorStatus.COLORABLE, witness, nodes, elapsed)
    return ColorResult(ColorStatus.NOT_COLORABLE, None, nodes, elapsed)


def random_refute(h: Hypergraph, trials: int, seed: int) -> RefuteReport:
    """Sample uniform 2-colorings; report how often a monochromatic edge
    appears and the mean number of monochromatic edges per trial."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    n = h.num_vertices
    words = pack_words(h.edge_masks, n)
    edge_sizes = intersection_sizes(pack_words([(1 << n) - 1], n), words)[0]
    step = max(1, BLOCK_BYTES // max(8, words.nbytes))
    mono_trials = 0
    total_mono = 0
    for done in range(0, trials, step):
        # One getrandbits(n) draw per trial, in trial order, colors vertex v
        # by bit v; an edge is monochromatic iff it meets color 1 in 0 or all.
        ones = pack_words([rng.getrandbits(n) for _ in range(min(step, trials - done))], n)
        sizes = intersection_sizes(ones, words)
        mono = ((sizes == 0) | (sizes == edge_sizes)).sum(axis=1)
        total_mono += int(mono.sum())
        mono_trials += int(np.count_nonzero(mono))
    return RefuteReport(
        trials=trials,
        seed=seed,
        mono_trials=mono_trials,
        total_mono_edges=total_mono,
        mono_fraction=mono_trials / trials,
        mean_mono_edges=total_mono / trials,
    )


def three_coloring_intersecting(h: Hypergraph) -> tuple[int, ...]:
    """Proper 3-coloring of a uniform intersecting hypergraph: color one
    edge with {1, 2} and everything else 0."""
    k = is_uniform(h)
    if k is None:
        raise NonUniformError("three-coloring needs a uniform hypergraph")
    if not is_intersecting(h):
        raise NotIntersectingError("three-coloring needs an intersecting hypergraph")
    if k < 2:
        raise ValueError("a size-1 edge is monochromatic under every coloring")
    colors = [0] * h.num_vertices
    anchor = h.edge_vertices(0)
    colors[anchor[0]] = 1
    for v in anchor[1:]:
        colors[v] = 2
    witness = tuple(colors)
    if monochromatic_edge(h, witness) is not None:
        raise AssertionError("three-coloring construction failed")
    return witness


def cover_number(
    h: Hypergraph,
    budget_nodes: Optional[int] = 10**7,
    budget_ms: Optional[float] = None,
) -> Optional[int]:
    """Minimum vertex-cover size by branch and bound, or None on budget
    exhaustion.

    Branches on the vertices of a smallest uncovered edge; prunes with a
    greedy upper bound and a disjoint-edge matching lower bound.
    """
    masks = list(h.edge_masks)
    if not masks:
        return 0
    start = time.monotonic()
    nodes = 0

    def greedy_cover() -> int:
        uncovered = masks
        size = 0
        while uncovered:
            best_v, best_hits = -1, -1
            seen = 0
            for m in uncovered:
                seen |= m
            for v in vertices_of(seen):
                bit = 1 << v
                hits = sum(1 for m in uncovered if m & bit)
                if hits > best_hits:
                    best_v, best_hits = v, hits
            bit = 1 << best_v
            uncovered = [m for m in uncovered if not m & bit]
            size += 1
        return size

    def matching_bound(uncovered: list[int]) -> int:
        taken = 0
        count = 0
        for m in uncovered:
            if not m & taken:
                taken |= m
                count += 1
        return count

    best = greedy_cover()

    def branch(chosen: int, uncovered: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if budget_nodes is not None and nodes > budget_nodes:
            raise _BudgetExhausted
        if budget_ms is not None and (time.monotonic() - start) * 1000.0 > budget_ms:
            raise _BudgetExhausted
        if not uncovered:
            best = min(best, chosen)
            return
        if chosen + matching_bound(uncovered) >= best:
            return
        pivot = min(uncovered, key=lambda m: m.bit_count())
        for v in vertices_of(pivot):
            bit = 1 << v
            branch(chosen + 1, [m for m in uncovered if not m & bit])

    try:
        branch(0, masks)
    except _BudgetExhausted:
        return None
    return best


def compositional_mono_edge(
    outer: Hypergraph,
    inner: Hypergraph,
    composed: Hypergraph,
    coloring: Sequence[int],
) -> int:
    """Locate a monochromatic edge of ``composed = compose(outer, inner)``
    under any 2-coloring, via the product structure.

    Each copy of the inner hypergraph must contain a monochromatic inner
    edge (inner is not 2-colorable); coloring each outer vertex by its
    copy's forced color, some outer edge is monochromatic too, and the
    union of its copies' forced inner edges is the certificate.
    """
    n2 = inner.num_vertices
    if len(coloring) != composed.num_vertices or outer.num_vertices * n2 != composed.num_vertices:
        raise LengthMismatchError("coloring/composition size mismatch")
    forced: list[tuple[int, int]] = []  # per copy: (inner edge index, color)
    for a in range(outer.num_vertices):
        base = a * n2
        hit = -1
        for j, m in enumerate(inner.edge_masks):
            vs = vertices_of(m)
            c = coloring[base + vs[0]]
            if all(coloring[base + v] == c for v in vs[1:]):
                hit = j
                break
        if hit < 0:
            raise CompositionWitnessError(f"copy {a} has no monochromatic inner edge")
        forced.append((hit, coloring[base + vertices_of(inner.edge_masks[hit])[0]]))
    induced = [color for _, color in forced]
    outer_hit = monochromatic_edge(outer, induced)
    if outer_hit is None:
        raise CompositionWitnessError("no monochromatic outer edge in the induced coloring")
    edge: list[int] = []
    for a in outer.edge_vertices(outer_hit):
        inner_idx, _ = forced[a]
        base = a * n2
        edge.extend(base + v for v in vertices_of(inner.edge_masks[inner_idx]))
    idx = composed.index_of(edge)
    if idx is None:
        raise CompositionWitnessError("assembled edge is not present in the composition")
    m = composed.edge_mask(idx)
    c = coloring[vertices_of(m)[0]]
    if any(coloring[v] != c for v in vertices_of(m)):
        raise AssertionError("assembled edge is not monochromatic")
    return idx
