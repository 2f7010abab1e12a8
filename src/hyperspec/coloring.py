"""2-colorability decision, constructive 3-coloring, and cover numbers.

The exact solver is a DPLL loop with not-all-equal unit propagation (once
all but one vertex of an edge share a color, the last is forced to the
other) on two vertex bitmasks, one per color; a backtrack restores the two
masks its decision frame saved. Results are a tri-state; `UNKNOWN` is
returned when the :class:`~hyperspec.core.Budget` runs out, names the limit
that did, and is never silently coerced. A `COLORABLE` answer always
carries a witness that has been re-checked with :func:`monochromatic_edge`,
and `NOT_COLORABLE` is only reported after the search tree is exhausted.
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import BLOCK_BYTES, Budget, Hypergraph, is_intersecting, is_uniform
from .core import pack_words, vertices_of
from .errors import (
    CompositionWitnessError,
    InvalidParameterError,
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
    budget_tripped: Optional[str]  # "nodes" or "ms" when UNKNOWN, else None


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


def find_2_coloring(
    h: Hypergraph,
    budget_nodes: Optional[int] = DEFAULT_NODE_BUDGET,
    budget_ms: Optional[float] = None,
) -> ColorResult:
    """DPLL 2-coloring search with not-all-equal propagation.

    Branch order is descending vertex degree with index tie-breaks; the
    first decision tries only color 0 (complementing a proper coloring
    keeps it proper, so this halves the tree without losing refutations).
    Decisions live on an explicit stack, so the depth is not bounded by the
    interpreter's recursion limit. One node is counted per decision.
    """
    budget = Budget(budget_nodes, budget_ms)
    n = h.num_vertices
    bits = [1 << v for v in range(n)]
    vert_edges: list[list[int]] = [[] for _ in range(n)]
    for m in h.edge_masks:
        for v in vertices_of(m):
            vert_edges[v].append(m)
    order = sorted(range(n), key=lambda v: (-len(vert_edges[v]), v))

    def propagate(v: int, c: int, col: list[int]) -> bool:
        # Color v with c in ``col`` and close under propagation; False on a
        # monochromatic edge. Forcing adds only vertices of color 1 - c, so
        # ``free`` (the vertices not colored c) holds for a whole scan.
        col[c] |= bits[v]
        queue = [(v, c)]
        for v, c in queue:
            free = ~col[c]
            other = col[1 - c]
            for m in vert_edges[v]:
                if m & other:
                    continue
                rest = m & free
                if rest & (rest - 1):
                    continue
                if not rest:
                    return False
                other |= rest
                queue.append((rest.bit_length() - 1, 1 - c))
            col[1 - c] = other
        return True

    # One frame per open decision: (order position, the color masks before
    # it, color tried). Backtracking restores the two masks.
    col = [0, 0]
    frames: list[tuple[int, int, int, int]] = []
    pos = 0
    while True:
        assigned = col[0] | col[1]
        while pos < n and assigned & bits[order[pos]]:
            pos += 1
        if pos == n:
            status = ColorStatus.COLORABLE
            break
        if not budget.step():
            status = ColorStatus.UNKNOWN
            break
        if not vert_edges[order[pos]]:
            # Vertices in no edge come last in the order and never conflict:
            # each is one decision, keeps color 0 and needs no frame.
            pos += 1
            continue
        frames.append((pos, col[0], col[1], 0))
        while frames:
            pos, c0, c1, c = frames[-1]
            col = [c0, c1]
            if propagate(order[pos], c, col):
                break
            # Conflict: back to the deepest decision that has color 1 left
            # to try; the first decision has none.
            while frames and (frames[-1][3] or len(frames) == 1):
                frames.pop()
            if frames:
                frames[-1] = (*frames[-1][:3], 1)
        if not frames:
            status = ColorStatus.NOT_COLORABLE
            break
        pos += 1

    witness = None
    if status is ColorStatus.COLORABLE:
        witness = tuple(1 if col[1] & b else 0 for b in bits)
        if monochromatic_edge(h, witness) is not None:
            raise AssertionError("solver produced an improper coloring")
    return ColorResult(status, witness, budget.spent, budget.elapsed_ms(), budget.tripped)


def random_refute(h: Hypergraph, trials: int, seed: int) -> RefuteReport:
    """Sample uniform 2-colorings; report how often a monochromatic edge
    appears and the mean number of monochromatic edges per trial.

    Trial t colors vertex v by bit v of the t-th ``getrandbits(n)`` draw. Bit t of
    row v of ``ones`` (``zeros``) is set iff trial t gives v color 1 (0); row n is
    set on every trial in both, so edges are padded to one width with vertex n."""
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    rng = random.Random(seed)
    n = h.num_vertices
    verts = [h.edge_vertices(i) for i in range(h.num_edges)]
    width = max(map(len, verts), default=1)
    padded = np.array([vs + (n,) * (width - len(vs)) for vs in verts], dtype=np.intp).reshape(-1, width)
    # Bytes per word of 64 trials: ~160 per vertex (draw bits, color rows), ~40 per edge.
    step = 64 * max(1, BLOCK_BYTES // (160 * (n + 1) + 40 * len(verts)))
    mono_trials = total_mono = 0
    for done in range(0, trials, step):
        count = min(step, trials - done)
        draws = pack_words([rng.getrandbits(n) | 1 << n for _ in range(count)], n + 1).view(np.uint8)
        bits = np.zeros((n + 1, -(-count // 64) * 64), dtype=np.uint8)
        bits[:, :count] = np.unpackbits(draws, axis=1, count=n + 1, bitorder="little").T
        ones = np.packbits(bits, axis=1, bitorder="little").view("<u8")
        zeros = ones ^ ones[n]
        zeros[n] = ones[n]
        mono, zero = ones[padded[:, 0]], zeros[padded[:, 0]]
        for column in padded.T[1:]:
            mono &= ones[column]
            zero &= zeros[column]
        mono |= zero
        total_mono += int(np.bitwise_count(mono).sum())
        mono_trials += int(np.bitwise_count(np.bitwise_or.reduce(mono, axis=0)).sum())
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
    greedy upper bound and a disjoint-edge matching lower bound. The
    depth-first search runs on an explicit stack, one node per visit.
    """
    masks = list(h.edge_masks)
    if not masks:
        return 0
    budget = Budget(budget_nodes, budget_ms)

    def greedy_cover() -> int:
        uncovered = masks
        size = 0
        while uncovered:
            # The vertex in most uncovered edges, the smallest on ties.
            hits = Counter(v for m in uncovered for v in vertices_of(m))
            bit = 1 << min(hits, key=lambda v: (-hits[v], v))
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
    # Each entry is a node still to visit: (cover size, the parent's
    # uncovered edges, the bit of the vertex the node adds to the cover).
    stack: list[tuple[int, list[int], int]] = [(0, masks, 0)]
    while stack:
        chosen, parent, bit = stack.pop()
        if not budget.step():
            return None
        uncovered = [m for m in parent if not m & bit]
        if not uncovered:
            best = min(best, chosen)
            continue
        if chosen + matching_bound(uncovered) >= best:
            continue
        pivot = min(uncovered, key=lambda m: m.bit_count())
        # Reversed, so children are visited in ascending vertex order.
        stack.extend((chosen + 1, uncovered, 1 << v) for v in reversed(vertices_of(pivot)))
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
