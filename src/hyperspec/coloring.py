"""2-colorability decision, constructive 3-coloring, and cover numbers.

:func:`decide_2_coloring` first contracts modules (substitution
decomposition, Möhring and Radermacher 1984). A vertex set M is a module
when the edges meeting M are exactly {g ∪ f}, g ranging over their parts
outside M and f over their traces on M. If the traces are not 2-colorable,
M contracts to one vertex; if they are, M takes their coloring and leaves
with every edge on it. Rounds of pairwise-disjoint modules repeat on the
quotient, which is then solved. Every solve (traces and quotient) draws on
one shared :class:`~hyperspec.core.Budget`, and the result carries
``method`` ("modules", or "dpll" when no module was found) and a
:class:`ModuleCertificate` that an independent checker can re-verify.

The exact solver underneath, :func:`find_2_coloring`, is a DPLL loop with
not-all-equal unit propagation (once all but one vertex of an edge share a
color, the last is forced to the other) on two vertex bitmasks, one per
color; a backtrack restores the two masks its decision frame saved. Results
are a tri-state; `UNKNOWN` is returned when the budget runs out, names the
limit that did, and is never silently coerced. A `COLORABLE` answer always
carries a witness that has been re-checked with :func:`monochromatic_edge`,
and `NOT_COLORABLE` is only reported after the search tree is exhausted.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .core import BLOCK_BYTES, DEFAULT_NODE_BUDGET, Budget, Hypergraph, is_intersecting, is_uniform
from .core import _edge_incidences, mask_of, pack_words, vertex_edges, vertices_of
from .rng import substream
from .errors import (
    CompositionWitnessError,
    InvalidParameterError,
    LengthMismatchError,
    NotIntersectingError,
    NonUniformError,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ColorStatus",
    "ColorResult",
    "Module",
    "ModuleCertificate",
    "RefuteReport",
    "monochromatic_edge",
    "find_2_coloring",
    "decide_2_coloring",
    "random_refute",
    "three_coloring_intersecting",
    "cover_number",
    "certificate_mono_edge",
    "compositional_mono_edge",
    "DEFAULT_NODE_BUDGET",
]

_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # binary digits to the bytes 0 and 1


class ColorStatus(str, enum.Enum):
    COLORABLE = "colorable"
    NOT_COLORABLE = "not_colorable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Module:
    """A module of one round of a :class:`ModuleCertificate`: its vertices and
    its traces (the sets e ∩ M), each a mask of input vertices, and whether
    the traces are 2-colorable. A colorable module was colored by its traces'
    coloring and dropped with every edge on it; any other was contracted."""

    vertices: int
    traces: tuple[int, ...]
    colorable: bool


@dataclass(frozen=True)
class ModuleCertificate:
    """The reduction :func:`decide_2_coloring` made: the pairwise-disjoint
    modules of each round's hypergraph, and ``quotient``, what the last round
    left. Quotient vertex i stands for the input vertices in ``origins[i]``.
    The input is 2-colorable iff ``quotient`` is."""

    rounds: tuple[tuple[Module, ...], ...]
    quotient: Hypergraph
    origins: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "rounds": [
                [
                    {
                        "vertices": list(vertices_of(m.vertices)),
                        "traces": [list(vertices_of(f)) for f in m.traces],
                        "verdict": "colorable" if m.colorable else "not_colorable",
                    }
                    for m in modules
                ]
                for modules in self.rounds
            ],
            "quotient": {
                "vertices": [list(vertices_of(o)) for o in self.origins],
                "edges": [list(vertices_of(e)) for e in self.quotient.edge_masks],
            },
        }


@dataclass(frozen=True)
class ColorResult:
    status: ColorStatus
    coloring: Optional[tuple[int, ...]]
    nodes: int
    budget_tripped: Optional[str]  # "nodes" or "ms" when UNKNOWN, else None
    method: str = "dpll"  # "modules" when decide_2_coloring found a module
    certificate: Optional[ModuleCertificate] = None


@dataclass(frozen=True)
class RefuteReport:
    trials: int
    seed: int
    mono_trials: int
    total_mono_edges: int
    mono_fraction: float
    mean_mono_edges: float


def _check_length(h: Hypergraph, coloring: Sequence[int]) -> None:
    """Raise :class:`LengthMismatchError` unless ``coloring`` has one entry per vertex."""
    if len(coloring) != h.num_vertices:
        raise LengthMismatchError(
            f"coloring has {len(coloring)} entries, hypergraph has {h.num_vertices} vertices"
        )


def monochromatic_edge(h: Hypergraph, coloring: Sequence[int]) -> Optional[int]:
    """Smallest index of an edge whose vertices all share one color."""
    _check_length(h, coloring)
    digits = {c: bytearray(b"0" * len(coloring)) for c in set(coloring)}  # a binary digit per vertex, vertex 0 first
    for v, c in enumerate(coloring):
        digits[c][v] = 49  # b"1"
    color_masks = {c: int(d[::-1], 2) for c, d in digits.items()}
    for i, m in enumerate(h.edge_masks):
        first = (m & -m).bit_length() - 1
        if m & color_masks[coloring[first]] == m:
            return i
    return None


def _bits(mask: int, n: int) -> tuple[int, ...]:
    """Bits 0 to n - 1 of ``mask`` < 2^n in O(n): the digits after bit n's leading 1, reversed."""
    return tuple(format(mask | 1 << n, "b")[:0:-1].encode().translate(_DIGIT_VALUES))


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
    interpreter's recursion limit. One node is counted per decision; a
    vertex in no edge is not decided and takes color 0.
    """
    return _dpll(h, Budget(budget_nodes, budget_ms))


def _dpll(h: Hypergraph, budget: Budget, by_vertex: Optional[tuple[np.ndarray, np.ndarray]] = None) -> ColorResult:
    """:func:`find_2_coloring`'s search, drawing on (and reporting) ``budget``. Each vertex's
    edges come from ``by_vertex``, ``h``'s :func:`vertex_edges`, if given, else from each edge's unpack."""
    n = h.num_vertices
    # Only the vertices in some edge get a list and are decided; the others keep color 0.
    vert_edges: list = [()] * n
    if by_vertex is None:  # the search's tiny solves: building a list would cost them more
        used = vertices_of(reduce(or_, h.edge_masks, 0))
        for v in used:
            vert_edges[v] = []
        for m in h.edge_masks:
            for v in vertices_of(m):
                vert_edges[v].append(m)
    else:
        start, edges = by_vertex
        act = (start[1:] > start[:-1]).nonzero()[0]
        ordered = [h.edge_masks[i] for i in edges.tolist()]  # ascending edge index per vertex
        used = act.tolist()
        for v, a, b in zip(used, start[act].tolist(), start[act + 1].tolist()):
            vert_edges[v] = ordered[a:b]
    order = sorted(used, key=lambda v: (-len(vert_edges[v]), v))

    def propagate(v: int, c: int, col: list[int]) -> bool:
        # Color v with c in ``col`` and close under propagation; False on a
        # monochromatic edge. Forcing adds only vertices of color 1 - c, so
        # ``free`` (the vertices not colored c) holds for a whole scan.
        col[c] |= 1 << v
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
        while pos < len(order) and assigned >> order[pos] & 1:
            pos += 1
        if pos == len(order):
            status = ColorStatus.COLORABLE
            break
        if not budget.step():
            status = ColorStatus.UNKNOWN
            break
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
        witness = _bits(col[1], n)
        if monochromatic_edge(h, witness) is not None:
            raise AssertionError("solver produced an improper coloring")
    return ColorResult(status, witness, budget.spent, budget.tripped)


def _candidate_modules(h: Hypergraph, start: np.ndarray, edges: np.ndarray):
    """Vertex tuples that may be modules, yielded in blocks of vertices in
    order: each vertex v in some edge with its top-codegree neighbours, if a
    necessary condition holds. In a module M = {g ∪ f} with |G| outside
    parts g, every vertex x outside M has codeg(x, v) = |G_x|·|F_v| and
    deg(v) = |G|·|F_v|, where |G| divides gcd(deg(v), top codegree); so each
    nonzero codeg(x, v) is at least deg(v) / gcd(deg(v), top). Codegrees are
    counted by sorting the slots (v, x), x in an edge on v, read from the
    incidence list through ``start`` and ``edges`` (from :func:`vertex_edges`),
    in blocks of whole vertices of about ``BLOCK_BYTES // 16`` slots. Only the
    vertices in some edge are walked."""
    import numpy as np
    n = h.num_vertices
    offsets, vertices = _edge_incidences(h)
    act = np.flatnonzero(start[1:] != start[:-1])  # the vertices in some edge
    begin = np.r_[start[act], len(edges)]  # where each one's entries begin
    sizes = np.diff(offsets)[edges]
    slots = np.r_[0, np.cumsum(sizes)]  # slots[i]: the slots before entry i
    bound = slots[begin]
    a0 = 0
    while a0 < len(act):
        a1 = max(a0 + 1, int(np.searchsorted(bound, bound[a0] + BLOCK_BYTES // 16, side="right")) - 1)
        i0, i1 = begin[a0], begin[a1]
        # Pair (v, x) is (v's rank in the block)·n + x, one sorted run per v; 32-bit keys sort twice as fast.
        kind = np.int32 if (a1 - a0) * n < 2**31 else np.int64
        at = np.repeat(offsets[edges[i0:i1]] - slots[i0:i1], sizes[i0:i1])
        at += np.arange(slots[i0], slots[i1])  # each slot's place in ``vertices``
        pairs = vertices[at].astype(kind)
        pairs += np.repeat(np.arange(a1 - a0, dtype=kind) * kind(n), np.diff(bound[a0 : a1 + 1]))
        pairs.sort()
        first = np.flatnonzero(np.r_[len(pairs) > 0, pairs[1:] != pairs[:-1]])
        co = np.diff(first, append=len(pairs))
        rank, col = np.divmod(pairs[first], n)
        verts, deg = act[a0:a1], np.diff(begin[a0 : a1 + 1])
        a0 = a1
        real = col != verts[rank]  # drop v itself
        rank, col, co = rank[real], col[real], co[real]
        first = np.flatnonzero(np.r_[len(rank) > 0, rank[1:] != rank[:-1]])  # each v's codegrees
        if not len(first):
            yield []
            continue
        top = np.maximum.reduceat(co, first)
        grp = np.repeat(np.arange(len(first)), np.diff(first, append=len(co)))
        member = co == top[grp]
        size = np.bincount(grp[member], minlength=len(first)) + 1
        dv = deg[rank[first]]
        # Outside M_v codegrees are below top: none may lie in [1, deg(v) / gcd).
        least = np.minimum(top, -(-dv // np.gcd(dv, top)))
        keep = (np.minimum.reduceat(co, first) >= least) & (size < len(act))
        cols = np.split(col[member & keep[grp]], np.cumsum(size[keep] - 1)[:-1])
        yield [tuple(sorted((v, *c.tolist()))) for v, c in zip(verts[rank[first][keep]].tolist(), cols)]


def _module_traces(
    h: Hypergraph, verts: Sequence[int], start: np.ndarray, edges: np.ndarray
) -> Optional[list[tuple[int, ...]]]:
    """The traces e ∩ M of the edges e meeting M, the set of ``verts``, as
    sorted vertex tuples, if M is a module; else None. Only the edges
    on M are read (``start`` and ``edges`` from :func:`vertex_edges`). In a
    module every outside part e ∖ M comes with every trace, so with one on
    ``verts[0]``; the edges meeting M are distinct pairs (e ∖ M, e ∩ M). So M
    is a module iff every edge meeting M has an outside part of an edge on
    ``verts[0]`` and there are as many of them as such parts times traces.
    The first test stops at the first vertex of M with an edge that fails it."""
    masks = h.edge_masks
    module = mask_of(verts)
    rest = ~module
    outside = {masks[i] & rest for i in edges[start[verts[0]] : start[verts[0] + 1]].tolist()}
    meeting: set[int] = set()
    for v in verts:
        new = set(edges[start[v] : start[v + 1]].tolist()) - meeting
        if not outside.issuperset(masks[i] & rest for i in new):
            return None
        meeting |= new
    traces = {masks[i] & module for i in meeting}
    if len(meeting) != len(traces) * len(outside):
        return None
    return sorted(map(vertices_of, traces))


def _quotient(h: Hypergraph, rep: np.ndarray, gone: np.ndarray) -> tuple[Hypergraph, list[int]]:
    """``h`` without the edges on a vertex v with ``gone[v]``, every vertex v
    renamed ``rep[v]``, and the vertices left in some edge renumbered in
    order; returns it with the vertices of ``h`` that it kept, in order. Its
    edges, deduplicated in numpy, are in lexicographic order, each before its prefixes."""
    import numpy as np
    n = h.num_vertices
    offsets, vertices = _edge_incidences(h)
    sizes = np.diff(offsets)
    kept = np.repeat(~np.logical_or.reduceat(gone[vertices], offsets[:-1]), sizes)  # no edge is empty
    # The (edge, renamed vertex) pairs, sorted and each once, as keys edge·n + vertex.
    keys = np.sort(np.repeat(np.arange(len(sizes)) * n, sizes)[kept] + rep[vertices[kept]])
    edge, vals = np.divmod(keys[np.flatnonzero(np.r_[len(keys) > 0, keys[1:] != keys[:-1]])], n)
    used = np.flatnonzero(np.bincount(vals, minlength=n))  # np.unique imports numpy.ma
    vals = np.searchsorted(used, vals)
    starts = np.flatnonzero(np.r_[len(edge) > 0, edge[1:] != edge[:-1]])
    sizes = np.diff(starts, append=len(vals))
    edges = []
    for k in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = vals[starts[sizes == k, None] + np.arange(k)]
        rows = rows[np.lexsort(rows.T[::-1])]
        edges += rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]].tolist()
    edges.sort(key=lambda e: e + [n])  # an edge's end sorts after every vertex
    return Hypergraph(len(used), edges), used.tolist()


def decide_2_coloring(
    h: Hypergraph,
    budget_nodes: Optional[int] = DEFAULT_NODE_BUDGET,
    budget_ms: Optional[float] = None,
) -> ColorResult:
    """2-colorability by module contraction, then :func:`find_2_coloring`.

    Each round takes pairwise-disjoint modules greedily in vertex order and
    solves each module's traces: a module with colorable traces is colored
    by them and dropped with every edge on it, any other is contracted to
    one vertex. Rounds repeat on the quotient while modules are found, then
    the quotient is solved. Every solve draws on one shared budget, so
    ``nodes`` is their sum; the module search reads the same clock before
    each exact check and after each block of candidates, so ``budget_ms``
    bounds the whole call. A ``COLORABLE`` witness is lifted back through
    the modules and re-checked on ``h``. An input without modules gets
    ``find_2_coloring``'s answer with ``method`` "dpll" and no certificate.
    """
    import numpy as np
    budget = Budget(budget_nodes, budget_ms)
    # origins[v]: the input vertices that vertex v of ``current`` stands for;
    # None while ``current`` is the input, whose vertex v stands for 1 << v.
    current, origins = h, None

    def union(vertices: Iterable[int]) -> int:
        return sum(1 << v if origins is None else origins[v] for v in vertices)  # disjoint: the sum is the union

    rounds: list[tuple[Module, ...]] = []
    ones = 0  # input vertices colored 1 by the dropped modules
    while True:
        found = []
        taken: set[int] = set()
        seen = set()
        start, edges = vertex_edges(current)
        for block in _candidate_modules(current, start, edges):
            for verts in block:
                if verts in seen or not taken.isdisjoint(verts):
                    continue
                if budget.expired():
                    break
                seen.add(verts)
                traces = _module_traces(current, verts, start, edges)
                if traces is not None:
                    found.append((verts, traces))
                    taken.update(verts)
            if budget.expired():
                method = "modules" if rounds or found else "dpll"
                return ColorResult(ColorStatus.UNKNOWN, None, budget.spent, budget.tripped, method)
        if not found:
            break
        rep = np.arange(current.num_vertices)
        gone = np.zeros(current.num_vertices, dtype=bool)
        merged: dict[int, int] = {}  # the origins of the contracted modules' vertices
        modules = []
        for verts, traces in found:
            local = {v: i for i, v in enumerate(verts)}
            res = _dpll(Hypergraph(len(verts), [[local[v] for v in f] for f in traces]), budget)
            if res.status is ColorStatus.UNKNOWN:
                return ColorResult(res.status, None, budget.spent, budget.tripped, "modules")
            colorable = res.status is ColorStatus.COLORABLE
            modules.append(Module(union(verts), tuple(map(union, traces)), colorable))
            if colorable:
                gone[list(verts)] = True
                ones |= union(v for v, c in zip(verts, res.coloring) if c)
            else:
                rep[list(verts)] = verts[0]
                merged[verts[0]] = modules[-1].vertices
        rounds.append(tuple(modules))
        current, kept = _quotient(current, rep, gone)
        origins = tuple(merged[v] if v in merged else union([v]) for v in kept)

    res = _dpll(current, budget, (start, edges))
    if not rounds or res.status is ColorStatus.UNKNOWN:
        method = "modules" if rounds else "dpll"
        return ColorResult(res.status, res.coloring, budget.spent, budget.tripped, method)
    witness = None
    if res.status is ColorStatus.COLORABLE:
        ones |= union(v for v, c in enumerate(res.coloring) if c)
        witness = _bits(ones, h.num_vertices)
        if monochromatic_edge(h, witness) is not None:
            raise AssertionError("module lift produced an improper coloring")
    certificate = ModuleCertificate(tuple(rounds), current, origins)
    return ColorResult(res.status, witness, budget.spent, None, "modules", certificate)


def random_refute(h: Hypergraph, trials: int, seed: int) -> RefuteReport:
    """Sample uniform 2-colorings; report how often a monochromatic edge
    appears and the mean number of monochromatic edges per trial.

    Trial t colors vertex v by bit v of the t-th ``getrandbits(n)`` draw of the
    ``"refute"`` substream, and bit t of row v of ``ones`` is set iff it gives v
    color 1. An edge is monochromatic in the trials set in the AND of its
    vertices' rows or clear in their OR; pass j reads the j-th vertex of each
    edge longer than j, a prefix of the edges ordered by size, largest first."""
    import numpy as np
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    rng = substream(seed, "refute")
    n, m = h.num_vertices, h.num_edges
    offsets, vertices = _edge_incidences(h)
    sizes = np.diff(offsets)
    starts = offsets[np.argsort(-sizes, kind="stable")]
    longer = m - np.cumsum(np.bincount(sizes, minlength=2))[:-1]  # longer[j]: the edges with more than j vertices
    columns = [vertices[starts[:count] + j] for j, count in enumerate(longer.tolist())]
    # Bytes per word of 64 trials: ~160 per vertex (draw bits, color rows), ~40 per edge.
    step = 64 * max(1, BLOCK_BYTES // (160 * n + 40 * m + 1))
    mono_trials = total_mono = 0
    for done in range(0, trials, step):
        count = min(step, trials - done)
        draws = pack_words([rng.getrandbits(n) for _ in range(count)], n).view(np.uint8)
        bits = np.zeros((n, -(-count // 64) * 64), dtype=np.uint8)
        bits[:, :count] = np.unpackbits(draws, axis=1, count=n, bitorder="little").T
        ones = np.packbits(bits, axis=1, bitorder="little").view("<u8")
        mono = ones[columns[0]]
        seen = mono.copy()
        for column in columns[1:]:
            rows = ones[column]
            mono[: len(column)] &= rows
            seen[: len(column)] |= rows
        seen[:, -1] |= np.uint64(2**64 - 2 ** (64 - -count % 64))  # no trial past the last is all 0
        mono |= ~seen
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


def certificate_mono_edge(h: Hypergraph, certificate: ModuleCertificate, coloring: Sequence[int]) -> int:
    """Index of an edge of ``h`` that is monochromatic under ``coloring``, from a
    certificate that ``h`` is not 2-colorable.

    Round by round, each contracted module has a monochromatic trace under
    the coloring (its traces are not 2-colorable), and the module's vertex
    takes that trace's color. Some quotient edge is then monochromatic (the
    quotient is not 2-colorable), and replacing each contracted module in it
    by its chosen trace, last round first, gives a monochromatic edge of h.
    """
    _check_length(h, coloring)
    given = ones = mask_of(v for v, c in enumerate(coloring) if c)
    chosen: list[tuple[int, int]] = []  # (contracted module, its monochromatic trace)
    for r, modules in enumerate(certificate.rounds):
        for i, module in enumerate(modules):
            if module.colorable:
                continue
            trace = next((f for f in module.traces if f & ones in (0, f)), None)
            if trace is None:
                raise CompositionWitnessError(f"module {i} of round {r} has no monochromatic trace")
            ones = ones & ~module.vertices | (module.vertices if trace & ones else 0)
            chosen.append((module.vertices, trace))
    quotient = certificate.quotient
    hit = monochromatic_edge(quotient, [1 if ones & o else 0 for o in certificate.origins])
    if hit is None:
        raise CompositionWitnessError("no monochromatic quotient edge under the induced coloring")
    edge = 0
    for v in quotient.edge_vertices(hit):
        edge |= certificate.origins[v]
    for vertices, trace in reversed(chosen):
        if edge & vertices:
            edge = edge & ~vertices | trace
    if edge not in h.edge_masks:
        raise CompositionWitnessError("assembled edge is not an edge of the hypergraph")
    if edge & given not in (0, edge):
        raise AssertionError("assembled edge is not monochromatic")
    return h.edge_masks.index(edge)


def compositional_mono_edge(
    outer: Hypergraph,
    inner: Hypergraph,
    composed: Hypergraph,
    coloring: Sequence[int],
) -> int:
    """Locate a monochromatic edge of ``composed = compose(outer, inner)``
    under any 2-coloring, via the product structure.

    The copies of ``inner`` are the modules of one round, each contracted
    (``inner`` is not 2-colorable), and ``outer`` is the quotient; the edge
    comes from :func:`certificate_mono_edge` on that certificate.
    """
    n2 = inner.num_vertices
    if len(coloring) != composed.num_vertices or outer.num_vertices * n2 != composed.num_vertices:
        raise LengthMismatchError("coloring/composition size mismatch")
    copies = tuple(
        Module(((1 << n2) - 1) << a * n2, tuple(f << a * n2 for f in inner.edge_masks), False)
        for a in range(outer.num_vertices)
    )
    certificate = ModuleCertificate((copies,), outer, tuple(m.vertices for m in copies))
    return certificate_mono_edge(composed, certificate, coloring)
