"""Exact finite hypergraphs with bitmask intersection kernels.

Vertices are dense 0-based integers. Every edge is stored as a Python int
bitmask (bit v set iff vertex v belongs to the edge). One kernel sizes all
pairwise intersections: a Python AND plus popcount per pair for few pairs,
else ``np.bitwise_count`` over ``uint64`` word rows, one word and row block at a
time. Within one edge list, a sparse family is counted instead through shared
vertices, by sorting the pair ids that each vertex's edge list gives; the
kernel takes that path when ``SHARED_VERTEX_COST`` times the incidences Σ|e|
plus the co-incidences Σ_v C(deg v, 2) is below the word scan's
pairs × (words + 1), and the incidence arrays, at ``SHARED_VERTEX_BYTES``
each, fit in the packed words plus one block. That count, the per-vertex
views (:func:`vertex_edges`, :func:`vertex_edge_masks`) and ``coloring`` read
one read-only incidence list of vertex ids in CSR form, which a hypergraph
caches: the numpy parse fills it, else one blocked unpack builds it (:func:`_incidences`).
All averaging is exact (``fractions.Fraction``), never floating point.
Each function that calls numpy imports it in its body, as ``coloring`` and
``lemmas`` do: importing the package does not load numpy, the first kernel
call does, and Python's import lock lets threads make that call at once.

Edge-index sets and vertex sets are plain iterables of ints; functions
normalize them internally. :meth:`Hypergraph.from_masks` builds a hypergraph
from edge bitmasks, with the errors of the vertex-list constructor.
Hypergraphs are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product, starmap
from math import comb
from operator import and_, lt
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    DuplicateEdgeError,
    EmptyEdgeError,
    EmptyHypergraphError,
    EmptySetError,
    OutOfRangeVertexError,
    OverlappingSetsError,
    ParseError,
    TooFewEdgesError,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "Budget",
    "Hypergraph",
    "Spectrum",
    "is_uniform",
    "is_intersecting",
    "intersection_spectrum",
    "lambda_within",
    "lambda_across",
    "edges_containing",
    "pack_words",
    "intersection_sizes",
    "pair_size_counts",
    "pair_size_total",
    "pair_size_totals",
    "pair_adjacency",
    "row_masks",
    "vertex_edges",
    "vertex_edge_masks",
    "parse_hypergraph",
    "serialize_hypergraph",
    "mask_of",
    "vertices_of",
]


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# Set bits above which vertices_of scans the binary digits once. Each step
# of the low-bit loop copies the mask, yet up to about 64 set bits it was as
# fast as the scan or faster, on masks 64 to 10^6 bits wide.
UNPACK_LOOP_BITS = 64


def vertices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into an ascending vertex tuple: one low-bit step per
    vertex up to ``UNPACK_LOOP_BITS`` vertices, else one scan of the
    reversed binary digits, in time linear in the mask's width."""
    if mask < 0:
        raise ValueError(f"negative mask {mask} has no finite vertex set")
    out = []
    if mask.bit_count() > UNPACK_LOOP_BITS:
        digits = format(mask, "b")[::-1]
        v = digits.find("1")
        while v >= 0:
            out.append(v)
            v = digits.find("1", v + 1)
        return tuple(out)
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _edge_fault(pos: int, edge: tuple[int, ...], num_vertices: int) -> Exception:
    """The error for the empty or out-of-range vertex tuple ``edge`` at ``pos``."""
    if not edge:
        return EmptyEdgeError(f"edge {pos} is empty")
    lo, hi = min(edge), max(edge)
    v = hi if hi >= num_vertices else lo
    return OutOfRangeVertexError(f"edge {pos} uses vertex {v}, valid range is [0, {num_vertices})")


def _raise_first_fault(num_vertices: int, masks: Sequence[int]) -> None:
    """Raise at the first mask in edge order that repeats an earlier one, is
    0 or holds a vertex outside ``[0, num_vertices)``, if any does. A negative
    mask is read as cut off just above its lowest vertex at or above
    ``num_vertices``, so that the message names that vertex."""
    seen: set[int] = set()
    for pos, m in enumerate(masks):
        if m in seen:
            raise DuplicateEdgeError(f"edge {pos} repeats {list(vertices_of(m))}")
        if m <= 0 or m >> num_vertices:
            if m < 0:
                high = m >> num_vertices
                m &= (1 << (num_vertices + (high & -high).bit_length())) - 1
            raise _edge_fault(pos, vertices_of(m), num_vertices)
        seen.add(m)


class Hypergraph:
    """An immutable hypergraph: a vertex count plus an ordered edge list.

    Edge order is stable; edge index i always refers to the same vertex
    set. Duplicate edges (as sets) and empty edges are rejected.
    """

    __slots__ = ("num_vertices", "edge_masks", "_cache")

    def __init__(self, num_vertices: int, edges: Iterable[Iterable[int]]):
        if num_vertices < 0:
            raise ValueError("vertex count must be non-negative")
        masks: list[int] = []
        for pos, edge in enumerate(edges):
            if type(edge) is not tuple:
                edge = tuple(edge)
            if not edge or min(edge) < 0 or max(edge) >= num_vertices:
                _raise_first_fault(num_vertices, masks)  # a repeat before this edge comes first
                raise _edge_fault(pos, edge, num_vertices)
            masks.append(mask_of(edge))
        self._adopt(num_vertices, tuple(masks))

    @classmethod
    def from_masks(cls, num_vertices: int, masks: Iterable[int]) -> Hypergraph:
        """Build from edge bitmasks with the vertex-list constructor's errors, in
        its first-fault order. A negative mask (``vertices_of`` raises ValueError)
        raises :class:`OutOfRangeVertexError` for its lowest bit >= num_vertices."""
        if num_vertices < 0:
            raise ValueError("vertex count must be non-negative")
        h = cls.__new__(cls)
        h._adopt(num_vertices, tuple(masks))
        return h

    def _adopt(self, num_vertices: int, masks: tuple[int, ...]) -> None:
        if masks and (min(masks) <= 0 or max(masks) >> num_vertices or len(set(masks)) != len(masks)):
            _raise_first_fault(num_vertices, masks)
        self.num_vertices = num_vertices
        self.edge_masks = masks
        self._cache: dict = {}

    # -- basic accessors ------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edge_masks)

    def edge_vertices(self, i: int) -> tuple[int, ...]:
        return vertices_of(self.edge_masks[i])

    def edges(self) -> Iterator[frozenset[int]]:
        for m in self.edge_masks:
            yield frozenset(vertices_of(m))

    def degree(self, v: int) -> int:
        return vertex_edge_masks(self)[_check_vertex(self, v)].bit_count()

    # -- dunders ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.num_vertices == other.num_vertices
            and self.edge_masks == other.edge_masks
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.edge_masks))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.num_vertices}, m={self.num_edges})"


@dataclass(frozen=True)
class Spectrum:
    """Distinct pairwise intersection sizes with their pair multiplicities.

    ``sizes`` is strictly increasing and ``multiplicities[i]`` counts the
    unordered edge pairs realizing ``sizes[i]``; the multiplicities sum to
    C(num_edges, 2).
    """

    sizes: tuple[int, ...]
    multiplicities: tuple[int, ...]

    @property
    def r(self) -> int:
        """Number of distinct intersection sizes."""
        return len(self.sizes)

    @property
    def num_pairs(self) -> int:
        return sum(self.multiplicities)

    def multiplicity_of(self, size: int) -> int:
        try:
            return self.multiplicities[self.sizes.index(size)]
        except ValueError:
            return 0


def is_uniform(h: Hypergraph) -> Optional[int]:
    """Common edge size k if every edge has the same size, else None."""
    if "uniform" not in h._cache:
        if not h.edge_masks:
            raise EmptyHypergraphError("uniformity needs at least one edge")
        sizes = set(map(int.bit_count, h.edge_masks))
        h._cache["uniform"] = sizes.pop() if len(sizes) == 1 else None
    return h._cache["uniform"]


# -- pair kernel: every pairwise-intersection scan in the package --------

# Cap on the bytes of temporaries per block of the numpy paths (AND rows of
# the word scan, pair ids of the shared-vertex count, unpacked bits), so no
# path holds an m x m array (46 MB of uint64 for 2401 edges).
BLOCK_BYTES = 1 << 20
# Below this many pairs a Python scan beats numpy's fixed per-call cost
# (measured crossover: ~300 cross-set, ~700 within-set pairs, numpy 2.4).
NUMPY_MIN_PAIRS = 512
# Within one list, the numpy path counts through shared vertices when this
# many times the incidences plus co-incidences Σ_v C(deg v, 2) is below the
# word scan's pairs × (words + 1) (measured: the two break even at 7 to 8,
# numpy 2.4), and the incidence arrays, at this many bytes each (measured:
# 36 to 38), fit in the packed rows the word scan holds plus a block.
SHARED_VERTEX_COST = 8
SHARED_VERTEX_BYTES = 40
# Values spanning at most this many integers take an equality pass each, not
# np.bincount, which widens them to 8-byte indices and serializes on a few hot
# counters (2.88M uint8 sizes, numpy 2.4: 0.35 ms a pass, bincount 4.6-8.5 ms).
TALLY_SPAN = 12


def pack_words(masks: Sequence[int], width: int) -> np.ndarray:
    """Masks as a ``(len(masks), ceil(width / 64))`` uint64 array, low word first."""
    import numpy as np
    nwords = max(1, -(-width // 64))
    if nwords == 1:  # one conversion, several times faster than the byte join
        return np.array(masks, dtype="<u8").reshape(len(masks), 1)
    buf = b"".join(m.to_bytes(8 * nwords, "little") for m in masks)
    return np.frombuffer(buf, dtype="<u8").reshape(len(masks), nwords)


def intersection_sizes(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``(len(rows), len(cols))`` intersection sizes of packed word rows in the smallest
    unsigned dtype, one word at a time in ``9 * len(rows) * len(cols)`` temporary bytes."""
    import numpy as np
    cols_t = np.ascontiguousarray(cols.T)  # each word's column a contiguous row
    sizes = np.bitwise_count(rows[:, 0, None] & cols_t[0]).astype(np.min_scalar_type(64 * len(cols_t)), copy=False)
    for w in range(1, rows.shape[1]):
        sizes += np.bitwise_count(rows[:, w, None] & cols_t[w])
    return sizes


def _size_blocks(rows: np.ndarray, cols: Optional[np.ndarray]) -> Iterator[np.ndarray]:
    """Intersection sizes of every pair, one row block at a time: all of
    rows x cols, or the pairs i < j of ``rows`` when ``cols`` is None."""
    import numpy as np
    step = max(1, BLOCK_BYTES // (8 * max(1, len(rows if cols is None else cols))))
    upper: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # the pairs i < j, per block length
    for i0 in range(0, len(rows), step):
        block = rows[i0 : i0 + step]
        if cols is None:
            if len(block) not in upper:
                upper[len(block)] = np.triu_indices(len(block), 1)
            yield intersection_sizes(block, block)[upper[len(block)]]
        yield intersection_sizes(block, rows[i0 + len(block) :] if cols is None else cols)


def pair_size_counts(
    masks: Sequence[int], other: Optional[Sequence[int]] = None, listing: Optional[Callable] = None
) -> dict[int, int]:
    """Pair count per realized intersection size, ascending by size, over
    the pairs i < j of ``masks`` or, given ``other``, all of masks x other.
    Within one list, the numpy path counts through shared vertices when the
    incidences and co-incidences are few next to the word scan's work and
    memory (:func:`_shared_vertex_list`; ``listing()`` may give the incidence
    list of ``masks``). Both numpy paths count with :func:`_tally`."""
    m = len(masks)
    if (m * (m - 1) // 2 if other is None else m * len(other)) < NUMPY_MIN_PAIRS:
        pairs = combinations(masks, 2) if other is None else product(masks, other)
        return dict(sorted(Counter(map(int.bit_count, starmap(and_, pairs))).items()))
    width = max(chain(masks, other or ())).bit_length()
    rows = pack_words(masks, width)
    listed = _shared_vertex_list(masks, rows, width, listing) if other is None else None
    if listed is not None:
        del rows  # freed: the shared-vertex count reads the incidence list, not the words
        return _shared_vertex_counts(*listed, width)
    return _word_scan_counts(rows, None if other is None else pack_words(other, width), width)


def _shared_vertex_list(
    masks: Sequence[int], rows: np.ndarray, width: int, listing: Optional[Callable] = None
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The :func:`_incidences` of ``masks`` (or ``listing()``) if the shared-vertex
    count's arrays, at ``SHARED_VERTEX_BYTES`` per incidence, fit in the packed
    ``rows`` plus a block, and ``SHARED_VERTEX_COST`` times the incidences Σ|e|
    plus the co-incidences Σ_v C(deg v, 2) is below the word scan's
    pairs × (words + 1); else None. The list, which gives the degrees, is built
    only if the convexity bound Σ|e|·(Σ|e| − width) / (2·width) leaves it open."""
    import numpy as np
    budget = comb(len(masks), 2) * (rows.shape[1] + 1)
    incidences = sum(map(int.bit_count, masks))
    if SHARED_VERTEX_BYTES * incidences > rows.nbytes + BLOCK_BYTES:
        return None
    if SHARED_VERTEX_COST * (incidences + incidences * (incidences - width) // (2 * max(1, width))) >= budget:
        return None
    listed = _incidences(masks, width) if listing is None else listing()
    deg = np.bincount(listed[1])
    return listed if SHARED_VERTEX_COST * (incidences + int(deg @ (deg - 1)) // 2) < budget else None


def _word_scan_counts(rows: np.ndarray, cols: Optional[np.ndarray], width: int) -> dict[int, int]:
    """:func:`pair_size_counts` by popcounts of the packed word rows, one :func:`_tally` per block."""
    import numpy as np
    total = np.zeros(width + 1, dtype=np.int64)
    for block in _size_blocks(rows, cols):
        _tally(block, total)
    return {size: c for size, c in enumerate(total.tolist()) if c}


def _tally(values: np.ndarray, total: np.ndarray) -> None:
    """Add to ``total[s]`` how many ``values`` equal s (see ``TALLY_SPAN``)."""
    import numpy as np
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, -1)
    if hi - lo < TALLY_SPAN:  # an empty block makes no pass
        for s in range(lo, hi + 1):
            total[s] += np.count_nonzero(values == s)
    else:
        total += np.bincount(values.ravel(), minlength=len(total))


def _shared_vertex_counts(offsets: np.ndarray, vertices: np.ndarray, width: int) -> dict[int, int]:
    """:func:`pair_size_counts` of the pairs a < b of the edges that the
    incidence list ``(offsets, vertices)`` holds, by their shared vertices:
    each vertex's ascending edge list gives the pair ids a·m + b, and after a
    sort, the length of a pair's run of equal ids is its intersection size.
    The ids are formed and sorted in blocks of about ``BLOCK_BYTES // 24``
    ids, cut between first edges a, so that each pair's run lies in one
    block. The pairs that share no vertex have size 0."""
    import numpy as np
    m = len(offsets) - 1
    pos = np.int32 if len(vertices) < 2**31 else np.intp
    order, edge = _by_vertex(offsets, vertices, pos)
    vertex = vertices[order]
    # tail[q]: how many later edges share incidence q's vertex
    tail = np.searchsorted(vertex, vertex, side="right")
    tail -= np.arange(1, len(vertex) + 1)
    tail = tail.astype(pos)
    at = np.empty_like(tail)  # at[i]: position in ``order`` of incidence i
    at[order] = np.arange(len(order), dtype=pos)
    del vertex, order
    ends = np.zeros(len(at) + 1, dtype=np.int64)
    np.cumsum(tail[at], out=ends[1:])
    ends = ends[offsets]  # ends[a]: how many ids have a first edge before a
    runs = np.zeros(width + 1, dtype=np.int64)
    distinct = 0
    step = max(1, BLOCK_BYTES // 24)  # bytes of temporaries per id
    a0 = 0
    while ends[a0] < ends[m]:
        a1 = max(a0 + 1, int(np.searchsorted(ends, ends[a0] + step, side="right")) - 1)
        q = at[offsets[a0] : offsets[a1]]
        lens = tail[q]
        count = int(ends[a1] - ends[a0])
        kind = np.int32 if (a1 - a0) * m < 2**31 else np.int64
        # Pair (a, b) is (a - a0)·m + b, b running over the edges after q.
        later = np.repeat(q + 1 - (np.cumsum(lens, dtype=pos) - lens), lens)
        later += np.arange(count, dtype=pos)
        ids = edge[later].astype(kind, copy=False)
        del later
        ids += np.repeat((edge[q] - a0).astype(kind) * m, lens)
        ids.sort()
        bounds = np.ones(count + 1, dtype=bool)  # True where a run starts, and at the end
        np.not_equal(ids[1:], ids[:-1], out=bounds[1:-1])
        del ids
        cuts = np.flatnonzero(bounds)
        del bounds
        _tally(np.diff(cuts).astype(np.min_scalar_type(width)), runs)  # narrow: cheaper passes
        distinct += len(cuts) - 1
        a0 = a1
    runs[0] = comb(m, 2) - distinct
    return {size: c for size, c in enumerate(runs.tolist()) if c}


def pair_size_total(masks: Sequence[int], other: Optional[Sequence[int]] = None) -> int:
    """Sum of the intersection sizes of the pairs :func:`pair_size_counts` counts."""
    return sum(size * c for size, c in pair_size_counts(masks, other).items())


def pair_size_totals(rows: np.ndarray, cols: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`pair_size_total` of each list of zero-padded ``(lists, edges,
    words)`` word rows, as int64: over the pairs i < j of ``rows[l]`` or, given
    ``cols``, all of ``rows[l]`` x ``cols[l]``. Padding edges add nothing. All
    lists at once, in ``9 * edges * edges' * words`` temporary bytes per list."""
    import numpy as np
    ordered = np.bitwise_count(rows[:, :, None] & (rows if cols is None else cols)[:, None])
    total = ordered.reshape(len(rows), -1).sum(axis=1, dtype=np.int64)
    if cols is None:  # the ordered pairs count each pair twice, and each edge with itself
        total -= np.bitwise_count(rows).reshape(len(rows), -1).sum(axis=1, dtype=np.int64)
        total //= 2
    return total


def pair_adjacency(masks: Sequence[int], lam: int) -> tuple[int, ...]:
    """Adjacency bitmasks of the graph on ``masks`` that joins i != j iff
    masks i and j meet in at least ``lam`` vertices."""
    rows = pack_words(masks, max(map(int.bit_length, masks), default=0))
    adj = [row for sizes in _size_blocks(rows, rows) for row in row_masks(sizes >= lam)]
    return tuple(row & ~(1 << i) for i, row in enumerate(adj))


def row_masks(flags: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean array as the bitmask of its True columns."""
    import numpy as np
    return [int.from_bytes(bits.tobytes(), "little") for bits in np.packbits(flags, axis=1, bitorder="little")]


# -- the incidence list: every per-vertex view of the edges -------------


def _incidences(masks: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, vertices)``, read-only: edge i's vertices, ascending, are
    ``vertices[offsets[i]:offsets[i + 1]]`` (CSR form). The only unpack of
    edge words into vertex ids, in blocks of edges of about ``BLOCK_BYTES``
    unpacked bits, each read with ``flatnonzero`` and freed before the next."""
    import numpy as np
    sizes = list(map(int.bit_count, masks))
    offsets = np.zeros(len(masks) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    vertices = np.empty(offsets[-1], dtype=np.intp)
    step = max(1, BLOCK_BYTES // (n + 8 * max(sizes, default=1)))  # a byte per bit, 8 per set bit's index
    for i0 in range(0, len(masks), step):
        bits = np.unpackbits(pack_words(masks[i0 : i0 + step], n).view(np.uint8), axis=1, count=n, bitorder="little")
        found = np.flatnonzero(bits.view(bool))
        del bits
        np.remainder(found, n, out=vertices[offsets[i0] : offsets[i0] + len(found)])
    offsets.flags.writeable = vertices.flags.writeable = False
    return offsets, vertices


def _edge_incidences(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_incidences` of ``h``'s edges, cached on ``h``."""
    if "incidences" not in h._cache:
        h._cache["incidences"] = _incidences(h.edge_masks, h.num_vertices)
    return h._cache["incidences"]


def _by_vertex(offsets: np.ndarray, vertices: np.ndarray, dtype="intp") -> tuple[np.ndarray, np.ndarray]:
    """``(order, edge)``: the incidence list's stable sort by vertex, and each
    incidence's edge (of ``dtype``) in that order. Unique keys (vertex,
    position) make the default sort stable, at a third of kind="stable"'s time."""
    import numpy as np
    order = np.argsort(vertices * len(vertices) + np.arange(len(vertices)))
    return order, np.repeat(np.arange(len(offsets) - 1, dtype=dtype), np.diff(offsets))[order]


def vertex_edges(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """``(start, edges)``: the edges on vertex v, ascending, are
    ``edges[start[v]:start[v + 1]]``, from the incidence list sorted by vertex."""
    import numpy as np
    offsets, vertices = _edge_incidences(h)
    start = np.bincount(vertices + 1, minlength=h.num_vertices + 1).cumsum()
    return start, _by_vertex(offsets, vertices)[1]


def vertex_edge_masks(h: Hypergraph) -> tuple[int, ...]:
    """For each vertex v, the bitmask of the edges on v (bit i set iff edge i
    contains v): the transpose of ``h.edge_masks``, cached on ``h``. Built
    without a sort: each block of a multiple of 8 edges is scattered from the
    incidence list into n bool rows of about ``BLOCK_BYTES`` in all, packed."""
    import numpy as np
    cached = h._cache.get("vertex_edge_masks")
    if cached is None:
        n, m = h.num_vertices, h.num_edges
        offsets, vertices = _edge_incidences(h)
        step = 8 * max(1, BLOCK_BYTES // (8 * max(1, n)))
        rows = np.empty((n, -(-m // 8)), dtype=np.uint8)  # row v: the edges on v, 8 to a byte
        for i0 in range(0, m, step):
            sizes = np.diff(offsets[i0 : i0 + step + 1])
            bits = np.zeros((n, 8 * -(-len(sizes) // 8)), dtype=bool)
            bits[vertices[offsets[i0] : offsets[i0 + len(sizes)]], np.repeat(np.arange(len(sizes)), sizes)] = True
            # The rows, a multiple of 8 long, stay apart in one flat pack (fast, where one along an axis pays per row).
            rows[:, i0 // 8 : (i0 + step) // 8] = np.packbits(bits.reshape(-1), bitorder="little").reshape(n, -1)
            del bits  # freed before the next block is scattered
        out = [0] * n
        for v in np.flatnonzero(np.bincount(vertices, minlength=n)).tolist():
            out[v] = int.from_bytes(rows[v].tobytes(), "little")
        cached = h._cache["vertex_edge_masks"] = tuple(out)
    return cached


def is_intersecting(h: Hypergraph) -> bool:
    """True iff every two distinct edges meet: 0 is not in the cached spectrum."""
    return h.num_edges < 2 or 0 not in intersection_spectrum(h).sizes


def intersection_spectrum(h: Hypergraph) -> Spectrum:
    """Exact spectrum over all C(m, 2) edge pairs, cached on ``h``, as is any incidence list it reads."""
    cached = h._cache.get("spectrum")
    if cached is not None:
        return cached
    if h.num_edges < 2:
        raise TooFewEdgesError("a spectrum needs at least two edges")
    counts = pair_size_counts(h.edge_masks, listing=lambda: _edge_incidences(h))
    spectrum = Spectrum(tuple(counts), tuple(counts.values()))
    h._cache["spectrum"] = spectrum
    return spectrum


def _check_indices(h: Hypergraph, indices: Iterable[int]) -> frozenset[int]:
    s = frozenset(indices)
    m = h.num_edges
    for i in s:
        if not 0 <= i < m:
            raise IndexError(f"edge index {i} out of range for {h!r}")
    return s


def lambda_within(h: Hypergraph, s: Iterable[int]) -> Fraction:
    """Average intersection size over unordered pairs inside ``s``. Exact."""
    idx = sorted(_check_indices(h, s))
    if len(idx) < 2:
        raise TooFewEdgesError("within-set average needs at least two edges")
    return Fraction(pair_size_total([h.edge_masks[i] for i in idx]), comb(len(idx), 2))


def lambda_across(h: Hypergraph, s: Iterable[int], t: Iterable[int]) -> Fraction:
    """Average intersection size over all pairs with one edge in each set."""
    s_idx = _check_indices(h, s)
    t_idx = _check_indices(h, t)
    if not s_idx or not t_idx:
        raise EmptySetError("cross-set average needs two nonempty sets")
    if s_idx & t_idx:
        raise OverlappingSetsError(f"sets share edges {sorted(s_idx & t_idx)}")
    masks = h.edge_masks
    total = pair_size_total([masks[i] for i in s_idx], [masks[i] for i in t_idx])
    return Fraction(total, len(s_idx) * len(t_idx))


def _check_vertex(h: Hypergraph, v: int) -> int:
    """``v``, or :class:`OutOfRangeVertexError` for v outside [0, n)."""
    if not 0 <= v < h.num_vertices:
        raise OutOfRangeVertexError(f"vertex {v} out of range, valid range is [0, {h.num_vertices})")
    return v


def _containing_mask(h: Hypergraph, vertices: Iterable[int]) -> int:
    """Bitmask of the edges containing every given vertex: the AND of their
    :func:`vertex_edge_masks`, or all m bits for no vertices."""
    vm = vertex_edge_masks(h)
    inside = (1 << h.num_edges) - 1
    for v in vertices:
        inside &= vm[_check_vertex(h, v)]
    return inside


def edges_containing(h: Hypergraph, vertices: Iterable[int]) -> frozenset[int]:
    """Indices of edges containing every given vertex (all edges for []): the
    set bits of the AND of their :func:`vertex_edge_masks`."""
    return frozenset(vertices_of(_containing_mask(h, vertices)))


# -- budgets -------------------------------------------------------------

DEFAULT_NODE_BUDGET = 10**8


class Budget:
    """The one budget of every exponential routine: a node count and a
    wall-clock limit in milliseconds, either of which may be None.

    :meth:`step` counts one node and returns False once the count exceeds
    ``nodes`` or the elapsed time exceeds ``ms``; ``tripped`` then names the
    limit that ran out. The clock is read only when ``ms`` is set.
    """

    __slots__ = ("nodes", "ms", "spent", "tripped", "_start")

    def __init__(self, nodes: Optional[int] = None, ms: Optional[float] = None):
        self.nodes = nodes
        self.ms = ms
        self.spent = 0
        self.tripped: Optional[str] = None
        self._start = time.monotonic()

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self._start) * 1000.0

    def expired(self) -> bool:
        """True once a limit has run out, without counting a node: the check
        between the steps of work that is not a search, such as a pass over
        the input. Sets ``tripped`` to "ms" when the clock has run out."""
        if self.tripped is None and self.ms is not None and self.elapsed_ms() > self.ms:
            self.tripped = "ms"
        return self.tripped is not None

    def step(self) -> bool:
        self.spent += 1
        if self.nodes is not None and self.spent > self.nodes:
            self.tripped = "nodes"
        elif self.ms is not None and self.elapsed_ms() > self.ms:
            self.tripped = "ms"
        return self.tripped is None


# -- text format ---------------------------------------------------------
#
# ".hg" files: optional '#' comment lines, a "n m" header, then m lines of
# strictly ascending vertex indices. Canonical output sorts edges
# lexicographically and uses LF endings with no trailing whitespace.
# Text of ASCII digits, spaces and "\n" alone, as canonical output is, takes
# one numpy pass (:func:`_parse_plain`), which also gives the incidence list;
# other text, and text it cannot certify, the line loop (:func:`_parse_lines`),
# which raises every :class:`ParseError`. Both give the same hypergraphs.


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse ``.hg`` text. Raises :class:`ParseError` with a line number."""
    plain = _parse_plain(text)
    h = Hypergraph.from_masks(*(plain[:2] if plain else _parse_lines(text)))
    if plain:  # the numpy pass read the incidence list too
        h._cache["incidences"] = plain[2]
    return h


def _parse_lines(text: str) -> tuple[int, list[int]]:
    """``(num_vertices, edge masks)`` of ``.hg`` text, line by line."""
    header: Optional[tuple[int, int]] = None
    edges: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise ParseError("header must be 'num_vertices num_edges'", lineno)
            try:
                n, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError("header fields must be integers", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("header fields must be non-negative", lineno)
            header = (n, m)
            continue
        if len(edges) >= header[1]:
            raise ParseError("more edge lines than the header announced", lineno)
        try:
            vs = tuple(map(int, tokens))
        except ValueError:
            raise ParseError("malformed vertex index", lineno) from None
        if not all(map(lt, vs, vs[1:])):
            raise ParseError("vertex indices must be strictly ascending", lineno)
        if vs[0] < 0 or vs[-1] >= header[0]:
            raise ParseError("vertex index out of range", lineno)
        edges.append(mask_of(vs))
    if header is None:
        raise ParseError("missing header", 1)
    if len(edges) != header[1]:
        # The line after the last line break, as splitlines counts breaks.
        raise ParseError(f"expected {header[1]} edges, found {len(edges)}", len((text + ".").splitlines()))
    return header[0], edges


def _parse_plain(text: str) -> Optional[tuple[int, list[int], tuple[np.ndarray, np.ndarray]]]:
    """``(num_vertices, edge masks, the :func:`_incidences` list)`` of text of ASCII
    digits, spaces and "\\n" alone, by whole-array operations in a few words per
    token plus the masks; None for other text, text the line loop refuses, and vertex tokens of over
    18 digits or from 2^32 on. Raises nothing but MemoryError."""
    import numpy as np
    if not text.isascii():
        return None
    # A final line break, then room to read 18 digit columns from any token
    # start. Every byte but a digit wraps to 10 or more.
    digits = np.frombuffer((text + "\n" * 19).encode(), dtype=np.uint8) - np.uint8(48)
    is_digit = digits < 10
    newline = np.flatnonzero(digits == 218)  # b"\n" - 48, wrapped
    if np.count_nonzero(is_digit) + len(newline) + np.count_nonzero(digits == 240) != len(digits):
        return None  # a byte other than a digit, b" " and b"\n"
    bounds = np.flatnonzero(np.diff(is_digit, prepend=False))
    starts, ends = bounds[0::2], bounds[1::2]
    first = np.zeros(len(starts) + 1, dtype=bool)  # first[t]: token t begins a line
    first[np.searchsorted(starts, newline)] = True  # the tokens after each b"\n"
    if len(starts) < 2 or first[1] or not first[2]:
        return None  # the first line must hold just the header's two tokens
    n, m = int(text[starts[0] : ends[0]]), int(text[starts[1] : ends[1]])
    if len(starts) == 2:
        return (n, [], _incidences([], n)) if m == 0 else None
    starts, first = starts[2:], first[2:-1]
    lengths = ends[2:] - starts
    if lengths.max() > 18:
        return None
    v = digits[starts].astype(np.int64)  # the vertex tokens, by a Horner step per digit column
    for c in range(1, int(lengths.max())):
        more = lengths > c
        np.multiply(v, 10, out=v, where=more)
        np.add(v, digits[c:][starts], out=v, where=more)
    del digits, is_digit, bounds, starts, ends, lengths  # the peak stays a few words per token
    firsts = np.flatnonzero(first)
    if len(firsts) != m or not (first[1:] | (v[1:] > v[:-1])).all():
        return None
    tops = np.maximum.reduceat(v, firsts)
    if int(tops.max()) >= min(n, 1 << 32):
        return None
    # Edge e takes words ends[e] - runs[e] to ends[e], enough for its top
    # vertex; each word ORs its run of token bits, which lie side by side.
    runs = (tops >> 6) + 1
    ends = np.cumsum(runs)
    word = np.repeat(ends - runs, np.diff(firsts, append=len(v)))
    word += v >> 6
    bits = np.left_shift(np.uint64(1), (v & 63).view(np.uint64))
    cut = np.flatnonzero(np.diff(word, prepend=-1))
    words = np.zeros(int(ends[-1]), dtype=np.uint64)
    words[word[cut]] = np.bitwise_or.reduceat(bits, cut)
    del word, bits, cut
    listed = np.append(firsts, len(v)), v.astype(np.intp, copy=False)  # the tokens themselves, not a copy
    listed[0].flags.writeable = listed[1].flags.writeable = False
    if len(words) == m:
        return n, words.tolist(), listed
    buf = words.tobytes()
    return n, [int.from_bytes(buf[8 * (i - r) : 8 * i], "little") for i, r in zip(ends.tolist(), runs.tolist())], listed


def serialize_hypergraph(h: Hypergraph) -> str:
    """Canonical ``.hg`` text: lexicographically sorted edges, LF endings."""
    rows = sorted(vertices_of(m) for m in h.edge_masks)
    lines = [f"{h.num_vertices} {h.num_edges}"]
    lines.extend(" ".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
