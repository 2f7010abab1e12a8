import importlib
import json
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperspec
from hyperspec import (
    Hypergraph,
    edges_containing,
    intersection_spectrum,
    is_intersecting,
    is_uniform,
    lambda_across,
    lambda_within,
    parse_hypergraph,
    serialize_hypergraph,
)
from hyperspec import coloring, complete_subsets, compose, core, fano, random_uniform
from hyperspec.core import Budget, intersection_sizes, mask_of, pack_words, pair_adjacency, pair_size_counts, vertices_of
from hyperspec.errors import (
    DuplicateEdgeError,
    EmptyEdgeError,
    EmptyHypergraphError,
    EmptySetError,
    OutOfRangeVertexError,
    OverlappingSetsError,
    ParseError,
    TooFewEdgesError,
)

import oracles
from conftest import run_fresh

FANO_LINES = [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]


def small_hypergraphs():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=8))
        num_edges = draw(st.integers(min_value=1, max_value=8))
        edges = []
        seen = set()
        for _ in range(num_edges):
            size = draw(st.integers(min_value=1, max_value=n))
            edge = frozenset(draw(st.permutations(range(n)))[:size])
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
        return Hypergraph(n, edges)

    return build()


class TestConstruction:
    def test_fano_by_hand(self):
        h = Hypergraph(7, FANO_LINES)
        assert h.num_vertices == 7 and h.num_edges == 7
        assert is_uniform(h) == 3

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            Hypergraph(-1, [])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError, match=r"^edge 2 repeats \[0, 1\]$"):
            Hypergraph(3, [(1, 0), (1, 2), {0, 1}])

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeVertexError, match=r"^edge 1 uses vertex 5, valid range is \[0, 2\)$"):
            Hypergraph(2, [(1,), {0, 5}])
        with pytest.raises(OutOfRangeVertexError, match=r"^edge 0 uses vertex -1, valid range is \[0, 2\)$"):
            Hypergraph(2, [(-1, 1)])
        # The high end is named when both ends are out of range.
        with pytest.raises(OutOfRangeVertexError, match="^edge 0 uses vertex 2,"):
            Hypergraph(2, [(-1, 2)])

    def test_empty_edge_rejected(self):
        with pytest.raises(EmptyEdgeError, match="^edge 0 is empty$"):
            Hypergraph(3, [set()])
        with pytest.raises(EmptyEdgeError, match="^edge 1 is empty$"):
            Hypergraph(3, [(0,), ()])

    def test_first_fault_in_edge_order_is_reported(self):
        with pytest.raises(DuplicateEdgeError, match="^edge 1 repeats"):
            Hypergraph(3, [(0, 1), (0, 1), (5,)])
        with pytest.raises(DuplicateEdgeError, match="^edge 1 repeats"):
            Hypergraph(3, [(0, 1), (1, 0), ()])
        with pytest.raises(OutOfRangeVertexError, match="^edge 1 uses"):
            Hypergraph(3, [(0, 1), (7,), (0, 1)])
        with pytest.raises(EmptyEdgeError, match="^edge 1 is empty$"):
            Hypergraph(3, [(0, 1), [], (1, 0)])

    def test_repeated_vertex_in_an_edge_collapses(self):
        h = Hypergraph(3, [(0, 1, 1), [2, 2]])
        assert h.edge_vertices(0) == (0, 1) and h.edge_vertices(1) == (2,)

    def test_edge_containers(self):
        edges = [(2, 0), [1, 2], {0, 1}, frozenset({1}), (v for v in (0, 1, 2))]
        h = Hypergraph(3, iter(edges))
        assert h.edge_masks == (0b101, 0b110, 0b011, 0b010, 0b111)

    def test_edge_order_stable(self):
        h = Hypergraph(5, [{3, 4}, {0, 1}, {2}])
        assert h.edge_vertices(0) == (3, 4)
        assert h.edge_vertices(1) == (0, 1)
        assert h.edge_vertices(2) == (2,)

    def test_mask_roundtrip(self):
        assert vertices_of(mask_of([5, 1, 3])) == (1, 3, 5)

    def test_negative_mask_has_no_vertices(self):
        # Each of these never returned: m ^= m & -m never reaches 0.
        for mask in (-1, -2, -(1 << 70)):
            with pytest.raises(ValueError, match="^negative mask"):
                vertices_of(mask)

    def test_unpack_matches_a_bit_loop_on_both_sides_of_the_crossover(self):
        # Up to UNPACK_LOOP_BITS set bits the low-bit loop unpacks, above it
        # the digit scan; both read the bits a naive loop reads.
        rng = random.Random(0)
        cross = core.UNPACK_LOOP_BITS
        masks = [1, (1 << 64) - 1, (1 << 65) - 1, (1 << 10**4) - 1, 1 << 10**4 - 1]  # widths 1, 64, 65, 10^4
        for bits in (1, cross - 1, cross, cross + 1, 3 * cross):
            for width in (bits, bits + 1, 2 * bits, 10**4):
                masks += [mask_of(rng.sample(range(width), bits)) for _ in range(3)]
        assert {m.bit_count() for m in masks} >= {cross, cross + 1}
        for mask in masks:
            assert vertices_of(mask) == tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def vertex_lists(n, masks):
    """The vertex lists that give ``Hypergraph(n, ...)`` the edges ``masks``.
    A negative mask has no finite vertex set; it stands for itself cut off
    just above its lowest vertex at or above n, the vertex both paths name."""
    for m in masks:
        if m < 0:
            high = m >> n
            m &= (1 << (n + (high & -high).bit_length())) - 1
        yield list(vertices_of(m))


def outcome(build):
    """The hypergraph ``build()`` returns, or the type and message it raises."""
    try:
        return build()
    except Exception as err:
        return type(err), str(err)


class TestFromMasks:
    @settings(max_examples=60, deadline=None)
    @given(small_hypergraphs())
    def test_agrees_with_vertex_lists(self, h):
        n, masks = h.num_vertices, h.edge_masks
        built = Hypergraph.from_masks(n, iter(masks))
        assert built == Hypergraph(n, map(vertices_of, masks)) == h
        assert type(built.edge_masks) is tuple

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_faults_match_vertex_lists(self, data):
        # Masks around the valid range: 0, negative masks, masks >= 1 << n
        # and repeats, checked against the vertex path on the same edges.
        n = data.draw(st.integers(min_value=0, max_value=8))
        pool = st.integers(min_value=-(1 << (n + 2)), max_value=1 << (n + 2))
        masks = data.draw(st.lists(pool, max_size=6))
        masks += data.draw(st.lists(st.sampled_from(masks), max_size=2)) if masks else []
        masks = data.draw(st.permutations(masks))
        got = outcome(lambda: Hypergraph.from_masks(n, masks))
        assert got == outcome(lambda: Hypergraph(n, vertex_lists(n, masks)))

    @pytest.mark.parametrize(
        "masks, error, message",
        [
            ([0b11, 0], EmptyEdgeError, "edge 1 is empty"),
            ([0b11, -1], OutOfRangeVertexError, r"edge 1 uses vertex 3, valid range is \[0, 3\)"),
            ([-8], OutOfRangeVertexError, r"edge 0 uses vertex 3, valid range is \[0, 3\)"),
            ([-(1 << 70)], OutOfRangeVertexError, r"edge 0 uses vertex 70, valid range is \[0, 3\)"),
            ([0b1, 0b1010], OutOfRangeVertexError, r"edge 1 uses vertex 3, valid range is \[0, 3\)"),
            ([0b11, 0b11, 0], DuplicateEdgeError, r"edge 1 repeats \[0, 1\]"),
            ([0b11, 0, 0b11], EmptyEdgeError, "edge 1 is empty"),
        ],
    )
    def test_each_fault(self, masks, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Hypergraph.from_masks(3, masks)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            Hypergraph.from_masks(-1, [])


class TestUniformIntersecting:
    def test_fano_uniform(self):
        assert is_uniform(Hypergraph(7, FANO_LINES)) == 3

    def test_mixed_sizes(self):
        assert is_uniform(Hypergraph(3, [{0, 1}, {0, 1, 2}])) is None

    def test_single_edge(self):
        assert is_uniform(Hypergraph(5, [{0, 1, 2, 3, 4}])) == 5

    def test_empty_raises(self):
        with pytest.raises(EmptyHypergraphError):
            is_uniform(Hypergraph(3, []))

    def test_fano_intersecting(self):
        assert is_intersecting(Hypergraph(7, FANO_LINES))

    def test_disjoint_pairs(self):
        assert not is_intersecting(Hypergraph(5, [{0, 1}, {2, 3}]))

    def test_single_edge_vacuous(self):
        assert is_intersecting(Hypergraph(2, [{0, 1}]))


class TestSpectrum:
    def test_fano_spectrum(self):
        h = Hypergraph(7, FANO_LINES)
        sp = intersection_spectrum(h)
        assert sp.sizes == (1,)
        assert sp.multiplicities == (21,)
        assert sp.r == 1

    def test_two_disjoint_edges(self):
        sp = intersection_spectrum(Hypergraph(4, [{0, 1}, {2, 3}]))
        assert sp.sizes == (0,)

    def test_too_few(self):
        with pytest.raises(TooFewEdgesError):
            intersection_spectrum(Hypergraph(3, [{0, 1}]))

    def test_against_oracle_random(self, monkeypatch):
        rng = random.Random(20240501)

        def random_edges(n, m, size_cap, shared=()):
            edges = set()
            while len(edges) < m:
                size = rng.randint(1, size_cap)
                edges.add(frozenset(rng.sample(range(n), size)) | frozenset(shared))
            return list(edges)

        for _ in range(30):
            n = rng.randint(2, 10)
            m = rng.randint(2, min(12, 2**n - 1))
            edges = random_edges(n, m, n)
            h = Hypergraph(n, edges)
            sp = intersection_spectrum(h)
            expected = oracles.naive_spectrum(edges)
            assert dict(zip(sp.sizes, sp.multiplicities)) == expected
            assert sp.num_pairs == comb(m, 2)
            assert (min(sp.sizes) >= 1) == is_intersecting(h)

        # Masks across the 64-bit word boundaries, edge counts on both sides
        # of the Python/numpy cutoff, and numpy row blocks of a few rows, so
        # the block triangles and the block tails are all exercised.
        small, large = 12, 40
        assert comb(small, 2) < core.NUMPY_MIN_PAIRS <= comb(large, 2)
        assert small * small < core.NUMPY_MIN_PAIRS <= large * large
        monkeypatch.setattr(core, "BLOCK_BYTES", 4096)
        for n in (63, 64, 65, 130, 257):
            for m in (small, large):
                # Families on an even n share their top vertex, so they are
                # intersecting and size 0 is missing from the spectrum.
                shared = (n - 1,) if n % 2 == 0 else ()
                edges = random_edges(n, 2 * m, n // 4, shared)
                left, right = edges[:m], edges[m:]
                h = Hypergraph(n, left)
                assert is_intersecting(h) == oracles.naive_is_intersecting(left)
                sp = intersection_spectrum(h)
                assert dict(zip(sp.sizes, sp.multiplicities)) == oracles.naive_spectrum(left)
                masks = [mask_of(e) for e in left]
                cross = pair_size_counts(masks, [mask_of(e) for e in right])
                assert cross == oracles.naive_cross_spectrum(left, right)
                assert list(cross) == sorted(cross)
                lam = sp.sizes[len(sp.sizes) // 2]
                adjacency = [
                    {j for j, b in enumerate(left) if j != i and len(a & b) >= lam}
                    for i, a in enumerate(left)
                ]
                assert [set(vertices_of(row)) for row in pair_adjacency(masks, lam)] == adjacency

        # Sparse families take the shared-vertex count: edges of one to three
        # vertices across the word boundaries, a sunflower in which every pair
        # shares exactly its core vertex (no pair of size 0), and families whose
        # first edge is disjoint from all the others. A cap of 64 bytes gives id
        # blocks of two ids, far below a first edge's run of pairs, so every
        # block is cut at a first-edge boundary beyond its cap, and a first
        # edge without pairs can make a block of no ids. The path's memory
        # guard, which compares its incidence arrays with the packed rows
        # plus a block, is lifted, since a 64-byte block would trip it.
        monkeypatch.setattr(core, "BLOCK_BYTES", 64)
        monkeypatch.setattr(core, "SHARED_VERTEX_BYTES", 0)

        def word_scan(*args):
            raise AssertionError("a sparse family took the word scan")

        monkeypatch.setattr(core, "_word_scan_counts", word_scan)
        families = []
        for n in (63, 64, 65, 130, 257, 600):
            edges = random_edges(n, large, 3)
            families.append((n, edges))
            lone = frozenset(set(range(n)) - set().union(*edges[1:]))
            families.append((n, [lone] + edges[1:]))
        for n, core_vertex in ((600, 63), (600, 64), (700, 599)):
            leaves = iter(rng.sample([v for v in range(n) if v != core_vertex], 2 * large))
            sunflower = [frozenset({core_vertex, next(leaves), next(leaves)}) for _ in range(large)]
            families.append((n, sunflower))
            spare = [v for v in range(n) if v not in set().union(*sunflower)]
            families.append((n, [frozenset(spare[:2])] + sunflower[1:]))
        for n, edges in families:
            h = Hypergraph(n, edges)
            sp = intersection_spectrum(h)
            assert dict(zip(sp.sizes, sp.multiplicities)) == oracles.naive_spectrum(edges)
            assert is_intersecting(h) == oracles.naive_is_intersecting(edges)
        assert [oracles.naive_is_intersecting(e) for _, e in families[-6:]] == [True, False] * 3

    def test_kernel_choice(self, itf2, monkeypatch):
        """Dense families take the word scan and sparse ones the shared-vertex
        count; each case fails if the other path runs."""

        def refuse(*args):
            raise AssertionError("the other path ran")

        with monkeypatch.context() as patch:
            patch.setattr(core, "_shared_vertex_counts", refuse)
            counts = pair_size_counts(itf2.edge_masks)
            assert (list(counts), list(counts.values())) == ([1, 3, 5, 7], [2117682, 612255, 129654, 21609])
            composed = compose(fano(), complete_subsets(5, 3))
            assert sum(pair_size_counts(composed.edge_masks).values()) == comb(composed.num_edges, 2)
        wide = random_uniform(400, 8, 600, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(core, "_word_scan_counts", refuse)
            counts = pair_size_counts(wide.edge_masks)
        assert counts == core._word_scan_counts(pack_words(wide.edge_masks, 400), None, 400)

    def test_shared_path_lists_incidences_once(self, itf2, monkeypatch):
        """The shared-vertex count reads the same incidence list that decided
        the path, the convexity bound settles itf2 without one, and a family
        whose degrees the bound underrates takes the word scan."""
        calls = []
        incidences = core._incidences

        def counted(masks, n):
            calls.append(n)
            return incidences(masks, n)

        def refuse(*args):
            raise AssertionError("the shared-vertex count ran")

        monkeypatch.setattr(core, "_incidences", counted)
        pair_size_counts(itf2.edge_masks)
        assert calls == []
        sparse = random_uniform(400, 8, 600, seed=3)
        counts = pair_size_counts(sparse.edge_masks)
        assert calls == [400]
        assert counts == oracles.naive_spectrum(list(sparse.edges()))
        # Ten vertices on all 2000 edges: 8·Σ_v C(deg v, 2) is about 1.6·10^8,
        # over the word scan's 1.3·10^8, while the convexity bound gives 7·10^5.
        rng = random.Random(2)
        cored = list({mask_of(range(10)) | mask_of(rng.sample(range(10, 4000), 2)) for _ in range(2000)})
        monkeypatch.setattr(core, "_shared_vertex_counts", refuse)
        counts = pair_size_counts(cored)
        assert calls == [400, 4000]
        assert set(counts) <= {10, 11, 12} and sum(counts.values()) == comb(len(cored), 2)

    def test_one_wide_edge_among_small_ones(self, monkeypatch):
        """An edge on every vertex among small edges keeps memory at block
        scale: the shared-vertex count lists incidences without padding rows
        to the widest edge, and when those incidences outweigh the packed
        rows, the word scan runs."""
        import tracemalloc

        def refuse(*args):
            raise AssertionError("the other path ran")

        rng = random.Random(5)
        for n, k, m, skipped in ((10000, 3, 400, "_word_scan_counts"), (100000, 2, 39, "_shared_vertex_counts")):
            edges = list({frozenset(rng.sample(range(n - 1), k)) for _ in range(m)}) + [frozenset(range(n))]
            masks = [mask_of(e) for e in edges]
            with monkeypatch.context() as patch:
                patch.setattr(core, skipped, refuse)
                tracemalloc.start()
                try:
                    counts = pair_size_counts(masks)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert counts == dict(sorted(oracles.naive_spectrum(edges).items()))
            # Rows padded to the widest edge would take 8·len(masks)·n bytes.
            assert peak < 2 * len(masks) * n // 8 + 4 * core.BLOCK_BYTES < 8 * len(masks) * n // 4

    @settings(max_examples=40, deadline=None)
    @given(small_hypergraphs(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, h, rng):
        if h.num_edges < 2:
            return
        perm = list(range(h.num_vertices))
        rng.shuffle(perm)
        relabeled = Hypergraph(
            h.num_vertices, [{perm[v] for v in e} for e in h.edges()]
        )
        a = intersection_spectrum(h)
        b = intersection_spectrum(relabeled)
        assert a.sizes == b.sizes and a.multiplicities == b.multiplicities


class TestTally:
    """Each block of sizes is tallied by one equality pass per value when its
    values span at most ``TALLY_SPAN`` integers, else by np.bincount; both
    branches agree with the frozenset oracle. Spies on the two numpy calls
    record which branch each count took."""

    @pytest.fixture
    def branches(self, monkeypatch):
        taken = set()
        bincount, count_nonzero = np.bincount, np.count_nonzero

        def spy_bincount(*args, **kwargs):
            taken.add("bincount")
            return bincount(*args, **kwargs)

        def spy_passes(*args, **kwargs):
            taken.add("passes")
            return count_nonzero(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", spy_bincount)
        monkeypatch.setattr(np, "count_nonzero", spy_passes)
        return taken

    @staticmethod
    def word_scan(edges, n, other=None):
        rows = pack_words([mask_of(e) for e in edges], n)
        cols = None if other is None else pack_words([mask_of(e) for e in other], n)
        counts = core._word_scan_counts(rows, cols, n)
        assert list(counts) == sorted(counts)
        return counts

    def test_narrow_spectra_take_equality_passes(self, itf2, branches):
        composed = list(compose(fano(), complete_subsets(5, 3)).edges())[::7]  # all 7 outer lines
        for n, edges in ((49, list(itf2.edges())), (35, composed)):
            branches.clear()
            assert self.word_scan(edges, n) == oracles.naive_spectrum(edges)
            assert branches == {"passes"}
        assert len(oracles.naive_spectrum(composed)) == 8 <= core.TALLY_SPAN

    def test_broad_spectrum_takes_bincount(self, branches):
        rng = random.Random(11)
        edges = list({frozenset(rng.sample(range(130), rng.randint(1, 120))) for _ in range(60)})
        assert self.word_scan(edges, 130) == oracles.naive_spectrum(edges)
        assert branches == {"bincount"}

    def test_span_at_the_cutoff_and_one_past(self, branches):
        """A chain of nested edges over the 64-bit boundary: the pair of the
        i-th and j-th shortest edges meets in the shorter one, so edges of
        1 to s + 1 vertices give the sizes 1 to s. Both kernels are checked,
        the shared-vertex count through its run lengths."""
        for span, branch in ((core.TALLY_SPAN, "passes"), (core.TALLY_SPAN + 1, "bincount")):
            chain = [frozenset(range(60, 61 + i)) for i in range(span + 1)]
            expected = oracles.naive_spectrum(chain)
            assert sorted(expected) == list(range(1, span + 1))
            branches.clear()
            assert self.word_scan(chain, 80) == expected
            assert branches == {branch}
            listed = core._incidences([mask_of(e) for e in chain], 80)
            branches.clear()
            assert core._shared_vertex_counts(*listed, 80) == expected
            assert branches == {branch}

    def test_last_block_of_one_row(self, branches, monkeypatch):
        """With 4-row blocks, 41 edges leave a last block of one row, whose
        triangle and tail are both empty (the tail after the last block of
        one list is always empty)."""
        rng = random.Random(3)
        edges = [frozenset(rng.sample(range(100), 9)) for _ in range(41)]
        monkeypatch.setattr(core, "BLOCK_BYTES", 4 * 8 * len(edges))
        assert self.word_scan(edges, 100) == oracles.naive_spectrum(edges)
        assert branches == {"passes"}

    def test_cross_lists(self, branches):
        rng = random.Random(4)
        left = [frozenset(rng.sample(range(200), 9)) for _ in range(30)]
        right = [frozenset(rng.sample(range(200), rng.randint(1, 200))) for _ in range(50)]
        for rows, cols, branch in ((left, left[::-1], "passes"), (right, right[::-1], "bincount")):
            branches.clear()
            assert self.word_scan(rows, 200, cols) == oracles.naive_cross_spectrum(rows, cols)
            assert branches == {branch}


class TestIntersectionSizes:
    # 1 to 5 words; from 4 words (n > 192) the result dtype is uint16, and at
    # n = 256 the all-ones pair meets in 256 vertices, past uint8.
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 192, 193, 255, 256, 257, 320])
    def test_matches_bit_count(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        row_masks = [rng.getrandbits(n) for _ in range(9)] + [full]
        col_masks = [rng.getrandbits(n) for _ in range(6)] + [full, 0]
        rows, cols = pack_words(row_masks, n), pack_words(col_masks, n)
        sizes = intersection_sizes(rows, cols)
        assert sizes.dtype == np.min_scalar_type(64 * rows.shape[1])
        assert sizes.tolist() == [[(a & b).bit_count() for b in col_masks] for a in row_masks]
        assert intersection_sizes(rows[:0], cols).shape == (0, len(col_masks))
        assert intersection_sizes(rows, cols[:0]).shape == (len(row_masks), 0)


class TestPairSizeTotals:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 257])
    def test_matches_pair_size_total_per_list(self, n):
        rng = random.Random(n)
        lists = [[rng.getrandbits(n) for _ in range(rng.randint(0, 9))] for _ in range(6)] + [[(1 << n) - 1] * 3]
        others = [[rng.getrandbits(n) for _ in range(rng.randint(0, 5))] for _ in lists]

        def padded(mask_lists):
            edges = max(map(len, mask_lists))
            return pack_words([m for ms in mask_lists for m in ms + [0] * (edges - len(ms))], n).reshape(len(mask_lists), edges, -1)

        rows, cols = padded(lists), padded(others)
        assert core.pair_size_totals(rows).tolist() == [core.pair_size_total(ms) for ms in lists]
        assert core.pair_size_totals(rows, cols).tolist() == [core.pair_size_total(a, b) for a, b in zip(lists, others)]


def assert_incidences(n, masks, listed):
    """``listed`` is the blocked unpack's read-only intp list of ``masks``."""
    offsets, vertices = listed
    want = core._incidences(masks, n)
    assert offsets.tolist() == want[0].tolist() and vertices.tolist() == want[1].tolist()
    assert offsets.dtype == vertices.dtype == np.intp
    assert not offsets.flags.writeable and not vertices.flags.writeable


class TestIncidenceList:
    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 130, 400])
    def test_list_and_per_vertex_views(self, n, monkeypatch):
        rng = random.Random(n)
        edges = {frozenset(rng.sample(range(n), rng.randint(1, min(n, 9)))) for _ in range(40)}
        edges.add(frozenset(range(n)))
        h = Hypergraph(n, sorted(sorted(e) for e in edges))
        listed = [sorted(e) for e in h.edges()]
        # A cap of one byte builds the incidence list one edge at a time.
        for cap in (1, 4096, core.BLOCK_BYTES):
            monkeypatch.setattr(core, "BLOCK_BYTES", cap)
            fresh = Hypergraph(n, h.edges())
            offsets, vertices = core._edge_incidences(fresh)
            assert [vertices[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])] == listed
            assert offsets[0] == 0 and offsets[-1] == len(vertices)
            assert vertices.dtype == offsets.dtype == np.intp
            # Every reader shares the cached arrays, so none may write to them.
            assert core._edge_incidences(fresh)[1] is vertices
            assert not offsets.flags.writeable and not vertices.flags.writeable
            start, by_vertex = core.vertex_edges(fresh)
            assert [by_vertex[start[v] : start[v + 1]].tolist() for v in range(n)] == [
                [i for i, e in enumerate(fresh.edges()) if v in e] for v in range(n)
            ]
            assert core.vertex_edge_masks(fresh) == oracles.naive_vertex_edge_masks(n, listed)

    def test_list_build_holds_one_block(self):
        # 40 three-vertex edges over 10^5 vertices: each block of 10 edges
        # unpacks to 1 MB, freed before the next one is unpacked.
        rng = random.Random(4)
        n = 10**5
        masks = [mask_of(rng.sample(range(n), 3)) for _ in range(40)]
        tracemalloc.start()
        try:
            offsets, vertices = core._incidences(masks, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [vertices[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])] == [list(vertices_of(m)) for m in masks]
        assert peak < 1.5 * core.BLOCK_BYTES

    @pytest.mark.parametrize("n", [0, 5])
    def test_no_edges(self, n):
        h = Hypergraph(n, [])
        offsets, vertices = core._edge_incidences(h)
        assert (offsets.tolist(), vertices.tolist()) == ([0], [])
        rep = coloring.random_refute(h, trials=70, seed=1)
        assert (rep.mono_trials, rep.total_mono_edges) == (0, 0)
        start, edges = core.vertex_edges(h)
        assert [p for block in coloring._candidate_modules(h, start, edges) for p in block] == []
        quotient, kept = coloring._quotient(h, np.arange(n), np.zeros(n, dtype=bool))
        assert (quotient.num_vertices, quotient.num_edges, kept) == (0, 0, [])

    def test_numpy_parse_seeds_the_list(self, itf2):
        """The numpy parse caches the list it read; the line loop leaves it
        to the first reader, which unpacks the same one."""
        rnd = random.Random(3)
        triples = sorted({tuple(sorted(rnd.sample(range(200), 3))) for _ in range(300)})
        families = [
            itf2,
            random_uniform(400, 8, 600, seed=3),  # masks of seven 64-bit words
            Hypergraph(10_000, triples + [tuple(range(10_000))]),
            Hypergraph(7, []),
        ]
        for family in families:
            text = serialize_hypergraph(family)
            h = parse_hypergraph(text)
            assert (h.num_vertices, sorted(h.edge_masks)) == (family.num_vertices, sorted(family.edge_masks))
            assert_incidences(h.num_vertices, h.edge_masks, h._cache["incidences"])
            assert core._edge_incidences(h) is h._cache["incidences"]
            for other in (text.replace("\n", "\r\n"), "# comment\n" + text):
                looped = parse_hypergraph(other)
                assert looped == h and "incidences" not in looped._cache
                assert_incidences(looped.num_vertices, looped.edge_masks, core._edge_incidences(looped))

    def test_spectrum_reads_and_keeps_the_cached_list(self, monkeypatch):
        """The shared-vertex count of ``intersection_spectrum`` unpacks no
        second list: a parsed family's list is read, a built one's is listed
        once and stays cached for the later per-vertex views."""
        calls = []
        incidences = core._incidences
        monkeypatch.setattr(core, "_incidences", lambda masks, n: calls.append(n) or incidences(masks, n))
        built = random_uniform(400, 8, 600, seed=3)
        parsed = parse_hypergraph(serialize_hypergraph(built))
        assert intersection_spectrum(parsed) == intersection_spectrum(built)
        core.vertex_edges(built)
        core.vertex_edges(parsed)
        assert calls == [400]
        sp = intersection_spectrum(built)
        assert dict(zip(sp.sizes, sp.multiplicities)) == oracles.naive_spectrum(list(built.edges()))


class TestLambdas:
    def test_fano_within(self):
        h = Hypergraph(7, FANO_LINES)
        assert lambda_within(h, range(7)) == 1

    def test_single_pair(self):
        h = Hypergraph(6, [{0, 1, 2}, {0, 1, 3}, {4, 5}])
        assert lambda_within(h, [0, 1]) == 2

    def test_mean_of_three(self):
        # pairwise sizes 1, 2, 3 average to exactly 2
        h = Hypergraph(
            9, [{0, 1, 2, 3, 4}, {4, 5, 6, 7, 8}, {0, 1, 5, 6, 7}]
        )
        assert lambda_within(h, [0, 1, 2]) == 2

    def test_within_needs_two(self):
        h = Hypergraph(3, [{0, 1}])
        with pytest.raises(TooFewEdgesError):
            lambda_within(h, [0])

    def test_across_fano(self):
        h = Hypergraph(7, FANO_LINES)
        assert lambda_across(h, [0, 1, 2], [3, 4, 5, 6]) == 1

    def test_across_disjoint_edges(self):
        h = Hypergraph(4, [{0, 1}, {2, 3}])
        assert lambda_across(h, [0], [1]) == 0

    def test_across_errors(self):
        h = Hypergraph(7, FANO_LINES)
        with pytest.raises(OverlappingSetsError):
            lambda_across(h, [0, 1], [1, 2])
        with pytest.raises(EmptySetError):
            lambda_across(h, [], [1])

    def test_union_identity_random(self):
        rng = random.Random(777)
        for _ in range(40):
            n = rng.randint(4, 10)
            m = rng.randint(4, 10)
            edges = set()
            while len(edges) < m:
                edges.add(frozenset(rng.sample(range(n), rng.randint(1, n))))
            h = Hypergraph(n, list(edges))
            idx = list(range(m))
            rng.shuffle(idx)
            split = rng.randint(2, m - 2)
            s, t = idx[:split], idx[split:]
            if len(s) < 2 or len(t) < 2:
                continue
            union = s + t
            lhs = lambda_within(h, union) * comb(len(union), 2)
            rhs = (
                lambda_within(h, s) * comb(len(s), 2)
                + lambda_within(h, t) * comb(len(t), 2)
                + lambda_across(h, s, t) * len(s) * len(t)
            )
            assert lhs == rhs

    def test_exactness(self):
        h = Hypergraph(5, [{0, 1, 2}, {1, 2, 3}, {2, 3, 4}])
        val = lambda_within(h, range(3))
        assert isinstance(val, Fraction)
        assert val == Fraction(5, 3)
        assert val == oracles.naive_lambda_within([{0, 1, 2}, {1, 2, 3}, {2, 3, 4}], range(3))


class TestEdgesContaining:
    def test_fano_point(self):
        h = Hypergraph(7, FANO_LINES)
        for v in range(7):
            assert len(edges_containing(h, [v])) == 3

    def test_empty_set_gives_all(self):
        h = Hypergraph(7, FANO_LINES)
        assert edges_containing(h, []) == frozenset(range(7))

    def test_full_line_gives_itself(self):
        h = Hypergraph(7, FANO_LINES)
        for i in range(7):
            assert edges_containing(h, h.edge_vertices(i)) == {i}

    @pytest.mark.parametrize("vertices", [[-1], [7], [0, 8], [2, -3]])
    def test_out_of_range_vertex(self, vertices):
        with pytest.raises(OutOfRangeVertexError, match=r"valid range is \[0, 7\)"):
            edges_containing(Hypergraph(7, FANO_LINES), vertices)


class TestDegree:
    def test_counts_edges_on_vertex(self):
        h = Hypergraph(4, [{0, 1}, {1, 2}, {1, 3}])
        assert [h.degree(v) for v in range(4)] == [1, 3, 1, 1]

    @pytest.mark.parametrize("v", [-1, 4, 7])
    def test_out_of_range_vertex(self, v):
        with pytest.raises(OutOfRangeVertexError, match=rf"^vertex {v} out of range, valid range is \[0, 4\)$"):
            Hypergraph(4, [{0, 1}, {1, 2}]).degree(v)


class TestVertexEdgeMasks:
    """``vertex_edge_masks`` and the answers read from it (containment
    counts and degrees) against set scans."""

    @staticmethod
    def check_against_oracle(h, vertex_sets):
        edges = list(h.edges())
        expected = oracles.naive_vertex_edge_masks(h.num_vertices, edges)
        assert core.vertex_edge_masks(h) == expected
        assert [h.degree(v) for v in range(h.num_vertices)] == [bin(vm).count("1") for vm in expected]
        for vs in vertex_sets:
            assert edges_containing(h, vs) == {i for i, e in enumerate(edges) if e >= set(vs)}

    @settings(max_examples=60, deadline=None)
    @given(small_hypergraphs())
    def test_small_hypergraphs(self, h):
        n = h.num_vertices
        self.check_against_oracle(h, [vs for size in range(4) for vs in combinations(range(n), size)])

    def test_itf2(self, itf2):
        rng = random.Random(21)
        self.check_against_oracle(
            itf2, [[]] + [list(e)[:size] for e in rng.sample(list(itf2.edges()), 30) for size in (1, 2, 5, 9)]
        )

    @pytest.mark.parametrize("block_bytes", [None, 64])
    def test_random_families_with_idle_vertices(self, block_bytes, monkeypatch):
        # Edge counts off a multiple of 8, and vertices past the ones the
        # edges use have degree 0. At 64 block bytes every block holds 8 edges.
        if block_bytes is not None:
            monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
        rng = random.Random(8)
        for n, used, k, m in ((9, 6, 2, 13), (40, 30, 3, 61), (130, 70, 4, 203), (300, 300, 5, 8 * 37 + 5)):
            edges: dict[frozenset[int], None] = {}
            while len(edges) < m:
                edges[frozenset(rng.sample(range(used), k))] = None
            h = Hypergraph(n, edges)
            edges = list(edges)
            self.check_against_oracle(h, [[v] for v in range(n)] + [list(e)[:2] for e in edges[:20]])

    def test_without_edges(self):
        h = Hypergraph(3, [])
        assert core.vertex_edge_masks(h) == (0, 0, 0)
        assert edges_containing(h, []) == frozenset()
        assert [h.degree(v) for v in range(3)] == [0, 0, 0]
        assert core.vertex_edge_masks(Hypergraph(0, [])) == ()

    def test_build_holds_one_block(self):
        # 40 three-vertex edges over 10^5 vertices: an m x n byte array
        # would take 4 MB; the blocks of 8 edges take 0.8 MB unpacked.
        rng = random.Random(4)
        n = 10**5
        h = Hypergraph(n, {frozenset(rng.sample(range(n), 3)) for _ in range(40)})
        tracemalloc.start()
        try:
            masks = core.vertex_edge_masks(h)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert masks == oracles.naive_vertex_edge_masks(n, list(h.edges()))
        assert peak - held < 2 * core.BLOCK_BYTES < h.num_edges * n


class TestBudget:
    def test_node_limit(self):
        budget = Budget(nodes=2)
        assert [budget.step() for _ in range(3)] == [True, True, False]
        assert budget.spent == 3
        assert budget.tripped == "nodes"

    def test_no_limit_never_trips(self):
        budget = Budget()
        assert all(budget.step() for _ in range(1000))
        assert budget.tripped is None

    def test_ms_limit(self):
        budget = Budget(nodes=10, ms=0.0)
        time.sleep(0.002)
        assert not budget.step()
        assert budget.tripped == "ms"


class TestTextFormat:
    def test_round_trip_canonical(self):
        h = Hypergraph(7, FANO_LINES)
        text = serialize_hypergraph(h)
        assert serialize_hypergraph(parse_hypergraph(text)) == text
        assert text.endswith("\n") and " \n" not in text

    def test_header_and_fano_fixture(self):
        text = "# the plane of order two\n7 7\n" + "\n".join(
            " ".join(map(str, sorted(line))) for line in FANO_LINES
        )
        h = parse_hypergraph(text)
        assert h.num_edges == 7 and is_uniform(h) == 3
        assert intersection_spectrum(h).sizes == (1,)

    def test_malformed_token(self):
        with pytest.raises(ParseError) as err:
            parse_hypergraph("2 1\n0 x\n")
        assert err.value.line == 2

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError):
            parse_hypergraph("3 2\n0 1\n")

    def test_not_ascending(self):
        with pytest.raises(ParseError):
            parse_hypergraph("3 1\n1 0\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", 1, "missing header"),
            ("1 2 3\n", 1, "header must be 'num_vertices num_edges'"),
            ("# c\na b\n", 2, "header fields must be integers"),
            ("-1 2\n", 1, "header fields must be non-negative"),
            ("3 1\n1 0\n", 2, "vertex indices must be strictly ascending"),
            ("3 1\n0 0\n", 2, "vertex indices must be strictly ascending"),
            ("3 1\n\n0 1 1\n", 3, "vertex indices must be strictly ascending"),
            ("3 1\n-1 2\n", 2, "vertex index out of range"),
            ("3 1\n0 3\n", 2, "vertex index out of range"),
            ("3 1\n0 1\n1 2\n", 3, "more edge lines than the header announced"),
            ("3 2\n0 1\n", 3, "expected 2 edges, found 1"),
            ("3 2\r0 1\r", 3, "expected 2 edges, found 1"),
            ("3 2\r\n0 1\r\n", 3, "expected 2 edges, found 1"),
            ("3 2\n0 1", 2, "expected 2 edges, found 1"),
        ],
    )
    def test_parse_error_messages(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("token", ["2", "+2", "02", "\uff12"])
    def test_int_token_spellings(self, token):
        # Every spelling int() reads is one vertex, full-width digits included.
        assert parse_hypergraph(f"3 2\n0 {token}\n{token}\n").edge_masks == (0b101, 0b100)

    def test_equal_tokens_spelled_apart_are_not_ascending(self):
        with pytest.raises(ParseError, match="^line 2: vertex indices must be strictly ascending$"):
            parse_hypergraph("4 1\n3 03\n")

    def test_blank_and_indented_comment_lines(self):
        text = "  # c\n \t \n3 2\n\t# c\n0 1\n   \n  # c\n1 2\n  \n"
        assert parse_hypergraph(text).edge_masks == (0b011, 0b110)
        with pytest.raises(ParseError, match="^line 10: expected 3 edges, found 2$"):
            parse_hypergraph(text.replace("3 2", "3 3"))

    def test_duplicate_edge_lines(self):
        with pytest.raises(DuplicateEdgeError, match=r"^edge 1 repeats \[0, 1\]$"):
            parse_hypergraph("3 2\n0 1\n0 1\n")

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_hypergraph("2 1\n0 4\n")

    @settings(max_examples=30, deadline=None)
    @given(small_hypergraphs())
    def test_parse_serialize_identity(self, h):
        again = parse_hypergraph(serialize_hypergraph(h))
        assert again.num_vertices == h.num_vertices
        assert set(again.edge_masks) == set(h.edge_masks)


@st.composite
def families(draw):
    """A random family on up to 200 vertices, uniform or not, maybe empty."""
    n = draw(st.integers(min_value=0, max_value=200))
    rnd = draw(st.randoms(use_true_random=False))
    k = rnd.randint(1, min(n, 12)) if n else 0
    uniform = draw(st.booleans())
    edges = {frozenset(rnd.sample(range(n), k if uniform else rnd.randint(1, k))) for _ in range(rnd.randint(0, 40) if n else 0)}
    return Hypergraph(n, sorted(edges, key=sorted))


MUTATIONS = ("swap", "repeat", "duplicate", "extra", "missing", "blank", "spaces", "unterminated", "long", "header")


def mutate(text: str, rnd: random.Random) -> str:
    """``text`` after one to three random edits of its lines and tokens."""
    for _ in range(rnd.randint(1, 3)):
        lines = text.split("\n")
        i = rnd.randrange(len(lines))
        tokens = lines[i].split()
        kind = rnd.choice(MUTATIONS)
        if kind == "swap" and len(tokens) > 1:
            a, b = rnd.sample(range(len(tokens)), 2)
            tokens[a], tokens[b] = tokens[b], tokens[a]
            lines[i] = " ".join(tokens)
        elif kind == "repeat" and tokens:
            lines[i] = " ".join(tokens + [rnd.choice(tokens)] if rnd.random() < 0.5 else [tokens[0]] + tokens)
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "extra":
            lines.insert(i, " ".join(str(v) for v in sorted(rnd.sample(range(250), rnd.randint(1, 5)))))
        elif kind == "missing":
            del lines[i]
        elif kind == "blank":
            lines.insert(i, " " * rnd.randint(0, 3))
        elif kind == "spaces":
            lines[i] = " " * rnd.randint(0, 2) + lines[i].replace(" ", " " * rnd.randint(1, 3)) + " " * rnd.randint(0, 2)
        elif kind == "long" and tokens:
            j = rnd.randrange(len(tokens))
            tokens[j] = tokens[j].zfill(19) if rnd.random() < 0.5 else str(rnd.randrange(10**18, 10**19))
            lines[i] = " ".join(tokens)
        elif kind == "header":
            lines[0] = f"{rnd.randint(0, 210)} {rnd.randint(0, 45)}"
        text = "\n".join(lines)
        if kind == "unterminated":
            text = text.rstrip("\n")
    return text


class TestPlainParse:
    """The numpy pass over digits, spaces and newlines against the line loop."""

    @settings(max_examples=200, deadline=None)
    @given(families(), st.randoms(use_true_random=False))
    def test_plain_pass_agrees_with_the_line_loop(self, h, rnd):
        text = serialize_hypergraph(h)
        plain = core._parse_plain(text)
        assert plain[:2] == core._parse_lines(text) == (h.num_vertices, list(h.edge_masks))
        assert_incidences(*plain)
        text = mutate(text, rnd)
        plain = core._parse_plain(text)  # never raises
        if plain is not None:
            assert core._parse_lines(text) == plain[:2]  # and the loop does not raise either
            assert_incidences(*plain)

    def test_token_widths(self):
        # Up to 18 digit columns are read; a 19-digit token goes to the loop.
        text = f"5 2\n{'3'.zfill(18)} 4\n1 {'2'.zfill(17)} 3\n"
        assert core._parse_plain(text)[:2] == (5, [0b11000, 0b1110])
        assert core._parse_plain(text.replace("0" * 15, "0" * 16, 1)) is None
        assert parse_hypergraph(text.replace("0" * 15, "0" * 16, 1)).edge_masks == (0b11000, 0b1110)
        assert core._parse_plain("10000000000 1\n4294967296\n") is None  # a vertex from 2^32 on

    @pytest.mark.parametrize(
        "text",
        ["", "3\n", "3 1 0\n0\n", "3\n1\n0\n", "3 1\n\t0\n", "3 1\r\n0\r\n", "3 1\n+0\n", "3 1\n0\n1\n", "3 2\n0\n", "3 1\n3\n"],
    )
    def test_texts_left_to_the_loop(self, text):
        assert core._parse_plain(text) is None

    def test_blank_lines_spaces_and_no_final_newline(self):
        text = "\n  \n 3  2 \n\n0   1\n \n 1 2"
        assert core._parse_plain(text)[:2] == core._parse_lines(text) == (3, [0b011, 0b110])
        assert core._parse_plain("7 0\n\n")[:2] == (7, [])

    def test_peak_memory_is_linear_in_the_masks_and_the_text(self):
        # 3,000 edges within the first 200 vertices and one edge on all
        # 10,000: words sized by each edge's top vertex take about the masks'
        # bytes, where m x n/64 words would take 3.8 MB.
        rnd = random.Random(3)
        small = sorted({tuple(sorted(rnd.sample(range(200), 3))) for _ in range(3200)})[:3000]
        text = serialize_hypergraph(Hypergraph(10_000, small + [tuple(range(10_000))]))
        tracemalloc.start()
        try:
            h = parse_hypergraph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert core._parse_plain(text)[:2] == (h.num_vertices, list(h.edge_masks))
        masks = sum(map(sys.getsizeof, h.edge_masks))
        assert peak < 5 * (masks + len(text)), (peak, masks, len(text))


class TestLazyNumpy:
    """numpy loads on the first kernel call, not on import: each kernel imports it."""

    def test_numpy_stays_unloaded_until_a_kernel_needs_it(self, tmp_path):
        # Every module of the package is imported first, so an import-time
        # ``np.`` access anywhere (a default, a constant, an evaluated
        # annotation) fails the first check.
        script = (
            "import contextlib, io, json, pkgutil, sys\n"
            "import hyperspec, hyperspec.cli\n"
            "for info in pkgutil.iter_modules(hyperspec.__path__):\n"
            "    __import__('hyperspec.' + info.name)\n"
            "from hyperspec.cli import main\n"
            "assert 'numpy._core' not in sys.modules\n"
            "def run(args):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        try:\n"
            "            code = main(args)\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "    return code, out.getvalue()\n"
            "path = sys.argv[1]\n"
            "for args, expected in [\n"
            "    (['construct', '--family', 'fano'], 0),\n"
            "    (['construct', '--family', 'iterated-fano', '--param', 'm=2', '-o', path], 0),\n"
            "    (['construct', '--family', 'complete-subsets', '--param', 'n=6', '--param', 'k=3'], 0),\n"
            "    (['construct', '--family', 'ramsey-clique', '--param', 'n=6', '--param', 'k=3'], 0),\n"
            "    (['construct', '--family', 'random-uniform', '--param', 'n=10', '--param', 'k=4', '--param', 'm=3'], 0),\n"
            "    (['--help'], 0),\n"
            "    (['construct'], 2),\n"
            "    (['construct', '--family', 'fano', '--param', 'm=2'], 1),\n"
            "    (['spectrum', path + '.missing'], 1),\n"
            "]:\n"
            "    assert run(args)[0] == expected, args\n"
            "    assert 'numpy._core' not in sys.modules, args\n"
            "code, out = run(['spectrum', path])\n"
            "assert (code, json.loads(out)['sizes']) == (0, [1, 3, 5, 7])\n"
            "assert 'numpy._core' in sys.modules\n"
        )
        proc = run_fresh(["-c", script, str(tmp_path / "itf2.hg")], timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_missing_numpy_raises_module_not_found(self):
        # The finder answers for every other module as the usual finders do.
        script = (
            "import sys\n"
            "finders = list(sys.meta_path)\n"
            "class HideNumpy:\n"
            "    @staticmethod\n"
            "    def find_spec(name, path=None, target=None):\n"
            "        if name.partition('.')[0] != 'numpy':\n"
            "            return next(filter(None, (f.find_spec(name, path, target) for f in finders)), None)\n"
            "sys.meta_path[:] = [HideNumpy]\n"
            "for name in ('numpy', 'hyperspec'):\n"
            "    try:\n"
            "        __import__(name)\n"
            "    except ModuleNotFoundError as exc:\n"
            "        print(name, exc.name, exc)\n"
        )
        proc = run_fresh(["-c", script], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "numpy numpy No module named 'numpy'\nhyperspec numpy No module named 'numpy'\n"

    def test_first_kernel_calls_from_many_threads(self):
        # More threads than cores and a short switch interval: a read that
        # slipped past the lock would see a half-imported numpy, and a second
        # import would print numpy's reload warning.
        script = (
            "import sys, threading\n"
            "from hyperspec import core\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier = threading.Barrier(8)\n"
            "results = []\n"
            "def work():\n"
            "    barrier.wait()\n"
            "    results.append(core.pack_words([1, 2, 3], 3).tolist())\n"
            "threads = [threading.Thread(target=work) for _ in range(8)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "assert results == [[[1], [2], [3]]] * 8, results\n"
        )
        proc = run_fresh(["-c", script], timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize(
        "script",
        [
            "import sys\n"
            "import numpy\n"
            "before = dict(sys.modules)\n"
            "from hyperspec import coloring, core, lemmas\n"
            "assert all(sys.modules[name] is module for name, module in before.items())\n"
            "assert type(core.pack_words([1], 1)) is numpy.ndarray\n",
            "import pkgutil, sys\n"
            "import hyperspec\n"
            "for info in pkgutil.iter_modules(hyperspec.__path__):\n"
            "    __import__('hyperspec.' + info.name)\n"
            "assert 'numpy._core' not in sys.modules\n"
            "import numpy\n"
            "from hyperspec import coloring, constructions, core, lemmas\n"
            "h = constructions.fano()\n"
            "start, edges = core.vertex_edges(h)\n"
            "assert type(start) is type(edges) is numpy.ndarray\n"
            "assert coloring.random_refute(h, 64, 1).mono_trials == 64\n"
            "quotient, kept = coloring._quotient(h, numpy.arange(7), numpy.zeros(7, dtype=bool))\n"
            "assert (sorted(quotient.edge_masks), kept) == (sorted(h.edge_masks), list(range(7)))\n"
            "degrees = lemmas._vertex_degrees(lemmas._word_rows([[3, 6], [5]], 3))\n"
            "assert type(degrees) is numpy.ndarray and degrees[:, :3].tolist() == [[1, 2, 1], [1, 0, 1]]\n"
            "assert sys.modules['numpy'] is numpy\n",
        ],
        ids=["numpy-first", "hyperspec-first"],
    )
    def test_one_numpy_module(self, script):
        proc = run_fresh(["-c", script], timeout=60)
        assert proc.returncode == 0, proc.stderr


# Every name the package re-exports, by the submodule that defines it.
EXPORTED = {
    "core": [
        "Budget", "Hypergraph", "Spectrum", "is_uniform", "is_intersecting",
        "intersection_spectrum", "lambda_within", "lambda_across", "edges_containing",
        "parse_hypergraph", "serialize_hypergraph",
    ],
    "constructions": [
        "fano", "compose", "iterated_fano", "complete_subsets", "ramsey_clique_hypergraph", "random_uniform",
    ],
    "coloring": [
        "ColorResult", "ColorStatus", "Module", "ModuleCertificate", "monochromatic_edge", "find_2_coloring",
        "decide_2_coloring", "random_refute", "three_coloring_intersecting", "cover_number",
        "certificate_mono_edge", "compositional_mono_edge",
    ],
    "lemmas": [
        "InequalityReport", "check_pair_inequality", "check_average_lambda", "greedy_increase",
        "is_lambda_small", "validate_lambda_pair",
    ],
    "extraction": [
        "ExtractionParams", "LambdaPair", "TripleFamily", "IncrementTrace", "threshold_graph",
        "dependent_random_choice", "find_lambda_pair_ramsey", "find_lambda_pair_drc", "build_triple_family",
        "density_increment_run",
    ],
    "search": ["SearchReport", "min_spectrum_search", "canonical_form", "are_isomorphic"],
    "rng": ["DEFAULT_SEED"],
}
EXPORTED_NAMES = {name for names in EXPORTED.values() for name in names}

# What the benchmark's set-up imports, and every module ``hyperspec.cli`` loads.
SETUP = ["hyperspec", "hyperspec.constructions", "hyperspec.core", "hyperspec.errors", "hyperspec.rng"]
ALL = SETUP + ["hyperspec." + m for m in ("cli", "coloring", "extraction", "lemmas", "search")]


class TestLazyNamespace:
    """``hyperspec`` resolves its names on first access, so a caller loads
    only the layers it uses; the CLI loads every layer."""

    @pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items() for n in names])
    def test_name_resolves_to_its_definition(self, module, name):
        value = getattr(importlib.import_module(f"hyperspec.{module}"), name)
        assert getattr(hyperspec, name) is value
        assert vars(hyperspec)[name] is value  # cached: the next access is a plain lookup

    def test_dir_and_star_import_cover_every_name(self):
        assert EXPORTED_NAMES <= set(dir(hyperspec))
        namespace = {}
        exec("from hyperspec import *", namespace)
        assert EXPORTED_NAMES <= namespace.keys()
        assert set(hyperspec.__all__) == EXPORTED_NAMES

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'hyperspec' has no attribute 'no_such_name'"):
            hyperspec.no_such_name
        assert not hasattr(hyperspec, "__wrapped__")

    def test_submodule_loads_on_attribute_access(self):
        script = (
            "import sys\n"
            "import hyperspec\n"
            "assert 'hyperspec.coloring' not in sys.modules\n"
            "assert hyperspec.coloring is sys.modules['hyperspec.coloring']\n"
            "assert hyperspec.coloring.DEFAULT_NODE_BUDGET == hyperspec.core.DEFAULT_NODE_BUDGET == 10**8\n"
            "assert hyperspec.cli.main is sys.modules['hyperspec.cli'].main\n"
        )
        proc = run_fresh(["-c", script], timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "args, code, loaded",
        [
            ([], None, ["hyperspec"]),
            (["SET-UP"], None, SETUP),
            (["--help"], 0, ALL),
            (["construct"], 2, ALL),
            (["construct", "--family", "fano", "-o", "FILE"], 0, ALL),
            (["spectrum", "FILE"], 0, ALL),
        ],
        ids=["import", "set-up", "help", "usage-error", "construct", "spectrum"],
    )
    def test_modules_loaded_in_a_fresh_process(self, args, code, loaded, tmp_path):
        path = tmp_path / "fano.hg"
        path.write_text(serialize_hypergraph(fano()))
        script = (
            "import contextlib, io, json, sys\n"
            "import hyperspec\n"
            "code = None\n"
            "if sys.argv[1:] == ['SET-UP']:\n"
            "    from hyperspec import constructions\n"
            "    from hyperspec.core import serialize_hypergraph\n"
            "    serialize_hypergraph(constructions.iterated_fano(2))\n"
            "elif sys.argv[1:]:\n"
            "    from hyperspec.cli import main\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            code = main(sys.argv[1:])\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.partition('.')[0] == 'hyperspec')]))\n"
        )
        argv = [str(path) if a == "FILE" else a for a in args]
        proc = run_fresh(["-c", script, *argv], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [code, sorted(loaded)]
