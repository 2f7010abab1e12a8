import random
import time
import tracemalloc
from collections import Counter
from itertools import chain, combinations, product
from math import comb

import pytest

from hyperspec import (
    Hypergraph,
    certificate_mono_edge,
    complete_subsets,
    compose,
    compositional_mono_edge,
    cover_number,
    decide_2_coloring,
    fano,
    find_2_coloring,
    monochromatic_edge,
    ramsey_clique_hypergraph,
    random_refute,
    random_uniform,
    three_coloring_intersecting,
)
from hyperspec import coloring, core
from hyperspec.coloring import ColorStatus
from hyperspec.errors import (
    CompositionWitnessError,
    LengthMismatchError,
    NonUniformError,
    NotIntersectingError,
)

import oracles
from conftest import run_fresh


class TestMonochromaticEdge:
    def test_all_same_color(self, fano_h):
        assert monochromatic_edge(fano_h, [0] * 7) == 0

    def test_triangle(self):
        tri = complete_subsets(3, 2)
        assert tri.edge_vertices(0) == (0, 1)
        assert monochromatic_edge(tri, (0, 0, 1)) == 0

    def test_every_coloring_of_k5_pairs_has_mono(self):
        h = complete_subsets(5, 2)
        for colors in product((0, 1), repeat=5):
            # pigeonhole: 5 vertices, 2 colors, some pair repeats
            assert monochromatic_edge(h, colors) is not None

    def test_none_when_proper(self, fano_h):
        proper = three_coloring_intersecting(fano_h)
        assert monochromatic_edge(fano_h, proper) is None

    def test_length_mismatch(self, fano_h):
        with pytest.raises(LengthMismatchError):
            monochromatic_edge(fano_h, [0, 1])

    def test_time_linear_in_vertices(self):
        # Two edges over 10^6 vertices. Building a color's mask one vertex at
        # a time costs about n²/128 word operations: seconds here.
        n = 10**6
        h = Hypergraph(n, [[0, n - 1], [1, n - 2]])
        colors = [0] * n
        colors[n - 1] = 1
        started = time.monotonic()
        assert monochromatic_edge(h, colors) == 1
        colors[n - 1] = 0
        assert monochromatic_edge(h, colors) == 0
        assert time.monotonic() - started < 3.0


class TestFind2Coloring:
    def test_fano_not_colorable(self, fano_h):
        res = find_2_coloring(fano_h)
        assert res.status is ColorStatus.NOT_COLORABLE
        assert oracles.exhaustive_two_coloring(7, list(fano_h.edges())) is None

    def test_single_edge(self):
        res = find_2_coloring(Hypergraph(3, [{0, 1, 2}]))
        assert res.status is ColorStatus.COLORABLE
        assert len(set(res.coloring)) == 2

    def test_witness_always_verified(self):
        from math import comb

        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(3, 10)
            k = rng.randint(2, min(4, n))
            m = max(1, min(rng.randint(1, 12), 2 ** (k - 1) - 1, comb(n, k)))
            h = random_uniform(n, k, m, seed=rng.randrange(1 << 30))
            res = find_2_coloring(h)
            assert res.status is ColorStatus.COLORABLE
            assert monochromatic_edge(h, res.coloring) is None

    def test_agrees_with_oracle_on_random_instances(self):
        rng = random.Random(10)
        for _ in range(25):
            n = rng.randint(3, 9)
            k = rng.randint(2, min(4, n))
            m = rng.randint(2, 14)
            try:
                h = random_uniform(n, k, m, seed=rng.randrange(1 << 30))
            except Exception:
                continue
            res = find_2_coloring(h)
            oracle = oracles.exhaustive_two_coloring(n, list(h.edges()))
            assert (res.status is ColorStatus.COLORABLE) == (oracle is not None)

    def test_trajectory_matches_counting_oracle(self):
        # Same status, witness, node count and tripped budget as a per-edge
        # counting DPLL on frozensets, including instances with isolated
        # vertices, size-1 edges and masks across word boundaries.
        rng = random.Random(41)
        sizes = [rng.randint(1, 14) for _ in range(280)] + [63, 64, 65, 130] * 5
        for n in sizes:
            kmax = min(5, n) if n <= 14 else 4
            edges = set()
            for _ in range(rng.randint(0, 30 if n <= 14 else 60)):
                kmin = 1 if rng.random() < 0.05 else min(2, n)
                edges.add(frozenset(rng.sample(range(n), rng.randint(kmin, kmax))))
            h = Hypergraph(n, sorted(sorted(e) for e in edges))
            budget = rng.choice([None, 1, 3, 10, 50])
            res = find_2_coloring(h, budget_nodes=budget)
            expected = oracles.counting_dpll(n, list(h.edges()), budget)
            assert (res.status.value, res.coloring, res.nodes, res.budget_tripped) == expected

    def test_unknown_on_tiny_budget(self, itf2):
        res = find_2_coloring(itf2, budget_nodes=5)
        assert res.status is ColorStatus.UNKNOWN
        assert res.coloring is None

    def test_empty_hypergraph(self):
        res = find_2_coloring(Hypergraph(3, []))
        assert res.status is ColorStatus.COLORABLE

    def test_nodes_counted(self, fano_h):
        assert find_2_coloring(fano_h).nodes > 0

    def test_pinned_node_counts(self, fano_h, itf2):
        res = find_2_coloring(fano_h)
        assert (res.status, res.nodes, res.budget_tripped) == (ColorStatus.NOT_COLORABLE, 4, None)
        # The node that trips the budget is counted, not expanded.
        res = find_2_coloring(itf2, budget_nodes=2000)
        assert (res.status, res.nodes, res.budget_tripped) == (ColorStatus.UNKNOWN, 2001, "nodes")

    def test_ms_budget_is_named(self, itf2):
        res = find_2_coloring(itf2, budget_nodes=None, budget_ms=50.0)
        assert res.status is ColorStatus.UNKNOWN
        assert res.budget_tripped == "ms"

    def test_deep_sparse_family(self):
        # 1000 disjoint triples, two decisions each: 2000 levels, past the
        # default recursion limit.
        h = Hypergraph(3000, [[v, v + 1, v + 2] for v in range(0, 3000, 3)])
        res = find_2_coloring(h, budget_nodes=10**5)
        assert (res.status, res.nodes) == (ColorStatus.COLORABLE, 2000)
        assert monochromatic_edge(h, res.coloring) is None
        h = random_uniform(3000, 3, 50, seed=201)
        res = find_2_coloring(h, budget_nodes=10**5)
        assert res.status is ColorStatus.COLORABLE
        assert monochromatic_edge(h, res.coloring) is None

    def test_vertices_in_no_edge_cost_no_node(self):
        # One decision colors the path 0-1-2; the 997 other vertices keep color 0.
        h = Hypergraph(1000, [[0, 1], [1, 2]])
        for res in (find_2_coloring(h, budget_nodes=10), decide_2_coloring(h, budget_nodes=10)):
            assert (res.status, res.nodes, res.budget_tripped) == (ColorStatus.COLORABLE, 1, None)
            assert res.coloring == (1, 0, 1) + (0,) * 997
        res = find_2_coloring(Hypergraph(5, []), budget_nodes=0)
        assert (res.status, res.coloring, res.nodes) == (ColorStatus.COLORABLE, (0,) * 5, 0)

    def test_vertices_in_no_edge_stay_small(self):
        # A path on 3 of 10^6 vertices: a list per declared vertex peaked at
        # about 72 MiB; now the peak is about 18 MiB, mostly the per-vertex
        # slots and the witness tuple at 8 MB each.
        h = Hypergraph(10**6, [[0, 1], [1, 2]])
        tracemalloc.start()
        try:
            res = find_2_coloring(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.status, res.nodes, res.coloring[:4]) == (ColorStatus.COLORABLE, 1, (1, 0, 1, 0))
        assert peak < 30 * 2**20


def planted_instance(rng: random.Random, max_n: int = 14):
    """compose(outer, inner) of two small random uniform families, with a
    random family on disjoint vertices beside it when room is left."""
    n1, n2 = rng.randint(1, 4), rng.randint(2, 4)
    while n1 * n2 > max_n:
        n1, n2 = rng.randint(1, 4), rng.randint(2, 4)
    k1, k2 = rng.randint(1, n1), rng.randint(1, n2)
    outer = random_uniform(n1, k1, rng.randint(1, min(4, comb(n1, k1))), seed=rng.randrange(1 << 30))
    inner = random_uniform(n2, k2, rng.randint(1, min(4, comb(n2, k2))), seed=rng.randrange(1 << 30))
    prod = compose(outer, inner)
    base = prod.num_vertices
    extra = rng.randint(0, max_n - base)
    edges = [prod.edge_vertices(i) for i in range(prod.num_edges)]
    if extra:
        side = {frozenset(rng.sample(range(extra), rng.randint(1, min(3, extra)))) for _ in range(rng.randint(1, 5))}
        edges += [[base + v for v in sorted(e)] for e in side]
    return Hypergraph(base + extra, edges)


def random_instance(rng: random.Random, max_n: int = 14):
    n = rng.randint(1, max_n)
    edges = {frozenset(rng.sample(range(n), rng.randint(1, min(n, 4)))) for _ in range(rng.randint(0, 25))}
    return Hypergraph(n, sorted(sorted(e) for e in edges))


def wide_edge_family(n: int = 10_000, triples: int = 3000) -> Hypergraph:
    """``triples`` random triples on 200 vertices and one edge on all ``n``
    vertices, as the CLI's wide-edge smoke test builds it."""
    return Hypergraph(n, [*random_uniform(200, 3, triples, seed=5).edges(), range(n)])


@pytest.fixture
def candidates(monkeypatch):
    """A function of h giving the candidate pass's proposals on h and the
    vertices that the pass sent to the slot sort, in the order sent."""
    sent: list[int] = []
    sort = coloring._sorted_candidates
    monkeypatch.setattr(coloring, "_sorted_candidates", lambda *args: sent.extend(args[1].tolist()) or sort(*args))

    def run(h: Hypergraph) -> tuple[list[tuple[int, ...]], list[int]]:
        sent.clear()
        return [p for block in coloring._candidate_modules(h, *core.vertex_edges(h)) for p in block], list(sent)

    return run


class TestDecide2Coloring:
    def test_itf2_by_modules(self, itf2):
        # Seven Fano copies contracted (4 nodes each), then the Fano quotient.
        res = decide_2_coloring(itf2, budget_nodes=2000)
        assert (res.status, res.nodes, res.budget_tripped, res.method) == (
            ColorStatus.NOT_COLORABLE, 32, None, "modules")
        cert = res.certificate.to_json()
        assert [len(r) for r in cert["rounds"]] == [7]
        assert all(m["verdict"] == "not_colorable" for m in cert["rounds"][0])
        lines = sorted(sorted(e) for e in fano().edges())
        assert [(m["vertices"], m["traces"]) for m in cert["rounds"][0]] == [
            (list(range(7 * a, 7 * a + 7)), [[7 * a + v for v in line] for line in lines]) for a in range(7)
        ]
        assert cert["quotient"] == {"vertices": [list(range(7 * a, 7 * a + 7)) for a in range(7)], "edges": lines}
        assert oracles.check_module_certificate(49, list(itf2.edges()), cert) is False

    def test_does_not_import_numpy_ma(self):
        # np.unique loads numpy.ma, which numpy 2.x otherwise imports lazily;
        # the quotient must not need it.
        script = (
            "import sys\n"
            "from hyperspec import decide_2_coloring, iterated_fano\n"
            "eager = 'numpy.ma' in sys.modules\n"
            "assert decide_2_coloring(iterated_fano(2)).method == 'modules'\n"
            "assert eager or 'numpy.ma' not in sys.modules\n"
        )
        proc = run_fresh(["-c", script], timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_budget_shared_by_sub_solves(self, itf2):
        # The second copy's solve trips the 5-node budget on the 6th node.
        res = decide_2_coloring(itf2, budget_nodes=5)
        assert (res.status, res.nodes, res.budget_tripped, res.method, res.certificate) == (
            ColorStatus.UNKNOWN, 6, "nodes", "modules", None)
        res = decide_2_coloring(itf2, budget_nodes=None, budget_ms=0.0)
        assert (res.status, res.budget_tripped) == (ColorStatus.UNKNOWN, "ms")

    def test_clock_read_after_candidates_only_if_some_vertex_is_in_an_edge(self):
        # No vertex in an edge: no candidate block, so no clock read and no node.
        res = decide_2_coloring(Hypergraph(5, []), budget_ms=0)
        assert (res.status, res.nodes, res.budget_tripped) == (ColorStatus.COLORABLE, 0, None)
        # Vertices settled without a proposal still end in a block, read before any node.
        for h in (Hypergraph(3, [[0], [1]]), random_uniform(400, 8, 2400, seed=3)):
            res = decide_2_coloring(h, budget_ms=0)
            assert (res.status, res.nodes, res.budget_tripped, res.method) == (ColorStatus.UNKNOWN, 0, "ms", "dpll")

    def test_no_module_is_plain_dpll(self, fano_h):
        rng = random.Random(5)
        cases = [(fano_h, None), (ramsey_clique_hypergraph(6, 3), 3)]
        cases += [(random_uniform(40, 5, 60, seed=s), rng.choice([None, 2, 20])) for s in range(6)]
        cases += [(random_uniform(400, 8, 600, seed=3), budget) for budget in (None, 2)]  # 7 words, a trip
        tripped = False
        for h, budget in cases:
            res = decide_2_coloring(h, budget_nodes=budget)
            plain = find_2_coloring(h, budget_nodes=budget)
            assert (res.method, res.certificate) == ("dpll", None)
            assert (res.status, res.coloring, res.nodes, res.budget_tripped) == (
                plain.status, plain.coloring, plain.nodes, plain.budget_tripped)
            tripped |= res.budget_tripped == "nodes"
        assert tripped

    def test_list_fed_solve_matches_the_unpack(self, itf2):
        """The solve that reads each vertex's edges from ``vertex_edges``, as
        the last solve of ``decide_2_coloring`` does, gives the per-edge
        unpack's status, witness, nodes and trip, at every budget."""
        rng = random.Random(74)
        cases = [random_instance(rng) for _ in range(60)] + [planted_instance(rng) for _ in range(60)]
        cases += [random_uniform(400, 8, 600, seed=3), random_uniform(1000, 4, 80, seed=5), Hypergraph(10**5, [[0, 1], [1, 2]])]
        seen = set()
        for h, budget in [(h, b) for h in cases for b in (None, 2, 20)] + [(itf2, 300)]:
            plain = coloring._dpll(h, core.Budget(budget))
            fed = coloring._dpll(h, core.Budget(budget), core.vertex_edges(h))
            assert fed == plain
            seen.add((plain.status, plain.budget_tripped))
        assert seen == {(ColorStatus.COLORABLE, None), (ColorStatus.NOT_COLORABLE, None), (ColorStatus.UNKNOWN, "nodes")}

    def test_isolated_edges_dropped(self):
        h = random_uniform(3000, 3, 50, seed=201)
        res = decide_2_coloring(h, budget_nodes=10**5)
        assert (res.status, res.method) == (ColorStatus.COLORABLE, "modules")
        assert monochromatic_edge(h, res.coloring) is None
        assert res.nodes < 200  # no more than DPLL alone, which spends 95
        assert oracles.check_module_certificate(3000, list(h.edges()), res.certificate.to_json()) is True

    def test_quotient_edges_come_before_their_prefixes(self):
        # K_5^(3) on 0..4 is a module with outside parts {5, 6}, {5}, {7},
        # {8}, {9}; it is contracted to quotient vertex 0. The quotient edge
        # [0, 1] is a prefix of [0, 1, 2], and [2, 3] one of [2, 3, 4].
        parts = [{5, 6}, {5}, {7}, {8}, {9}]
        edges = [set(f) | g for g in parts for f in combinations(range(5), 3)] + [{6, 7, 8}, {6, 7}]
        h = Hypergraph(10, [sorted(e) for e in edges])
        res = decide_2_coloring(h)
        assert (res.status, res.method) == (ColorStatus.COLORABLE, "modules")
        assert res.certificate.to_json()["quotient"] == {
            "vertices": [[0, 1, 2, 3, 4], [5], [6], [7], [8], [9]],
            "edges": [[0, 1, 2], [0, 1], [0, 3], [0, 4], [0, 5], [2, 3, 4], [2, 3]],
        }
        assert oracles.check_module_certificate(10, list(h.edges()), res.certificate.to_json()) is True

    def test_one_wide_edge_stays_small(self):
        # 3000 triples on vertices 0..199 and one edge on all 1000 vertices:
        # nothing is laid out per edge at the widest edge's size.
        rng = random.Random(5)
        triples = {tuple(sorted(rng.sample(range(200), 3))) for _ in range(3000)}
        h = Hypergraph(1000, [*sorted(triples), range(1000)])
        edges = list(h.edges())
        tracemalloc.start()
        try:
            res = decide_2_coloring(h, budget_nodes=1000)
            rep = random_refute(h, 100, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.status, res.method) == (ColorStatus.NOT_COLORABLE, "dpll")
        assert (rep.mono_trials, rep.total_mono_edges) == oracles.naive_refute(1000, edges, 100, 1)
        assert peak < 16 * 2**20

    def test_agrees_with_exhaustive_oracle(self):
        rng = random.Random(71)
        methods, verdicts = [], set()
        for i in range(240):
            h = planted_instance(rng) if i % 2 else random_instance(rng)
            edges = list(h.edges())
            res = decide_2_coloring(h)
            oracle = oracles.exhaustive_two_coloring(h.num_vertices, edges)
            assert res.status is (ColorStatus.NOT_COLORABLE if oracle is None else ColorStatus.COLORABLE)
            if res.coloring is not None:
                assert len(res.coloring) == h.num_vertices
                assert oracles.mono_edge_count(edges, res.coloring) == 0
            methods.append(res.method)
            if res.certificate is not None:
                cert = res.certificate.to_json()
                colorable = oracles.check_module_certificate(h.num_vertices, edges, cert)
                assert colorable == (res.status is ColorStatus.COLORABLE)
                verdicts.update(m["verdict"] for r in cert["rounds"] for m in r)
                if not colorable:
                    colors = [rng.randrange(2) for _ in range(h.num_vertices)]
                    idx = certificate_mono_edge(h, res.certificate, colors)
                    assert len({colors[v] for v in h.edge_vertices(idx)}) == 1
        # Both reductions and both paths were exercised.
        assert verdicts == {"colorable", "not_colorable"}
        assert methods.count("modules") > 60 and methods.count("dpll") > 60

    def test_unknown_counts_budget_plus_one(self):
        rng = random.Random(72)
        for _ in range(150):
            h = planted_instance(rng)
            budget = rng.randint(0, 12)
            res = decide_2_coloring(h, budget_nodes=budget)
            if res.status is ColorStatus.UNKNOWN:
                assert (res.nodes, res.budget_tripped, res.coloring, res.certificate) == (budget + 1, "nodes", None, None)
            else:
                assert res.nodes <= budget and res.budget_tripped is None

    def test_row_blocks_propose_the_same_modules(self, itf2, monkeypatch):
        # With a tiny block cap the codegree rows come a few vertices at a time.
        rng = random.Random(73)
        small = [planted_instance(rng) for _ in range(30)]
        # The wide edge's family takes the words pass, which the cap of 8000 also splits.
        pairs = zip(range(250, 300, 2), range(251, 300, 2))
        wide = Hypergraph(300, [*random_uniform(40, 3, 60, seed=5).edges(), range(250), *pairs])
        large = [wide, itf2, random_uniform(3000, 3, 50, seed=201), random_uniform(400, 8, 600, seed=3)]

        def proposals(hs):
            out = []
            for h in hs:
                fresh = Hypergraph(h.num_vertices, h.edges())
                out.append([p for block in coloring._candidate_modules(fresh, *core.vertex_edges(fresh)) for p in block])
            return out

        expected = proposals(small + large)
        assert [len(set(p)) for p in expected[-3:]] == [7, 55, 5]
        for cap, hs in ((1, small), (8000, small + large)):
            monkeypatch.setattr(coloring, "BLOCK_BYTES", cap)
            monkeypatch.setattr(core, "BLOCK_BYTES", cap)
            assert proposals(hs) == expected[: len(hs)]

    def test_candidate_pass_walks_only_vertices_in_edges(self):
        # Three incidences among 10^7 vertices: the pass allocates nothing
        # per vertex of the hypergraph but one flag.
        h = Hypergraph(10**7, [[0, 1], [1, 2]])
        start, edges = core.vertex_edges(h)
        tracemalloc.start()
        try:
            proposals = [p for block in coloring._candidate_modules(h, start, edges) for p in block]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert proposals == [(0, 1), (1, 2)]
        assert peak < 24 * 2**20


class TestCandidateModules:
    def test_matches_naive_codegree_oracle(self, itf2, candidates):
        # Each vertex the pass keeps from the slot sort must be settled by
        # (a) I >= 1, (b) S = N >= 1 or (c) N < S < 2N, or have no other vertex.
        rng = random.Random(75)
        hs = []
        for _ in range(320):
            n = rng.randint(1, 150)
            sizes = (1, 2, 3, rng.randint(1, n))
            edges = {frozenset(rng.sample(range(n), rng.choice(sizes))) for _ in range(rng.randint(1, 30))}
            hs.append(Hypergraph(n, sorted(sorted(e) for e in edges)))
        hs += [complete_subsets(7, 4), itf2, compose(complete_subsets(5, 3), fano()), wide_edge_family(2000, 300)]
        fired: Counter[str] = Counter()
        for h in hs:
            edges = [frozenset(e) for e in h.edges()]
            proposals, sent = candidates(h)
            assert proposals == oracles.naive_module_candidates(h.num_vertices, edges)
            for v in set(chain(*edges)) - set(sent):
                on = [e for e in edges if v in e]
                S = sum(len(e) - 1 for e in on)
                N, I = len(frozenset.union(*on)) - 1, len(frozenset.intersection(*on)) - 1
                case = "a" if I else "b" if S == N > 0 else "c" if N < S < 2 * N else "alone" if S == 0 else None
                assert case is not None, (h.num_vertices, v)
                fired[case] += 1
            fired["sort"] += len(sent)
        assert all(fired[case] for case in ("a", "b", "c", "sort")), fired

    def test_slot_sort_gets_only_unsettled_vertices(self, itf2, candidates):
        # The edge words settle every vertex of the first two families; itf2's
        # vertices have S >= 2(|act| - 1), and on the last family 313 words
        # per edge outweigh its three slots, so all of theirs are sorted.
        assert candidates(random_uniform(400, 8, 2400, seed=3))[1] == []
        assert candidates(wide_edge_family()) == ([], [])
        assert candidates(itf2)[1] == list(range(49))
        h = random_uniform(20000, 3, 20000, seed=5)
        assert candidates(h)[1] == sorted(set(chain(*h.edges())))

    def test_wide_edge_pass_stays_small(self):
        # The words pass holds one block of gathered edge words at a time,
        # and no vertex beside the wide edge goes to the slot sort's 10^8 slots.
        h = wide_edge_family()
        start, edges = core.vertex_edges(h)
        tracemalloc.start()
        try:
            proposals = [p for block in coloring._candidate_modules(h, start, edges) for p in block]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert proposals == []
        assert peak < 8 * 2**20


class TestCertificateChecker:
    @staticmethod
    def fano_with_isolated_edge():
        # The edge {7, 8, 9} is a module with colorable traces; the Fano
        # plane beside it is one with non-colorable traces.
        h = Hypergraph(10, [*fano().edges(), {7, 8, 9}])
        res = decide_2_coloring(h)
        assert res.status is ColorStatus.NOT_COLORABLE
        return h, res.certificate.to_json()

    def test_accepts_itf2(self, itf2):
        cert = decide_2_coloring(itf2).certificate.to_json()
        assert oracles.check_module_certificate(49, list(itf2.edges()), cert) is False

    def test_rejects_non_module(self, itf2):
        cert = decide_2_coloring(itf2).certificate.to_json()
        first, second = cert["rounds"][0][:2]
        first["vertices"][-1], second["vertices"][-1] = second["vertices"][-1], first["vertices"][-1]
        with pytest.raises(AssertionError, match="not a module"):
            oracles.check_module_certificate(49, list(itf2.edges()), cert)

    def test_rejects_wrong_verdict(self):
        h, cert = self.fano_with_isolated_edge()
        [module] = [m for m in cert["rounds"][0] if m["vertices"] == [7, 8, 9]]
        assert module["verdict"] == "colorable"
        oracles.check_module_certificate(10, list(h.edges()), cert)
        module["verdict"] = "not_colorable"
        with pytest.raises(AssertionError, match="wrong verdict"):
            oracles.check_module_certificate(10, list(h.edges()), cert)

    def test_rejects_wrong_quotient_edge(self, itf2):
        cert = decide_2_coloring(itf2).certificate.to_json()
        edges = cert["quotient"]["edges"]
        edges[0] = sorted({*edges[0][:2], next(v for v in range(7) if v not in edges[0])})
        with pytest.raises(AssertionError, match="wrong quotient edges"):
            oracles.check_module_certificate(49, list(itf2.edges()), cert)

    def test_rejects_wrong_traces(self, itf2):
        cert = decide_2_coloring(itf2).certificate.to_json()
        cert["rounds"][0][3]["traces"].pop()
        with pytest.raises(AssertionError, match="traces differ"):
            oracles.check_module_certificate(49, list(itf2.edges()), cert)


class TestRandomRefute:
    def test_fano_fraction_one(self, fano_h):
        rep = random_refute(fano_h, trials=2000, seed=11)
        assert rep.mono_fraction == 1.0

    def test_single_edge_expectation(self):
        k = 5
        h = Hypergraph(k, [set(range(k))])
        rep = random_refute(h, trials=10_000, seed=13)
        assert abs(rep.mean_mono_edges - 2 ** (1 - k)) < 0.01

    def test_deterministic(self, fano_h):
        a = random_refute(fano_h, trials=500, seed=21)
        b = random_refute(fano_h, trials=500, seed=21)
        assert a == b

    def test_matches_oracle_counts(self):
        h = complete_subsets(5, 3)
        rep = random_refute(h, trials=200, seed=3)
        rng = oracles.refute_stream(3)
        edges = list(h.edges())
        total = 0
        mono = 0
        for _ in range(200):
            bits = rng.getrandbits(5)
            colors = [(bits >> v) & 1 for v in range(5)]
            c = oracles.mono_edge_count(edges, colors)
            total += c
            mono += c > 0
        assert rep.total_mono_edges == total
        assert rep.mono_trials == mono

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 257])
    def test_matches_oracle_across_word_boundaries(self, n, monkeypatch):
        rng = random.Random(n)
        # Odd vertices are isolated in `sparse`; `mixed` has a 1-vertex edge
        # and the edge on all n vertices, so edge sizes range from 1 to n.
        even = range(0, n, 2)
        sparse = {frozenset(rng.sample(even, rng.randint(1, min(len(even), 6)))) for _ in range(30)}
        mixed = {frozenset(rng.sample(range(n), rng.randint(1, min(n, 6)))) for _ in range(30)}
        mixed |= {frozenset({n - 1}), frozenset(range(n))}
        for edges in (sorted(sparse, key=sorted), sorted(mixed, key=sorted), []):
            h = Hypergraph(n, edges)
            for trials in (1, 63, 64, 65, 129, 1000):
                expected = oracles.naive_refute(n, edges, trials, n + trials)
                # Caps of one and of a few 64-trial words per block, so the
                # trials span several blocks, most ending on a partial word.
                for block_bytes in (1, 40_000):
                    monkeypatch.setattr(coloring, "BLOCK_BYTES", block_bytes)
                    rep = random_refute(h, trials, seed=n + trials)
                    assert (rep.mono_trials, rep.total_mono_edges) == expected

    def test_no_vertices(self):
        rep = random_refute(Hypergraph(0, []), trials=70, seed=1)
        assert (rep.mono_trials, rep.total_mono_edges, rep.mono_fraction) == (0, 0, 0.0)


class TestThreeColoring:
    def test_fano(self, fano_h):
        colors = three_coloring_intersecting(fano_h)
        assert monochromatic_edge(fano_h, colors) is None
        line0 = set(fano_h.edge_vertices(0))
        assert {colors[v] for v in line0} == {1, 2}
        assert all(colors[v] == 0 for v in range(7) if v not in line0)

    def test_single_edge_of_size_two(self):
        h = Hypergraph(2, [{0, 1}])
        assert three_coloring_intersecting(h) == (1, 2)

    def test_iterated_fano(self, itf2):
        colors = three_coloring_intersecting(itf2)
        assert monochromatic_edge(itf2, colors) is None

    def test_not_intersecting_rejected(self):
        with pytest.raises(NotIntersectingError):
            three_coloring_intersecting(Hypergraph(4, [{0, 1}, {2, 3}]))

    def test_non_uniform_rejected(self):
        with pytest.raises(NonUniformError):
            three_coloring_intersecting(Hypergraph(3, [{0, 1}, {0, 1, 2}]))


class TestCoverNumber:
    def test_fano(self, fano_h):
        assert cover_number(fano_h) == 3
        assert oracles.naive_cover_number(7, list(fano_h.edges())) == 3

    def test_single_edge(self):
        assert cover_number(Hypergraph(4, [{1, 2}])) == 1

    def test_search_improves_on_greedy(self):
        # The greedy cover takes 5 vertices here; the search finds 4.
        edges = [(3, 4), (2, 7), (3, 7), (6, 8), (5, 7), (1, 4), (2, 6), (1, 3)]
        assert cover_number(Hypergraph(9, edges)) == oracles.naive_cover_number(9, edges) == 4

    def test_complete_subsets(self):
        h = complete_subsets(5, 3)
        assert cover_number(h) == 3
        assert oracles.naive_cover_number(5, list(h.edges())) == 3

    def test_matches_oracle_random(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(3, 8)
            k = rng.randint(1, min(3, n))
            m = rng.randint(1, 8)
            try:
                h = random_uniform(n, k, m, seed=rng.randrange(1 << 30))
            except Exception:
                continue
            assert cover_number(h) == oracles.naive_cover_number(n, list(h.edges()))

    def test_budget_exhaustion_returns_none(self, itf2):
        assert cover_number(itf2, budget_nodes=3) is None

    def test_disjoint_triangles_deeper_than_recursion_limit(self):
        # Cover number 2 per triangle; a branch is 1200 decisions deep.
        edges = [(a + i, a + j) for a in range(0, 1800, 3) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert cover_number(Hypergraph(1800, edges), budget_nodes=10**5) in (1200, None)

    def test_at_most_k_for_uniform_intersecting(self, fano_h):
        assert cover_number(fano_h) <= 3


class TestCompositionalMonoEdge:
    def test_every_coloring_of_triangle_product(self):
        tri = complete_subsets(3, 2)
        prod = compose(tri, tri)
        edges = list(prod.edges())
        for bits in range(2**9):
            colors = [(bits >> v) & 1 for v in range(9)]
            idx = compositional_mono_edge(tri, tri, prod, colors)
            assert len({colors[v] for v in prod.edge_vertices(idx)}) == 1
            assert oracles.mono_edge_count(edges, colors) >= 1

    def test_random_colorings_on_iterated_fano(self, fano_h, itf2):
        rng = random.Random(23)
        for _ in range(300):
            colors = [rng.randrange(2) for _ in range(49)]
            idx = compositional_mono_edge(fano_h, fano_h, itf2, colors)
            assert len({colors[v] for v in itf2.edge_vertices(idx)}) == 1

    def test_colorable_inner_detected(self):
        # A single-edge inner factor is 2-colorable, so some copy has no
        # forced monochromatic inner edge under a suitable coloring.
        tri = complete_subsets(3, 2)
        inner = Hypergraph(2, [{0, 1}])
        prod = compose(tri, inner)
        colors = [0, 1] * 3
        with pytest.raises(CompositionWitnessError):
            compositional_mono_edge(tri, inner, prod, colors)

    def test_size_mismatch(self, fano_h, itf2):
        with pytest.raises(LengthMismatchError):
            compositional_mono_edge(fano_h, fano_h, itf2, [0] * 10)


class TestSparseColorability:
    def test_sparse_uniform_hypergraphs_colorable(self):
        # Fewer than 2^(k-1) edges forces colorability.
        from math import comb

        rng = random.Random(31)
        for _ in range(30):
            k = rng.randint(2, 6)
            n = rng.randint(k + 1, 2 * k + 2)
            m = max(1, min(2 ** (k - 1) - 1, 10, comb(n, k)))
            h = random_uniform(n, k, m, seed=rng.randrange(1 << 30))
            assert find_2_coloring(h).status is ColorStatus.COLORABLE

    def test_folklore_one_in_spectrum(self):
        from hyperspec import intersection_spectrum

        corpus = [
            fano(),
            complete_subsets(3, 2),
            complete_subsets(5, 3),
            ramsey_clique_hypergraph(6, 3),
        ]
        for h in corpus:
            assert find_2_coloring(h).status is ColorStatus.NOT_COLORABLE
            assert 1 in intersection_spectrum(h).sizes
