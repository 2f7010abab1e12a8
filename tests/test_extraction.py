import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import oracles

from hyperspec import (
    Hypergraph,
    build_triple_family,
    complete_subsets,
    compose,
    density_increment_run,
    dependent_random_choice,
    fano,
    find_lambda_pair_drc,
    find_lambda_pair_ramsey,
    intersection_spectrum,
    iterated_fano,
    monochromatic_edge,
    random_uniform,
    threshold_graph,
    validate_lambda_pair,
)
from hyperspec.errors import (
    EmptySetError,
    HypothesesViolatedError,
    NoDisjointEdgeError,
    NoQualifyingSubsetError,
    PoolExhaustedError,
    TooFewEdgesError,
    WidthTooLargeError,
)
from hyperspec import extraction
from hyperspec.core import vertices_of
from hyperspec.extraction import (
    ExtractionParams,
    gnp_random_graph,
)
from hyperspec.rng import substream


def spread_case_instance():
    """Eight petals through a core vertex plus four transversal edges that
    pairwise meet only in a shared apex: every intersection size is 1, and
    the triple family over the petals groups entirely on the core."""
    k = 9
    petals = []
    for i in range(8):
        base = 1 + 8 * i
        petals.append({0, *range(base, base + 8)})
    apex = 65
    transversals = []
    for j in range(4):
        edge = {1 + 8 * i + j for i in range(8)}
        edge.add(apex)
        transversals.append(edge)
    return Hypergraph(66, petals + transversals)


def num_edges(adj):
    return sum(map(int.bit_count, adj)) // 2


class TestSimpleGraph:
    """Graphs as adjacency-mask tuples."""

    def test_common_neighbors(self):
        adj = oracles.graph_adjacency(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4)])
        mask = extraction._common_neighbors(adj, [0, 1])
        assert mask == (1 << 2) | (1 << 3)

    def test_gnp_deterministic(self):
        a = gnp_random_graph(60, 0.4, seed=5)
        b = gnp_random_graph(60, 0.4, seed=5)
        assert a == b and all(type(row) is int for row in a)
        c = gnp_random_graph(60, 0.4, seed=6)
        assert a != c


class TestThresholdGraph:
    def test_fano_complete_at_one(self, fano_h):
        g = threshold_graph(fano_h, range(7), 1)
        assert num_edges(g) == comb(7, 2)

    def test_fano_empty_at_two(self, fano_h):
        g = threshold_graph(fano_h, range(7), 2)
        assert num_edges(g) == 0

    def test_iterated_fano_matches_multiplicities(self, itf2):
        sp = intersection_spectrum(itf2)
        g = threshold_graph(itf2, range(2401), 7)
        assert num_edges(g) == sp.multiplicity_of(7) == 21609

    def test_subset_with_labels(self, fano_h):
        g = threshold_graph(fano_h, [2, 5, 6], 1)
        assert len(g) == 3
        assert num_edges(g) == 3

    def test_too_few(self, fano_h):
        with pytest.raises(TooFewEdgesError):
            threshold_graph(fano_h, [1], 1)

    def test_pair_count_density_is_the_graph_density(self, itf2):
        # The DRC extractor reads its density from the pool's pair counts:
        # the threshold graph's edges are the pairs meeting in >= lam vertices.
        h = compose(fano(), complete_subsets(5, 3))
        rng = random.Random(0)
        cases = [(itf2, range(2401), lam) for lam in (3, 5, 7)]
        cases += [(h, rng.sample(range(h.num_edges), 600), 2) for _ in range(2)]
        for hg, pool, lam in cases:
            g = threshold_graph(hg, pool, lam)
            m = len(g)
            assert type(g) is tuple and {type(row) for row in g} == {int}
            assert m == len(pool) and 0 < num_edges(g) < comb(m, 2)  # not complete
            counts = extraction._pool_pair_counts(hg, sorted(pool))
            assert extraction._threshold_density(counts, lam, m) == Fraction(2 * num_edges(g), m * m)


class TestDependentRandomChoice:
    def test_complete_graph_trivial(self):
        # Complete graph: the common neighborhood of any sample is all
        # remaining vertices, so the first attempt succeeds with no bad
        # subsets. Hypotheses need m > 4*t*d^-t*n = 32n here.
        m = 512
        n = 8
        g = oracles.graph_adjacency(m, [(i, j) for i in range(m) for j in range(i + 1, m)])
        res = dependent_random_choice(g, Fraction(1, 2), 2, n, seed=1)
        assert res is not None
        assert len(res.u) > 2 * n
        assert res.exhaustive
        assert extraction._bad_subsets(g, sorted(res.u), 2, n) == []

    def test_empty_graph_violates(self):
        g = oracles.graph_adjacency(64, [])
        with pytest.raises(HypothesesViolatedError):
            dependent_random_choice(g, Fraction(1, 2), 2, 8, seed=1)

    def test_too_few_vertices_violates(self):
        g = oracles.graph_adjacency(10, [(i, j) for i in range(10) for j in range(i + 1, 10)])
        with pytest.raises(HypothesesViolatedError):
            dependent_random_choice(g, Fraction(1, 2), 2, 8, seed=1)

    def test_gnp_statistical_single_seed(self):
        g = gnp_random_graph(512, 0.6, seed=7)
        res = dependent_random_choice(g, Fraction(1, 2), 2, 8, seed=7)
        assert res is not None
        assert len(res.u) > 16
        assert res.exhaustive
        # independent recount with adjacency sets
        adj_sets = [set() for _ in range(512)]
        for u, v in combinations(range(512), 2):
            if g[u] >> v & 1:
                adj_sets[u].add(v)
                adj_sets[v].add(u)
        members = sorted(res.u)
        bad = sum(
            1
            for a, b in combinations(members, 2)
            if len(adj_sets[a] & adj_sets[b]) < 8
        )
        assert bad == 0 == len(extraction._bad_subsets(g, members, 2, 8))

    def test_deletion_cleanup(self):
        # Clique plus two pendants: every pair touching a pendant has a
        # tiny common neighborhood. The greedy hitting set must remove
        # exactly the pendants and leave no bad pair behind.
        from hyperspec.extraction import _bad_subsets, _cleanup_bad_subsets

        m = 20
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
        edges += [(m, 0), (m + 1, 0)]
        g = oracles.graph_adjacency(m + 2, edges)
        members = list(range(m + 2))
        n = 3
        bad_subsets = _bad_subsets(g, members, 2, n)
        assert len(bad_subsets) > 0
        kept, removed = _cleanup_bad_subsets(members, bad_subsets)
        assert removed == 2 and set(members) - set(kept) == {m, m + 1}
        assert len(_bad_subsets(g, kept, 2, n)) == 0

    def test_undecided_attempts_fail(self, monkeypatch):
        # Each attempt's U is large, the floor leaves it open and C(|U|, 5)
        # exceeds ENUM_CAP, so both attempts are undecided: None after
        # exactly 2 * 5 vertex draws.
        g = gnp_random_graph(1200, 0.8, seed=3)
        t, n = 5, 12
        expected = substream(1, "drc")
        for _ in range(2):
            draws = [expected.randrange(1200) for _ in range(t)]
            members = list(vertices_of(extraction._common_neighbors(g, draws)))
            assert len(members) > 2 * n
            assert extraction._common_neighbor_floor(g, members, t) < n
            assert comb(len(members), t) > extraction.ENUM_CAP
        made = []
        monkeypatch.setattr(
            extraction, "substream", lambda *key: made.append(substream(*key)) or made[-1]
        )
        assert dependent_random_choice(g, Fraction(79, 100), t, n, seed=1, retries=2) is None
        assert made[-1].getstate() == expected.getstate()

    def test_enumeration_without_bad_subsets_keeps_u(self, monkeypatch):
        # With the floor disabled, K_40's U is enumerated, has no bad pair and
        # goes through the cleanup unchanged: the same result as the floor's.
        g = oracles.graph_adjacency(40, [(i, j) for i in range(40) for j in range(i + 1, 40)])
        floor_res = dependent_random_choice(g, Fraction(9, 10), 2, 2, seed=0)
        counted = []
        real = extraction._bad_subsets
        monkeypatch.setattr(extraction, "_common_neighbor_floor", lambda *a: -1)
        monkeypatch.setattr(
            extraction, "_bad_subsets", lambda *a: counted.append(real(*a)) or counted[-1]
        )
        res = dependent_random_choice(g, Fraction(9, 10), 2, 2, seed=0)
        assert [len(bad) for bad in counted] == [0]
        assert res == floor_res
        assert (len(res.u), res.removed, res.attempts) == (38, 0, 1)
        assert real(g, sorted(res.u), 2, 2) == []


    def test_small_common_neighborhood_retries(self):
        # A clique on 180 of 300 vertices: a draw that takes an isolated vertex
        # has no common neighbor, so |U| <= 2n and the next attempt draws
        # again. The first draw inside the clique is accepted by the floor.
        m, clique, t, n, seed = 300, 180, 2, 2, 0
        g = oracles.graph_adjacency(m, combinations(range(clique), 2))
        expected = substream(seed, "drc")
        attempts = 1
        while not all(v < clique for v in [expected.randrange(m) for _ in range(t)]):
            attempts += 1
        assert attempts > 1
        res = dependent_random_choice(g, Fraction(1, 4), t, n, seed=seed)
        assert res.attempts == attempts and res.u < frozenset(range(clique))

    def test_cleanup_leaving_too_few_fails(self, monkeypatch):
        # The first draw's U has 20 members u_0 .. u_19, and only the ten
        # pairs (u_2i, u_2i+1) are bad: a bad share of 10/190 < 1/(2t)^t.
        # Deleting a member of each bad pair leaves 10 = 2n, too few, so
        # the attempt fails with the floor disabled.
        m, t, n, seed = 170, 2, 5, 3
        expected = substream(seed, "drc")
        drawn = {expected.randrange(m) for _ in range(t)}
        others = [v for v in range(m) if v not in drawn]
        u, rest = others[:20], others[20:]
        edges = [(s, v) for s in drawn for v in u] + list(combinations(rest, 2))
        # Each other vertex is adjacent to one member of every pair, so no
        # pair (u_2i, u_2i+1) has a common neighbor outside the draw.
        sides = random.Random(0)
        edges += [(r, u[2 * i + sides.randrange(2)]) for r in rest for i in range(10)]
        g = oracles.graph_adjacency(m, edges)
        assert sorted(vertices_of(extraction._common_neighbors(g, drawn))) == u
        bad_subsets = extraction._bad_subsets(g, u, t, n)
        assert sorted(bad_subsets) == [(u[2 * i], u[2 * i + 1]) for i in range(10)]
        assert Fraction(len(bad_subsets), comb(20, 2)) < Fraction(1, (2 * t) ** t)
        assert len(extraction._cleanup_bad_subsets(u, bad_subsets)[0]) == 2 * n
        monkeypatch.setattr(extraction, "_common_neighbor_floor", lambda *a: -1)
        assert dependent_random_choice(g, Fraction(1, 2), t, n, seed=seed, retries=1) is None


class TestRamseyPair:
    def test_fano_two(self, fano_h):
        pair = find_lambda_pair_ramsey(fano_h, range(7), 2, seed=0)
        assert len(pair.x) == 2
        assert pair.lam == 1
        assert pair.validated
        assert pair.x.isdisjoint(pair.y)
        # single-color instance: nothing is discarded beyond the pulls
        assert len(pair.y) == 5

    def test_pool_exhausted(self, fano_h):
        with pytest.raises(PoolExhaustedError):
            find_lambda_pair_ramsey(fano_h, [0], 2, seed=0)

    def test_iterated_fano_validates(self, itf2):
        pair = find_lambda_pair_ramsey(itf2, range(2401), 3, seed=0)
        check = validate_lambda_pair(itf2, pair.x, pair.y, pair.lam, 3)
        assert check.valid
        # cross pairs are exactly the majority color
        assert check.cross_min == pair.lam

    def test_deterministic(self, itf2):
        a = find_lambda_pair_ramsey(itf2, range(2401), 4, seed=9)
        b = find_lambda_pair_ramsey(itf2, range(2401), 4, seed=9)
        assert (a.x, a.y, a.lam) == (b.x, b.y, b.lam)


class TestDrcPair:
    FALLBACK = "drc hypotheses unsatisfiable at this scale; direct search over the pool"

    def test_rejected_drc_fallback_names_its_cause(self):
        # The hypotheses hold (n_target >= t), yet every DRC attempt is
        # undecided or too small, so the note names the rejection, not the scale.
        h = compose(fano(), complete_subsets(5, 3))
        params = ExtractionParams(t=4, x=4, seed=0)
        g = threshold_graph(h, range(7000), 2)
        d = Fraction(2 * num_edges(g), 7000 * 7000)
        n_target = int(7000 * d**4 / 20)
        assert n_target >= 4
        assert dependent_random_choice(g, d, 4, n_target, 0) is None
        pair = find_lambda_pair_drc(h, range(7000), 2, params)
        assert pair.notes == (
            f"drc accepted no U in {extraction.DRC_RETRIES} attempts; direct search over the pool",
        )
        assert pair.validated

    def test_fano_degenerate(self, fano_h):
        params = ExtractionParams(t=2, x=1, seed=0)
        pair = find_lambda_pair_drc(fano_h, range(7), 1, params)
        assert pair.validated and pair.lam == 1
        assert len(pair.x) == 2

    def test_disjoint_pool_rejected(self):
        h = Hypergraph(8, [{0, 1}, {2, 3}, {4, 5}, {6, 7}])
        params = ExtractionParams(t=2, x=1, seed=0)
        with pytest.raises(HypothesesViolatedError):
            find_lambda_pair_drc(h, range(4), 1, params)

    def test_iterated_fano_lambda_three(self, itf2):
        # Most pairs meet in one vertex, and C(2401, 4) is too many 4-subsets
        # to count, so the 3-small share is undecided and the search goes on.
        params = ExtractionParams(t=4, x=4, seed=0)
        pair = find_lambda_pair_drc(itf2, range(2401), 3, params)
        assert pair.notes[0] == "3-small share of 4-subsets undecided; proceeding"
        assert (sorted(pair.x), len(pair.y)) == ([735, 1893, 2011, 2080], 48)
        check = validate_lambda_pair(itf2, pair.x, pair.y, 3, 4)
        assert check.valid
        assert check.cross_min >= 3

    @pytest.mark.parametrize(
        "d, raised, note, x",
        [
            # d = 1: the complete threshold graph has fewer than m^2/2 edges.
            (Fraction(1), True, FALLBACK, [817, 1092, 1359, 2248]),
            (Fraction(1, 2), False, "drc accepted |U|=2397 with demand n=7", [147, 1393, 1430, 2258]),
            # The demand m*d^t/(5t) falls below t, so the DRC is not called.
            (Fraction(1, 100), None, FALLBACK, [817, 1092, 1359, 2248]),
            (Fraction(-1, 2), True, FALLBACK, [817, 1092, 1359, 2248]),
        ],
    )
    def test_hypotheses_checked_by_drc(self, itf2, monkeypatch, d, raised, note, x):
        # find_lambda_pair_drc leaves the density and vertex-count hypotheses
        # to dependent_random_choice and falls back when it raises.
        outcomes = []
        real = extraction.dependent_random_choice

        def spy(*args):
            try:
                res = real(*args)
            except HypothesesViolatedError:
                outcomes.append(True)
                raise
            outcomes.append(False)
            return res

        monkeypatch.setattr(extraction, "dependent_random_choice", spy)
        pair = find_lambda_pair_drc(itf2, range(2401), 1, ExtractionParams(t=4, x=4, d=d, seed=0))
        assert outcomes == ([] if raised is None else [raised])
        assert pair.notes == (note,)
        assert (sorted(pair.x), len(pair.y), pair.validated) == (x, 2397, True)

    def test_pool_smaller_than_t_refused(self, fano_h):
        with pytest.raises(NoQualifyingSubsetError, match="pool of 3 cannot contain a 4-subset"):
            find_lambda_pair_drc(fano_h, [0, 1, 2], 1, ExtractionParams(t=4, seed=0))

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_accepted_u_meets_the_demand(self, t):
        # At lambda = 3 the threshold graph of K(11, 6) is not complete. Every
        # t-subset of an accepted U has n common neighbors, so Y reaches n.
        h = complete_subsets(11, 6)
        pair = find_lambda_pair_drc(h, range(h.num_edges), 3, ExtractionParams(t=t, seed=0))
        note, = pair.notes
        assert note.startswith("drc accepted")
        assert pair.validated and len(pair.y) >= int(note.rsplit("=", 1)[1])

    # Pools of itf2's first edges at lambda = 1. random.sample would draw other
    # subsets from 20 members at t = 4 and 21 at t = 6, below its set-method
    # threshold; 100 and the DRC's 2397 members lie above it.
    @pytest.mark.parametrize("size, t", [(20, 4), (21, 6), (100, 6), (2401, 4)])
    def test_sampled_candidates_follow_the_rule(self, itf2, monkeypatch, size, t):
        tried, made, accepted = [], {}, []
        real_pairwise, real_drc = extraction._pairwise_at_most, extraction.dependent_random_choice
        monkeypatch.setattr(
            extraction, "_pairwise_at_most", lambda masks, sub, c: tried.append(sub) or real_pairwise(masks, sub, c)
        )
        monkeypatch.setattr(extraction, "substream", lambda seed, name: made.setdefault(name, substream(seed, name)))
        monkeypatch.setattr(
            extraction, "dependent_random_choice", lambda *a: accepted.append(real_drc(*a)) or accepted[-1]
        )
        try:
            find_lambda_pair_drc(itf2, range(size), 1, ExtractionParams(t=t, seed=3))
        except NoQualifyingSubsetError:
            assert len(tried) == extraction.SEARCH_TRIES
        members = sorted(accepted[0].u) if accepted and accepted[0] else range(size)
        assert comb(len(members), t) > extraction.SEARCH_TRIES
        expected = substream(3, "drc-pair/1")
        assert tried == [oracles.naive_random_subset(expected, members, t) for _ in tried]
        assert made["drc-pair/1"].getstate() == expected.getstate()

    def test_iterated_fano_lambda_one_uses_drc(self, itf2):
        params = ExtractionParams(t=4, x=4, seed=0)
        pair = find_lambda_pair_drc(itf2, range(2401), 1, params)
        assert pair.validated
        assert any("drc accepted" in note for note in pair.notes)


class TestTripleFamily:
    def test_fano_enumeration(self, fano_h):
        pool = [1, 2, 3, 4, 5, 6]
        fam = build_triple_family(fano_h, pool, anchor=0, x=1)
        assert oracles.naive_triple_family(list(fano_h.edges()), pool, 0, 1) == (fam.triples, True)
        used = set()
        for a, b, xi in fam.triples:
            assert a in pool and b in pool and a != b
            assert not used & {a, b}
            used.update((a, b))
            assert len(xi) == 1
            assert xi <= set(fano_h.edge_vertices(0))
            assert xi <= set(fano_h.edge_vertices(a))
            assert not xi & set(fano_h.edge_vertices(b))

    def test_greedy_matches_independent_rescan(self, itf2):
        pool = list(range(1, 400))
        fam = build_triple_family(itf2, pool, anchor=0, x=4)
        used = {e for a, b, _ in fam.triples for e in (a, b)}
        unused = [e for e in pool if e not in used]
        u_set = set(itf2.edge_vertices(0))
        for a in unused:
            for b in unused:
                if a == b:
                    continue
                free = (set(itf2.edge_vertices(a)) & u_set) - set(itf2.edge_vertices(b))
                assert len(free) < 4

    def test_width_too_large(self, fano_h):
        with pytest.raises(WidthTooLargeError):
            build_triple_family(fano_h, [1, 2], anchor=0, x=4)

    def test_empty_pool(self, fano_h):
        with pytest.raises(EmptySetError):
            build_triple_family(fano_h, [], anchor=0, x=1)

    def test_deterministic(self, itf2):
        a = build_triple_family(itf2, range(1, 200), anchor=0, x=4)
        b = build_triple_family(itf2, range(1, 200), anchor=0, x=4)
        assert a == b

    def test_matches_restarting_scan(self, itf2):
        cases = [(itf2, range(1, 300), 0, x) for x in (1, 4, 7)]
        cases.append((compose(fano(), complete_subsets(5, 3)), range(1, 600), 5, 2))
        rng = substream(0, "triple-family")
        for _ in range(40):
            n, k = rng.randint(4, 12), rng.randint(2, 5)
            h = random_uniform(n, min(k, n), min(comb(n, min(k, n)), rng.randint(2, 40)), seed=rng.getrandbits(32))
            pool = rng.sample(range(h.num_edges), rng.randint(1, h.num_edges))
            cases.append((h, pool, rng.randrange(h.num_edges), rng.randint(0, min(k, n))))
        for h, pool, anchor, x in cases:
            fam = build_triple_family(h, pool, anchor, x)
            edges = [h.edge_vertices(i) for i in range(h.num_edges)]
            assert oracles.naive_triple_family(edges, pool, anchor, x) == (fam.triples, True)

    @pytest.mark.parametrize("seed", [0, 4002])
    def test_driver_families_are_maximal(self, itf2, monkeypatch, seed):
        # Each family the driver builds on itf2 is the restarting scan's, and
        # no pair of its unused members could still be admitted.
        built = []
        real = extraction.build_triple_family
        monkeypatch.setattr(
            extraction, "build_triple_family", lambda *a: built.append((a, real(*a))) or built[-1][1]
        )
        density_increment_run(itf2, ExtractionParams(seed=seed))
        assert built
        edges = [itf2.edge_vertices(i) for i in range(itf2.num_edges)]
        for (_, pool, anchor, x), fam in built:
            assert oracles.naive_triple_family(edges, pool, anchor, x) == (fam.triples, True)


class TestDensityIncrementRun:
    def test_fano_single_level(self, fano_h):
        trace = density_increment_run(fano_h, ExtractionParams(t=2, x=1, seed=0))
        assert trace.lambdas() == [1]
        assert trace.levels[0].pair.validated
        assert "no progress" in trace.stop_reason

    def test_iterated_fano_reaches_two_levels(self, itf2):
        trace = density_increment_run(itf2, ExtractionParams(t=4, x=4, seed=0))
        lams = trace.lambdas()
        assert len(lams) >= 2
        assert lams == sorted(set(lams))
        spectrum = set(intersection_spectrum(itf2).sizes)
        assert all(lam in spectrum for lam in lams)
        assert all(level.pair.validated for level in trace.levels)
        assert trace.levels[0].branch == "initial"
        assert trace.levels[1].branch in {"same-intersection", "spread-out"}

    def test_spread_case_certifies_identities(self):
        h = spread_case_instance()
        trace = density_increment_run(h, ExtractionParams(t=4, x=1, seed=0))
        assert trace.lambdas() == [1]
        assert trace.identity_checks, "spread certification should have fired"
        check = trace.identity_checks[0]
        assert check["union_identity_holds"]
        assert check["average_lambda_holds"]

    @pytest.mark.parametrize(
        "instance, t, x, seed, lambdas, certified",
        [
            ("itf2", 3, 2, 0, [1, 5], []),
            ("itf2", 3, 2, 1, [1, 5], []),
            ("spread", 4, 1, 0, [1], [1]),
        ],
        ids=["itf2-t3-seed-0", "itf2-t3-seed-1", "spread-case"],
    )
    def test_spread_notes_follow_certification(self, itf2, instance, t, x, seed, lambdas, certified):
        h = itf2 if instance == "itf2" else spread_case_instance()
        trace = density_increment_run(h, ExtractionParams(t=t, x=x, seed=seed))
        prefix, route = "spread case at lambda=", "; advancing via the popular anchor-subset superset route"
        spread = [note for note in trace.notes if note.startswith(prefix)]
        # One note per spread step, each naming its level's lambda.
        assert all(note.endswith(route) for note in spread)
        assert [int(note[len(prefix):].split(" ")[0]) for note in spread] == lambdas
        assert set(lambdas) <= set(trace.lambdas())
        # A note says "certified numerically" exactly when an identity check was recorded.
        said = [lam for lam, note in zip(lambdas, spread) if "certified numerically" in note]
        assert [check["level_lambda"] for check in trace.identity_checks] == said == certified
        assert sum("certified numerically" in note for note in trace.notes) == len(trace.identity_checks)
        assert all(" not certified (" in note for lam, note in zip(lambdas, spread) if lam not in certified)

    @pytest.mark.parametrize(
        "instance, t, x, seed, reason",
        [
            ("itf2", 3, 2, 0, "t=3 is not an even number of at least 4"),
            ("spread", 6, 1, 0, "the group's size 2 is below t=6"),
            ("itf2", 4, 2, 1, "no 4-subset of the group's A or B edges meets pairwise in at most 1"),
        ],
        ids=["odd-t", "small-group", "no-small-subset"],
    )
    def test_uncertified_spread_note_names_its_reason(self, itf2, instance, t, x, seed, reason):
        h = itf2 if instance == "itf2" else spread_case_instance()
        trace = density_increment_run(h, ExtractionParams(t=t, x=x, seed=seed))
        assert not trace.identity_checks
        assert (
            f"spread case at lambda=1 not certified ({reason}); "
            "advancing via the popular anchor-subset superset route"
        ) in trace.notes

    def test_two_colorable_input_yields_witness(self):
        # Disjoint petals through one center: 2-colorable, so the greedy
        # growth inside the concentrated branch must hit the center and
        # surface the implied proper coloring.
        star = Hypergraph(
            9, [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {0, 7, 8}]
        )
        trace = density_increment_run(star, ExtractionParams(t=2, x=2, seed=0))
        assert trace.witness_coloring is not None
        assert monochromatic_edge(star, trace.witness_coloring) is None
        assert "witness" in trace.stop_reason

    def test_witness_coloring_in_json(self):
        star = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
        payload = density_increment_run(star, ExtractionParams(t=2, x=1, seed=0)).to_json()
        assert len(payload["witness_coloring"]) == 4
        assert oracles.mono_edge_count(list(star.edges()), payload["witness_coloring"]) == 0

    def test_zero_budget_stops_before_the_first_level(self):
        # A fresh input's spectrum is counted before the first budget step,
        # so the clock has always moved past 0 ms by then.
        trace = density_increment_run(iterated_fano(2), ExtractionParams(budget_ms=0))
        assert (trace.levels, trace.stop_reason) == ([], "budget exhausted")

    def test_level_timings_split_by_phase(self, itf2):
        trace = density_increment_run(itf2, ExtractionParams(t=4, x=4, seed=0))
        rows = trace.to_json()["levels"]
        assert rows and all(
            set(row["timings"]) == {"elapsed_ms", "triple_family_ms", "growth_ms"}
            and min(row["timings"].values()) >= 0
            for row in rows
        )
        # The first level runs its triple family and growth before the next.
        assert rows[0]["timings"]["triple_family_ms"] > 0
        assert rows[0]["timings"]["growth_ms"] > 0

    @pytest.mark.parametrize(
        "edges", [[], [{0, 1, 2}], [{0, 1, 2}, {0, 3}]], ids=["no-edges", "one-edge", "non-uniform"]
    )
    def test_input_check_trace(self, edges):
        # The edge count is checked before uniformity, which needs an edge.
        trace = density_increment_run(Hypergraph(4, edges), ExtractionParams(t=2, x=1, seed=0))
        assert (trace.levels, trace.stop_reason) == ([], "input must be uniform with at least two edges")

    def test_trace_json_round_trip(self, fano_h):
        import json

        trace = density_increment_run(fano_h, ExtractionParams(t=2, x=1, seed=0))
        payload = trace.to_json()
        assert json.loads(json.dumps(payload)) == payload

    def test_deterministic(self, itf2):
        a = density_increment_run(itf2, ExtractionParams(t=4, x=4, seed=3))
        b = density_increment_run(itf2, ExtractionParams(t=4, x=4, seed=3))
        assert oracles.strip_timings(a.to_json()) == oracles.strip_timings(b.to_json())

    def test_paper_constants_mode_runs(self, fano_h):
        params = ExtractionParams.paper_scale(3, seed=0)
        assert params.t == 4 and params.x == 40 and params.d == Fraction(1, 24)
        trace = density_increment_run(fano_h, params)
        assert trace.notes  # documentation mode flagged

    @pytest.mark.parametrize("fixture, k", [("fano_h", 3), ("itf2", 9)], ids=["fano", "itf2"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_paper_constants_flag_scales_to_input(self, request, fixture, k, seed):
        # The flag alone is enough: the driver derives the constants from k.
        h = request.getfixturevalue(fixture)
        flagged = density_increment_run(h, ExtractionParams(paper_constants=True, seed=seed))
        scaled = density_increment_run(h, ExtractionParams.paper_scale(k, seed=seed))
        assert flagged.params == scaled.params
        assert oracles.strip_timings(flagged.to_json()) == oracles.strip_timings(scaled.to_json())

    @pytest.mark.parametrize(
        "build, params, lambdas, branches, extractors, stop",
        [
            (
                lambda: iterated_fano(2),
                ExtractionParams(t=3, x=2, seed=0),
                [1, 3, 5, 7],
                ["initial", "spread-out", "same-intersection", "spread-out"],
                ["drc"] * 4,
                "no progress: next pool has fewer than two edges",
            ),
            (
                lambda: compose(fano(), complete_subsets(5, 3)),
                ExtractionParams(t=3, x=2, seed=0),
                [1, 2, 6, 7],
                ["initial", "spread-out", "spread-out", "spread-out"],
                ["drc", "drc", "ramsey", "drc"],
                "no progress: next pool has fewer than two edges",
            ),
            (
                lambda: compose(fano(), complete_subsets(5, 3)),
                ExtractionParams(t=3, x=2, seed=1),
                [1, 2, 3, 7],
                ["initial", "spread-out", "spread-out", "same-intersection"],
                ["drc", "drc", "drc", "ramsey"],
                "no progress: extractors exhausted "
                "(pool emptied after 3 pulls before 3 shared a majority size)",
            ),
            (
                lambda: complete_subsets(11, 6),
                ExtractionParams(t=4, x=4, seed=0),
                [3, 5],
                ["initial", "same-intersection"],
                ["ramsey", "drc"],
                "no progress: next pool has fewer than two edges",
            ),
        ],
        ids=["itf2-t3", "fano-k53-seed0", "fano-k53-seed1", "k11-6-t4"],
    )
    def test_lambda_chain(self, build, params, lambdas, branches, extractors, stop):
        # Each level's lambda is an intersection size and the chain rises, so
        # its length is a lower bound on the spectrum size.
        h = build()
        trace = density_increment_run(h, params)
        assert trace.lambdas() == lambdas
        assert [lvl.branch for lvl in trace.levels] == branches
        assert [lvl.extractor for lvl in trace.levels] == extractors
        assert trace.stop_reason == stop
        assert set(lambdas) <= set(intersection_spectrum(h).sizes)


class TestDriverSteps:
    """Each branch step of the driver, run on its own from a first-level
    lambda-pair and triple family."""

    @staticmethod
    def first_level(h, t, x):
        pair = find_lambda_pair_drc(h, range(h.num_edges), 1, ExtractionParams(t=t, x=x, seed=0))
        return pair, build_triple_family(h, pair.y, min(pair.x), x)

    def test_same_intersection_step(self, itf2):
        pair, family = self.first_level(itf2, 4, 4)
        assert len(family.triples) < len(pair.y) / 4
        pool, counts = extraction._same_intersection_step(itf2, 9, pair, family)
        assert pool == list(range(7))
        assert counts == {7: 21}

    def test_spread_out_step(self):
        h = spread_case_instance()
        pair, family = self.first_level(h, 4, 1)
        assert len(family.triples) >= len(pair.y) / 4
        trace = extraction.IncrementTrace(ExtractionParams(t=4, x=1, seed=0))
        pool, counts = extraction._spread_out_step(h, 9, pair, family, 4, trace)
        # The core vertex lies only in the petals the family did not use.
        assert (pool, counts) == ([0], {})
        [check] = trace.identity_checks
        assert check["union_identity_holds"] and check["average_lambda_holds"]
        assert check["union_identity_lhs"] == check["union_identity_rhs"] == "6"

    def test_same_intersection_step_star_witness(self):
        star = Hypergraph(9, [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {0, 7, 8}])
        pair, family = self.first_level(star, 2, 2)
        assert not family.triples
        with pytest.raises(NoDisjointEdgeError) as info:
            extraction._same_intersection_step(star, 3, pair, family)
        assert info.value.witness_coloring == (0, 1, 1, 1, 1, 1, 1, 1, 1)
        assert monochromatic_edge(star, info.value.witness_coloring) is None


def clique_with_pendants(seed, q, core, sparse):
    """A clique on ``core`` vertices plus ``sparse`` vertices, each joined
    to every clique vertex with probability q. Few edges touch the sparse
    vertices, so they pull the common-neighbor floor down and make some
    t-subsets bad."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
    edges += [(c, s) for s in range(core, core + sparse) for c in range(core) if rng.random() < q]
    return oracles.graph_adjacency(core + sparse, edges)


def clique_minus_matching(m, seed):
    """K_m with a random matching removed: every vertex misses at most
    itself and its partner, so any t vertices keep m - 2t common neighbors."""
    order = list(range(m))
    random.Random(seed).shuffle(order)
    partner = {}
    for a, b in zip(order[::2], order[1::2]):
        partner[a], partner[b] = b, a
    return oracles.graph_adjacency(m, [(i, j) for i in range(m) for j in range(i + 1, m) if partner.get(i) != j])


class TestExactBoundsBeforeSampling:
    """The counting bounds that settle dependent random choice and the
    lambda-small check before enumeration are sound against it."""

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_common_neighbor_floor_is_sound(self, t):
        graphs = []
        for seed in range(4):
            graphs.append(gnp_random_graph(24, 0.9 + 0.02 * seed, seed=seed))
            graphs.append(clique_with_pendants(seed, 0.5, core=18, sparse=6))
            graphs.append(clique_minus_matching(22 + seed, seed))
        decided = 0
        for i, g in enumerate(graphs):
            m = len(g)
            neighbors = [frozenset(v for v in range(m) if g[u] >> v & 1) for u in range(m)]
            rng = random.Random(i)
            for _ in range(3):
                members = sorted(rng.sample(range(m), rng.randrange(t, min(m, 20) + 1)))
                floor = extraction._common_neighbor_floor(g, members, t)
                fewest = min(
                    len(frozenset.intersection(*(neighbors[v] for v in sub)))
                    for sub in combinations(members, t)
                )
                assert floor <= fewest
                if floor >= 1:
                    # The bound decides every demand n <= floor: no bad subset.
                    decided += 1
                    assert extraction._bad_subsets(g, members, t, floor) == []
        assert decided >= 12

    def test_floor_is_tight_without_matched_members(self):
        # Members that are pairwise unmatched miss exactly themselves and
        # their partners, so some t of them have exactly m - 2t common
        # neighbors: the floor decides n = m - 2t, and n + 1 leaves bad sets.
        g = clique_minus_matching(20, 3)
        t = 3
        members = []
        for v in range(20):
            if all(g[v] >> u & 1 for u in members):
                members.append(v)
        assert len(members) == 10
        floor = extraction._common_neighbor_floor(g, members, t)
        assert floor == 20 - 2 * t
        assert extraction._bad_subsets(g, members, t, floor) == []
        assert len(extraction._bad_subsets(g, members, t, floor + 1)) > 0

    def test_pair_share_bounds_small_fraction(self):
        shares = set()
        for seed in range(12):
            h = random_uniform(10, 4, 24, seed=seed)
            edges = [frozenset(e) for e in h.edges()]
            rng = random.Random(seed)
            pools = [list(range(24))] + [
                sorted(rng.sample(range(24), rng.randrange(4, 15))) for _ in range(3)
            ]
            for pool in pools:
                counts = extraction._pool_pair_counts(h, pool)
                assert counts == oracles.naive_spectrum([edges[i] for i in pool])
                # A t-subset is lam-small iff its largest pair size is below lam.
                largest = {
                    t: [
                        max(len(edges[a] & edges[b]) for a, b in combinations(sub, 2))
                        for sub in combinations(pool, t)
                    ]
                    for t in (2, 3, 4)
                }
                for lam in range(1, 5):
                    p = extraction._small_pair_share(counts, lam)
                    for t, sizes in largest.items():
                        fraction = Fraction(sum(size < lam for size in sizes), len(sizes))
                        assert fraction <= p
                        if t == 2:
                            assert fraction == p
                        if p <= Fraction(1, 2):
                            assert fraction <= Fraction(1, 2)
                        if p == 0:
                            assert fraction == 0
                    shares.add("zero" if p == 0 else "half" if p <= Fraction(1, 2) else "above")
        assert shares == {"zero", "half", "above"}

    def test_small_fraction_exact_or_undecided(self, monkeypatch):
        # Counted exactly up to ENUM_CAP t-subsets, undecided one beyond.
        h = random_uniform(10, 4, 24, seed=0)
        edges = [frozenset(e) for e in h.edges()]
        members = list(range(3, 15))
        mixed = 0
        for t in (2, 3, 4):
            subs = list(combinations(members, t))
            for lam in (1, 2, 3):
                small = sum(
                    all(len(edges[a] & edges[b]) < lam for a, b in combinations(sub, 2)) for sub in subs
                )
                mixed += 0 < small < len(subs)
                monkeypatch.setattr(extraction, "ENUM_CAP", len(subs))
                assert extraction._lambda_small_fraction(h, members, lam, t) == Fraction(small, len(subs))
                monkeypatch.setattr(extraction, "ENUM_CAP", len(subs) - 1)
                assert extraction._lambda_small_fraction(h, members, lam, t) is None
        assert mixed  # some fractions lie strictly between 0 and 1

    def test_share_above_half_still_checks(self, monkeypatch):
        # Disjoint pairs only: the share is 1, so the fraction is counted and
        # the hypotheses fail; with every pair meeting, nothing is counted.
        calls = []
        real = extraction._lambda_small_fraction
        monkeypatch.setattr(
            extraction, "_lambda_small_fraction", lambda *a: calls.append(a) or real(*a)
        )
        h = Hypergraph(8, [{0, 1}, {2, 3}, {4, 5}, {6, 7}])
        with pytest.raises(HypothesesViolatedError):
            find_lambda_pair_drc(h, range(4), 1, ExtractionParams(t=2, x=1, seed=0))
        assert len(calls) == 1
        find_lambda_pair_drc(fano(), range(7), 1, ExtractionParams(t=2, x=1, seed=0))
        assert len(calls) == 1

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_itf2_extraction_makes_no_sampled_draws(self, itf2, t):
        # Every counting question on itf2 is decided: no level is undecided.
        for seed in range(3):
            trace = density_increment_run(itf2, ExtractionParams(t=t, x=4, seed=seed))
            assert trace.lambdas() == [1, 7]
            assert trace.levels[0].pair.notes[0].startswith("drc accepted")
            assert not any("undecided" in note for lvl in trace.levels for note in lvl.pair.notes)
