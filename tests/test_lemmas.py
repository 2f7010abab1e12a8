import random
from fractions import Fraction

import pytest

from hyperspec import (
    Hypergraph,
    check_average_lambda,
    check_pair_inequality,
    complete_subsets,
    compose,
    fano,
    greedy_increase,
    intersection_spectrum,
    is_lambda_small,
    validate_lambda_pair,
)
from hyperspec import lemmas
from hyperspec.errors import (
    InvalidParameterError,
    MismatchedEdgeCountError,
    MismatchedVertexCountError,
    NoDisjointEdgeError,
    NonUniformError,
    OutOfRangeVertexError,
    OverlappingSetsError,
    SizeMismatchError,
    StepOutOfRangeError,
    TooFewEdgesError,
    WitnessViolationError,
)
from hyperspec.lemmas import (
    InequalityReport,
    planted_average_instance,
    random_pair_instance,
    run_lemma_suite,
)
from hyperspec.rng import distinct_subsets, substream

import oracles


class TestPairInequality:
    def test_identical_single_edge_tight(self):
        a = Hypergraph(4, [{0, 1, 2, 3}])
        rep = check_pair_inequality(a, a)
        assert rep.holds and rep.slack == 0
        assert rep.lhs == 0 and rep.rhs == 0

    def test_fano_tight_case(self, fano_h):
        rep = check_pair_inequality(fano_h, fano_h)
        # within sums: 21 + 21; cross: 42 ones + 7 self pairs of size 3
        assert rep.lhs == 42
        assert rep.rhs == (42 + 21) - Fraction(7 * 6, 2) == 42
        assert rep.holds and rep.slack == 0

    def test_thousand_random_instances(self):
        rng = substream(0xE1_1975, "unit/pair")
        for _ in range(300):
            fam_a, fam_b = random_pair_instance(rng)
            rep = check_pair_inequality(fam_a, fam_b)
            assert rep.holds
            assert rep.slack == rep.lhs - rep.rhs

    def test_mismatched_vertices(self):
        a = Hypergraph(4, [{0, 1}])
        b = Hypergraph(5, [{0, 1}])
        with pytest.raises(MismatchedVertexCountError):
            check_pair_inequality(a, b)

    def test_mismatched_edges(self):
        a = Hypergraph(4, [{0, 1}])
        b = Hypergraph(4, [{0, 1}, {2, 3}])
        with pytest.raises(MismatchedEdgeCountError):
            check_pair_inequality(a, b)


class TestAverageLambda:
    def test_fano_with_empty_witness(self, fano_h):
        rep = check_average_lambda(fano_h, [0, 1, 2], [3, 4, 5], [])
        # (1+1)/2 >= 1 + 0 - 3/2
        assert rep.holds
        assert rep.lhs == 1 and rep.rhs == Fraction(-1, 2)

    def test_planted_instance_by_hand(self):
        # k = 6, S edges share the triple {0,1,2}, T edges avoid it.
        s_edges = [
            {0, 1, 2, 3, 4, 5},
            {0, 1, 2, 6, 7, 8},
            {0, 1, 2, 3, 6, 9},
        ]
        t_edges = [
            {3, 4, 5, 6, 7, 8},
            {3, 4, 6, 7, 9, 10},
            {4, 5, 7, 8, 9, 10},
        ]
        h = Hypergraph(11, s_edges + t_edges)
        rep = check_average_lambda(h, [0, 1, 2], [3, 4, 5], [0, 1, 2])
        assert rep.holds

    def test_five_hundred_planted(self):
        rng = substream(0xE1_1975, "unit/avg")
        for i in range(200):
            h, s, t, w = planted_average_instance(rng, x=i % 6)
            rep = check_average_lambda(h, s, t, w)
            assert rep.holds

    def test_witness_violations(self, fano_h):
        with pytest.raises(WitnessViolationError):
            # vertex 0 is not on every line of S
            check_average_lambda(fano_h, [0, 1], [2, 3], [0, 1])
        s_edges = [{0, 1, 2}, {0, 1, 3}]
        t_edges = [{0, 4, 5}, {1, 4, 6}]
        h = Hypergraph(7, s_edges + t_edges)
        with pytest.raises(WitnessViolationError):
            # vertex 0 appears in a T edge
            check_average_lambda(h, [0, 1], [2, 3], [0])

    @pytest.mark.parametrize("w", [[-1], [99], [0, 7]])
    def test_witness_vertex_out_of_range(self, fano_h, w):
        with pytest.raises(OutOfRangeVertexError, match=rf"^vertex {w[-1]} out of range, valid range is \[0, 7\)$"):
            check_average_lambda(fano_h, [0, 1], [2, 3], w)

    def test_overlap_and_index_errors(self, fano_h):
        with pytest.raises(OverlappingSetsError, match=r"^sets share edges \[1\]$"):
            check_average_lambda(fano_h, [0, 1], [1, 2], [])
        with pytest.raises(IndexError, match="^edge index -1 out of range"):
            check_average_lambda(fano_h, [-1, 0], [1, 2], [])
        # The indices are checked before the witness reads any edge.
        for w in ([0], [1]):
            with pytest.raises(IndexError, match="^edge index -1 out of range"):
                check_average_lambda(fano_h, [-1, 0], [1, 2], w)
        with pytest.raises(IndexError):
            check_average_lambda(fano_h, [0, 1], [2, 9], [])

    def test_size_mismatch(self, fano_h):
        with pytest.raises(SizeMismatchError):
            check_average_lambda(fano_h, [0, 1, 2], [3, 4], [])

    def test_too_few(self, fano_h):
        with pytest.raises(TooFewEdgesError):
            check_average_lambda(fano_h, [0], [1], [])


class TestGreedyIncrease:
    def test_zero_steps_trivial(self, fano_h):
        res = greedy_increase(fano_h, {2, 4}, 0)
        assert res.final_set == {2, 4}
        assert res.fraction == 1
        assert res.steps == ()

    def test_fano_one_step(self, fano_h):
        res = greedy_increase(fano_h, (), 1)
        assert len(res.final_set) == 1
        assert res.fraction == Fraction(3, 7)

    def test_fano_guarantee_chain(self, fano_h):
        for i in range(4):
            res = greedy_increase(fano_h, (), i)
            assert res.fraction >= Fraction(1, 3**i)
            # per-step retention: at least a 1/k proportion, rounded up
            for step in res.steps:
                assert step.count_after >= -(-step.count_before // 3)

    def test_iterated_fano_exhaustive_count(self, itf2):
        from hyperspec import edges_containing

        res = greedy_increase(itf2, (), 3)
        assert res.fraction >= Fraction(1, 9**3)
        containing = edges_containing(itf2, res.final_set)
        assert res.fraction == Fraction(len(containing), 2401)

    def test_no_disjoint_edge_witness(self):
        star = Hypergraph(4, [{0, 1}, {0, 2}, {0, 3}])
        with pytest.raises(NoDisjointEdgeError) as err:
            greedy_increase(star, {0}, 1)
        witness = err.value.witness_coloring
        assert oracles.mono_edge_count(list(star.edges()), witness) == 0

    @staticmethod
    def check_against_rule(h, start, steps):
        edges = list(h.edges())
        trace, final, last = oracles.naive_greedy_increase(h.num_vertices, edges, start, steps)
        if trace is None:
            with pytest.raises(NoDisjointEdgeError) as err:
                greedy_increase(h, start, steps)
            assert (err.value.subset, err.value.witness_coloring) == (final, last)
            return False
        res = greedy_increase(h, start, steps)
        assert [(s.added_vertex, s.disjoint_edge, s.count_before, s.count_after) for s in res.steps] == trace
        assert (res.final_set, res.fraction) == (final, last)
        return True

    def test_agrees_with_the_set_scan_rule(self):
        # Random subfamilies of two intersecting families, grown from
        # non-empty start sets; some runs end with every edge met.
        outer = compose(fano(), complete_subsets(5, 3))
        rng = random.Random(21)
        ended = 0
        for h in (complete_subsets(5, 3), outer):
            for _ in range(40):
                masks = rng.sample(h.edge_masks, rng.randint(2, min(h.num_edges, 300)))
                sub = Hypergraph.from_masks(h.num_vertices, masks)
                k = masks[0].bit_count()
                start = rng.sample(sub.edge_vertices(rng.randrange(len(masks))), rng.randint(1, k - 1))
                ended += not self.check_against_rule(sub, start, rng.randint(0, k - len(start)))
        assert 0 < ended < 80

    def test_agrees_with_the_set_scan_rule_on_a_star(self):
        # Every edge of the star holds vertex 0, so growth stops once the set holds it.
        star = Hypergraph(5, [e for e in complete_subsets(5, 3).edges() if 0 in e])
        assert not self.check_against_rule(star, [0], 1)
        assert self.check_against_rule(star, [1], 1)
        assert not self.check_against_rule(star, [1], 2)

    @pytest.mark.parametrize("start", [{-1}, {7}, {0, 9}])
    def test_start_vertex_out_of_range(self, fano_h, start):
        with pytest.raises(OutOfRangeVertexError, match=r"valid range is \[0, 7\)$"):
            greedy_increase(fano_h, start, 1)

    def test_step_out_of_range(self, fano_h):
        with pytest.raises(StepOutOfRangeError):
            greedy_increase(fano_h, (), 4)
        with pytest.raises(StepOutOfRangeError):
            greedy_increase(fano_h, (), -1)


class TestLambdaSmall:
    def test_fano_all_pairs_are_one(self, fano_h):
        assert is_lambda_small(fano_h, range(7), 2)
        assert not is_lambda_small(fano_h, range(7), 1)

    def test_disjoint_edges(self):
        h = Hypergraph(4, [{0, 1}, {2, 3}])
        assert is_lambda_small(h, [0, 1], 1)

    def test_no_small_pair_at_minimum(self, fano_h):
        lam1 = intersection_spectrum(fano_h).sizes[0]
        assert not is_lambda_small(fano_h, [0, 1], lam1)

    def test_needs_two(self, fano_h):
        with pytest.raises(TooFewEdgesError):
            is_lambda_small(fano_h, [3], 1)

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_edge_index_out_of_range(self, fano_h, bad):
        with pytest.raises(IndexError, match=rf"^edge index {bad} out of range for Hypergraph\(n=7, m=7\)$"):
            is_lambda_small(fano_h, [bad, 0], 2)


class TestValidateLambdaPair:
    def test_fano_valid(self, fano_h):
        res = validate_lambda_pair(fano_h, [0, 1], [2, 3, 4, 5, 6], 1, 2)
        assert res.valid
        assert res.within_max == 1 and res.cross_min == 1
        assert res.y_size == 5

    def test_fano_wrong_threshold(self, fano_h):
        res = validate_lambda_pair(fano_h, [0, 1], [2, 3, 4, 5, 6], 2, 2)
        assert not res.valid
        assert any("cross" in v for v in res.violations)

    def test_overlap_reported(self, fano_h):
        res = validate_lambda_pair(fano_h, [0, 1], [1, 2], 1, 2)
        assert not res.valid

    def test_wrong_size_reported(self, fano_h):
        res = validate_lambda_pair(fano_h, [0, 1, 2], [3], 1, 2)
        assert not res.valid

    @pytest.mark.parametrize("bad", [-1, 7])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_edge_index_out_of_range(self, fano_h, side, bad):
        x, y = ([bad, 0], [1, 2]) if side == "x" else ([0, 1], [2, bad])
        with pytest.raises(IndexError, match=rf"^edge index {bad} out of range for Hypergraph\(n=7, m=7\)$"):
            validate_lambda_pair(fano_h, x, y, 1, 2)


class TestSuiteRunner:
    def test_shape_and_determinism(self):
        a = run_lemma_suite(seed=12, instances=25)
        b = run_lemma_suite(seed=12, instances=25)
        assert a == b
        assert a["pair_inequality"]["fail"] == 0
        assert a["average_lambda"]["fail"] == 0
        assert a["greedy_increase"]["fail"] == 0

    @pytest.mark.parametrize(
        "seed, instances, pair_worst, average_worst",
        [
            (1, 2000, "0", "5/36"),
            (5, 30, "0", "11/30"),
            (12, 25, "1", "83/100"),
            (4002, 2000, "0", "11/50"),
            (4002, 1, "59", "3"),
            (1, 0, "None", "None"),  # the CLI refuses 0 instances; the library reports no worst slack
            # Around the 64-instance chunk edge: the pair suite's least slack
            # falls at instance 63 (seed 112), the last of a chunk, and at
            # instance 64 (seed 440), the first of the next.
            (112, 63, "1/2", "13/36"),
            (112, 64, "0", "13/36"),
            (112, 65, "0", "13/36"),
            (440, 63, "1/2", "67/180"),
            (440, 64, "1/2", "67/180"),
            (440, 65, "0", "67/180"),
        ],
    )
    def test_worst_slacks_pinned(self, seed, instances, pair_worst, average_worst):
        res = run_lemma_suite(seed, instances)
        assert res["pair_inequality"] == {"pass": instances, "fail": 0, "worst_slack": pair_worst}
        assert res["average_lambda"] == {"pass": instances, "fail": 0, "worst_slack": average_worst}
        assert res["greedy_increase"] == {"pass": 4, "fail": 0}

    def test_negative_instance_count_refused(self):
        with pytest.raises(InvalidParameterError, match="^instances must be non-negative, got -5$"):
            run_lemma_suite(0, -5)


class TestBatchedSuite:
    """The suite's numpy chunks against the public checkers."""

    SUITES = {
        "pair": ("suite/pair-inequality", check_pair_inequality, "_pair_slacks", lambda rng, i: random_pair_instance(rng)),
        "average": (
            "suite/average-lambda",
            check_average_lambda,
            "_average_slacks",
            lambda rng, i: planted_average_instance(rng, x=i % 6),
        ),
    }

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("seed", range(5))
    def test_every_instance_matches_the_checker(self, suite, seed):
        stream, checker, batch, draw = self.SUITES[suite]
        rng = substream(seed, stream)
        for c0 in range(0, 500, lemmas.SUITE_CHUNK):
            chunk = [draw(rng, i) for i in range(c0, min(500, c0 + lemmas.SUITE_CHUNK))]
            num, den = getattr(lemmas, batch)(chunk)
            assert len(num) == len(den) == len(chunk)
            for inst, p, q in zip(chunk, num.tolist(), den.tolist()):
                rep = checker(*inst)
                assert q > 0 and (Fraction(p, q), p >= 0) == (rep.slack, rep.holds)

    def test_instances_of_several_words(self):
        rng = substream(5, "unit/wide")
        pairs, planted = [], []
        for n in (60, 64, 65, 130, 200):
            for k in (2, 9):
                ell = rng.randint(1, 12)
                pairs.append(tuple(Hypergraph.from_masks(n, distinct_subsets(rng, 0, n, k, ell)) for _ in "ab"))
                h, s, t, w = planted_average_instance(substream(n, "wide"), x=k % 6)
                shift = n - h.num_vertices  # the same instance, moved to the top of n vertices
                planted.append((Hypergraph.from_masks(n, [m << shift for m in h.edge_masks]), s, t, [v + shift for v in w]))
        for batch, checker, chunk in ((lemmas._pair_slacks, check_pair_inequality, pairs), (lemmas._average_slacks, check_average_lambda, planted)):
            num, den = batch(chunk)
            assert [(Fraction(p, q), p >= 0) for p, q in zip(num.tolist(), den.tolist())] == [
                (rep.slack, rep.holds) for rep in (checker(*inst) for inst in chunk)
            ]

    def test_degree_route_disagreement_raises(self, monkeypatch):
        unpack = lemmas._vertex_degrees

        def one_extra_incidence(rows):
            deg = unpack(rows)
            deg[:, 0] += 1
            return deg

        monkeypatch.setattr(lemmas, "_vertex_degrees", one_extra_incidence)
        with pytest.raises(AssertionError, match="degree-count"):
            run_lemma_suite(3, 10)

    @pytest.mark.parametrize("name", ["check_pair_inequality", "check_average_lambda"])
    def test_each_chunk_spot_checks_the_public_checker(self, monkeypatch, name):
        checker = getattr(lemmas, name)
        calls = []

        def off_by_one(*inst):
            rep = checker(*inst)
            calls.append(rep)
            return rep if len(calls) < 3 else InequalityReport(rep.lhs, rep.rhs, rep.holds, rep.slack + 1)

        monkeypatch.setattr(lemmas, name, off_by_one)
        with pytest.raises(AssertionError, match=f" and its batch disagree on instance {2 * lemmas.SUITE_CHUNK}$"):
            run_lemma_suite(0, 3 * lemmas.SUITE_CHUNK)
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "bad, pos, size, error",
        [
            pytest.param("non-uniform", 0, 6, NonUniformError, id="uniform-0"),
            pytest.param("non-uniform", 3, 6, NonUniformError, id="uniform-3"),
            pytest.param("vertex-counts", 5, 6, MismatchedVertexCountError, id="vertices-5"),
            pytest.param("edge-counts", 5, 6, MismatchedEdgeCountError, id="edges-5"),
            # The last slot (63) of a full 64-instance chunk.
            pytest.param("edge-counts", 63, 64, MismatchedEdgeCountError, id="edges-63"),
            pytest.param("non-uniform", 63, 64, NonUniformError, id="uniform-63"),
        ],
    )
    def test_first_invalid_instance_raises_the_checker_error(self, fano_h, bad, pos, size, error):
        instance = {
            "non-uniform": (Hypergraph(7, [{0, 1}, {2, 3, 4}]),) * 2,
            "vertex-counts": (Hypergraph(7, [{0, 1, 2}]), Hypergraph(8, [{0, 1, 2}])),
            "edge-counts": (fano_h, Hypergraph(7, [{0, 1, 2}])),
        }[bad]
        rng = substream(0, "suite/pair-inequality")
        good = [random_pair_instance(rng) for _ in range(size - 1)]
        chunk = good[:pos] + [instance] + good[pos:]
        with pytest.raises(error) as caught:
            lemmas._pair_slacks(chunk)
        with pytest.raises(error) as direct:
            check_pair_inequality(*instance)
        assert str(caught.value) == str(direct.value)

    @pytest.mark.parametrize(
        "s, t, w, error",
        [
            ([0, 1], [2, 3], [0, 1], WitnessViolationError),  # vertex 0 is not on every line of S
            ([0, 1], [2, 3], [-1], OutOfRangeVertexError),
            ([0, 1], [2, 3], [99], OutOfRangeVertexError),
            ([0, 1], [1, 2], [], OverlappingSetsError),
            ([-1, 0], [1, 2], [0], IndexError),
            ([0, 1], [2, 9], [], IndexError),
            ([0, 1, 2], [3, 4], [], SizeMismatchError),
            ([0], [1], [], TooFewEdgesError),
        ],
    )
    def test_average_batch_raises_the_checker_error(self, fano_h, s, t, w, error):
        rng = substream(0, "suite/average-lambda")
        good = [planted_average_instance(rng, x=i % 6) for i in range(6)]
        with pytest.raises(error) as caught:
            lemmas._average_slacks(good + [(fano_h, s, t, w)] + good)
        with pytest.raises(error) as direct:
            check_average_lambda(fano_h, s, t, w)
        assert str(caught.value) == str(direct.value)

    def test_average_batch_refuses_a_non_uniform_host(self):
        h = Hypergraph(6, [{0, 1}, {0, 2}, {3, 4, 5}, {1, 3}])
        with pytest.raises(NonUniformError):
            lemmas._average_slacks([(h, [0, 1], [2, 3], [])])

    def test_witness_in_a_t_edge_is_refused(self):
        h = Hypergraph(7, [{0, 1, 2}, {0, 1, 3}, {0, 4, 5}, {1, 4, 6}])
        with pytest.raises(WitnessViolationError, match="T touches"):
            lemmas._average_slacks([(h, [0, 1], [2, 3], [0])])


class TestGeneratorsMatchOracles:
    """The generators give the edges and generator state of the
    one-subset-at-a-time loops in ``oracles``."""

    @pytest.mark.parametrize("seed", range(5))
    def test_pair_instances(self, seed):
        rng = substream(seed, "suite/pair-inequality")
        naive = substream(seed, "suite/pair-inequality")
        for _ in range(2000):
            fams = random_pair_instance(rng)
            for fam, (n, edges) in zip(fams, oracles.naive_random_pair_instance(naive)):
                assert fam.num_vertices == n
                assert list(fam.edges()) == [frozenset(e) for e in edges]
            assert rng.getstate() == naive.getstate()

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_instances(self, seed):
        rng = substream(seed, "suite/average-lambda")
        naive = substream(seed, "suite/average-lambda")
        for i in range(2000):
            h, s, t, w = planted_average_instance(rng, x=i % 6)
            (n, edges), s0, t0, w0 = oracles.naive_planted_average_instance(naive, i % 6)
            assert h.num_vertices == n
            assert list(h.edges()) == [frozenset(e) for e in edges]
            assert (s, t, w) == (s0, t0, w0)
            assert rng.getstate() == naive.getstate()
