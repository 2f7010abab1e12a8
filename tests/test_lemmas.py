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
    new_hypergraph,
    validate_lambda_pair,
)
from hyperspec.errors import (
    MismatchedEdgeCountError,
    MismatchedVertexCountError,
    NoDisjointEdgeError,
    OutOfRangeVertexError,
    OverlappingSetsError,
    SizeMismatchError,
    StepOutOfRangeError,
    TooFewEdgesError,
    WitnessViolationError,
)
from hyperspec.lemmas import (
    planted_average_instance,
    random_pair_instance,
    run_lemma_suite,
)
from hyperspec.rng import substream

import oracles


class TestPairInequality:
    def test_identical_single_edge_tight(self):
        a = new_hypergraph(4, [{0, 1, 2, 3}])
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
        a = new_hypergraph(4, [{0, 1}])
        b = new_hypergraph(5, [{0, 1}])
        with pytest.raises(MismatchedVertexCountError):
            check_pair_inequality(a, b)

    def test_mismatched_edges(self):
        a = new_hypergraph(4, [{0, 1}])
        b = new_hypergraph(4, [{0, 1}, {2, 3}])
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
        h = new_hypergraph(11, s_edges + t_edges)
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
        h = new_hypergraph(7, s_edges + t_edges)
        with pytest.raises(WitnessViolationError):
            # vertex 0 appears in a T edge
            check_average_lambda(h, [0, 1], [2, 3], [0])

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
        star = new_hypergraph(4, [{0, 1}, {0, 2}, {0, 3}])
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
        h = new_hypergraph(4, [{0, 1}, {2, 3}])
        assert is_lambda_small(h, [0, 1], 1)

    def test_no_small_pair_at_minimum(self, fano_h):
        lam1 = intersection_spectrum(fano_h).sizes[0]
        assert not is_lambda_small(fano_h, [0, 1], lam1)

    def test_needs_two(self, fano_h):
        with pytest.raises(TooFewEdgesError):
            is_lambda_small(fano_h, [3], 1)


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
        [(1, 2000, "0", "5/36"), (5, 30, "0", "11/30"), (12, 25, "1", "83/100")],
    )
    def test_worst_slacks_pinned(self, seed, instances, pair_worst, average_worst):
        res = run_lemma_suite(seed, instances)
        assert res["pair_inequality"] == {"pass": instances, "fail": 0, "worst_slack": pair_worst}
        assert res["average_lambda"] == {"pass": instances, "fail": 0, "worst_slack": average_worst}
        assert res["greedy_increase"] == {"pass": 4, "fail": 0}


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
