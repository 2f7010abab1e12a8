import time
from itertools import combinations
from math import comb

import pytest

from hyperspec import (
    Hypergraph,
    are_isomorphic,
    canonical_form,
    complete_subsets,
    fano,
    find_2_coloring,
    intersection_spectrum,
    is_intersecting,
    is_uniform,
    min_spectrum_search,
)
from hyperspec import search
from hyperspec.coloring import ColorStatus
from hyperspec.errors import InvalidParameterError
from hyperspec.search import invariant_signature

import oracles


class TestCanonicalForm:
    def test_relabel_invariance(self, fano_h):
        perm = [3, 0, 6, 2, 5, 1, 4]
        relabeled = Hypergraph(7, [{perm[v] for v in e} for e in fano_h.edges()])
        assert canonical_form(relabeled) == canonical_form(fano_h)
        assert are_isomorphic(relabeled, fano_h)

    def test_distinguishes(self):
        a = Hypergraph(4, [{0, 1}, {2, 3}])
        b = Hypergraph(4, [{0, 1}, {1, 2}])
        assert not are_isomorphic(a, b)

    def test_signature_prefilter(self, fano_h):
        tri = complete_subsets(3, 2)
        assert invariant_signature(tri) != invariant_signature(fano_h)

    def test_signature_of_relabelings_agree(self, fano_h):
        # Two relabelings give one signature; its pair multiset is the
        # ascending (size, count) items.
        perms = ([3, 0, 6, 2, 5, 1, 4], [6, 5, 4, 3, 2, 1, 0])
        a, b = (Hypergraph(7, [{p[v] for v in e} for e in fano_h.edges()]) for p in perms)
        assert invariant_signature(a) == invariant_signature(b) == invariant_signature(fano_h)
        assert invariant_signature(a)[3] == ((1, 21),)

    def test_vertex_cap(self):
        big = Hypergraph(12, [{0, 1}])
        with pytest.raises(ValueError):
            canonical_form(big)


class TestExhaustiveSearch:
    def test_triangle_ground_truth(self):
        rep = min_spectrum_search(2, 3)
        assert rep.best_spectrum_size == 1
        assert rep.exhaustive
        assert rep.m_tilde_estimate == 3
        assert set(rep.witness.edges()) == set(complete_subsets(3, 2).edges())

    def test_witness_reverifies(self):
        rep = min_spectrum_search(3, 7)
        w = rep.witness
        assert is_uniform(w) == 3
        assert is_intersecting(w)
        assert find_2_coloring(w).status is ColorStatus.NOT_COLORABLE
        assert intersection_spectrum(w).r == rep.best_spectrum_size == 1

    def test_five_vertices_against_brute_force(self):
        rep = min_spectrum_search(3, 5)
        assert rep.exhaustive
        # independent oracle: all 2^10 subfamilies of the 10 triples on [5]
        triples = list(combinations(range(5), 3))
        best = None
        for bits in range(1, 2**10):
            family = [triples[i] for i in range(10) if bits >> i & 1]
            if len(family) < 2:
                continue
            if not oracles.naive_is_intersecting(family):
                continue
            if oracles.exhaustive_two_coloring(5, family) is not None:
                continue
            sizes = len(set(oracles.naive_spectrum(family)))
            best = sizes if best is None else min(best, sizes)
        assert rep.best_spectrum_size == best == 2

    def test_budget_exhaustion(self):
        rep = min_spectrum_search(4, 9, budget_nodes=3)
        assert not rep.exhaustive
        assert rep.best_spectrum_size is None
        assert (rep.nodes, rep.budget_tripped) == (4, "nodes")

    def test_pinned_node_counts(self):
        rep = min_spectrum_search(3, 7)
        assert (rep.exhaustive, rep.nodes, rep.budget_tripped) == (True, 19, None)
        rep = min_spectrum_search(4, 8, budget_nodes=5000)
        assert (rep.exhaustive, rep.nodes, rep.budget_tripped) == (False, 5001, "nodes")

    @pytest.mark.parametrize(
        "k,n", [(k, n) for k in range(2, 6) for n in range(k, 10)] + [(3, 10), (3, 11), (3, 12), (4, 11), (5, 11)]
    )
    def test_matches_recursive_oracle(self, k, n):
        # The unbudgeted tree is small enough for the oracle only here.
        budgets = (None, 1, 3, 50, 700) if k <= 3 or n <= k + 1 else (1, 3, 50, 700)
        for budget in budgets:
            rep = min_spectrum_search(k, n, budget_nodes=budget)
            witness = (rep.witness.num_vertices, list(rep.witness.edges())) if rep.witness else None
            got = (rep.best_spectrum_size, witness, rep.nodes, rep.exhaustive, rep.budget_tripped)
            assert got == oracles.naive_min_spectrum_search(k, n, budget), budget

    @pytest.mark.parametrize("k,n", [(2, n) for n in range(2, 6)] + [(3, n) for n in range(3, 7)])
    def test_minimum_against_brute_force(self, k, n):
        rep = min_spectrum_search(k, n)
        assert rep.exhaustive
        assert rep.best_spectrum_size == oracles.brute_min_spectrum(k, n)

    def test_solver_call_counts(self, monkeypatch):
        # The search reuses the parent's coloring and calls the solver only
        # when the new edge is monochromatic under it (4,370 calls without).
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return find_2_coloring(*args, **kwargs)

        monkeypatch.setattr(search, "find_2_coloring", counting)
        min_spectrum_search(3, 7)
        assert len(calls) == 7
        calls.clear()
        min_spectrum_search(4, 8, budget_nodes=5000)
        assert len(calls) == 44

    def test_bad_args(self):
        with pytest.raises(ValueError):
            min_spectrum_search(1, 5)
        with pytest.raises(ValueError):
            min_spectrum_search(3, 2)


class TestBeyondTenVertices:
    """The exact search runs at every vertex count up to the edge-space cap."""

    def test_fano_proved_on_twelve_vertices(self):
        rep = min_spectrum_search(3, 12, budget_ms=100.0)
        assert (rep.exhaustive, rep.best_spectrum_size, rep.nodes, rep.budget_tripped) == (True, 1, 31, None)
        assert rep.method == "iterative-deepening"
        edges = list(rep.witness.edges())
        assert len(edges) == 7
        assert all(len(e) == 3 for e in edges)
        assert oracles.naive_is_intersecting(edges)
        assert oracles.exhaustive_two_coloring(rep.witness.num_vertices, edges) is None
        assert len(oracles.naive_spectrum(edges)) == 1

    def test_budget_ms_is_a_clock_limit(self):
        start = time.perf_counter()
        rep = min_spectrum_search(4, 12, budget_ms=50)
        assert time.perf_counter() - start < 5.0
        assert (rep.exhaustive, rep.budget_tripped) == (False, "ms")

    def test_edge_space_cap(self):
        assert comb(16, 8) > search.EDGE_SPACE_CAP >= comb(12, 4)
        with pytest.raises(InvalidParameterError):
            min_spectrum_search(8, 16)
