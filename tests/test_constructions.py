import pytest

from hyperspec import (
    Hypergraph,
    complete_subsets,
    compose,
    fano,
    find_2_coloring,
    intersection_spectrum,
    is_intersecting,
    is_uniform,
    iterated_fano,
    ramsey_clique_hypergraph,
    random_uniform,
)
from hyperspec.coloring import ColorStatus
from hyperspec.constructions import build_construction
from hyperspec.rng import DEFAULT_SEED
from hyperspec.errors import (
    InvalidParameterError,
    NonUniformError,
    SizeCapExceededError,
    TooManyEdgesRequestedError,
)

import oracles


class TestFano:
    def test_shape(self, fano_h):
        assert fano_h.num_vertices == 7
        assert fano_h.num_edges == 7
        assert is_uniform(fano_h) == 3

    def test_intersecting_and_spectrum(self, fano_h):
        assert is_intersecting(fano_h)
        sp = intersection_spectrum(fano_h)
        assert sp.sizes == (1,) and sp.multiplicities == (21,)

    def test_not_two_colorable_oracle(self, fano_h):
        edges = list(fano_h.edges())
        assert oracles.exhaustive_two_coloring(7, edges) is None


class TestCompose:
    def test_counts(self, fano_h):
        h = compose(fano_h, fano_h)
        assert h.num_vertices == 49
        assert h.num_edges == 7 * 7**3 == 2401
        assert is_uniform(h) == 9

    def test_identity_like(self, fano_h):
        unit = Hypergraph(1, [{0}])
        prod = compose(unit, fano_h)
        assert prod.num_vertices == fano_h.num_vertices
        assert set(prod.edge_masks) == set(fano_h.edge_masks)

    def test_non_uniform_rejected(self):
        mixed = Hypergraph(3, [{0, 1}, {0, 1, 2}])
        with pytest.raises(NonUniformError):
            compose(mixed, mixed)

    def test_preserves_uniformity_intersecting_uncolorability(self):
        # Small enough that the exact solver settles the composition.
        tri = complete_subsets(3, 2)
        prod = compose(tri, tri)
        assert prod.num_vertices == 9
        assert prod.num_edges == 3 * 3**2 == 27
        assert is_uniform(prod) == 4
        assert is_intersecting(prod)
        assert find_2_coloring(prod).status is ColorStatus.NOT_COLORABLE
        assert oracles.exhaustive_two_coloring(9, list(prod.edges())) is None


class TestIteratedFano:
    def test_base_case(self):
        h = iterated_fano(0)
        assert h.num_vertices == 1 and h.num_edges == 1
        assert is_uniform(h) == 1

    def test_level_one_is_fano(self, fano_h):
        assert iterated_fano(1) == fano_h

    def test_edge_count_formula(self):
        for m in (0, 1, 2):
            assert iterated_fano(m).num_edges == 7 ** ((3**m - 1) // 2)

    def test_level_two(self, itf2):
        assert itf2.num_vertices == 49
        assert itf2.num_edges == 2401
        assert is_uniform(itf2) == 9

    def test_level_two_spectrum_is_odd_range(self, itf2):
        assert intersection_spectrum(itf2).sizes == (1, 3, 5, 7)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceededError):
            iterated_fano(3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            iterated_fano(-1)


class TestCompleteSubsets:
    def test_triangle(self):
        h = complete_subsets(3, 2)
        assert h.num_edges == 3
        assert oracles.exhaustive_two_coloring(3, list(h.edges())) is None

    def test_ten_triples_not_colorable(self):
        h = complete_subsets(5, 3)
        assert h.num_edges == 10
        assert oracles.exhaustive_two_coloring(5, list(h.edges())) is None
        assert find_2_coloring(h).status is ColorStatus.NOT_COLORABLE

    def test_half_plus_one_is_intersecting(self):
        assert is_intersecting(complete_subsets(5, 3))
        assert not is_intersecting(complete_subsets(5, 2))

    def test_cap(self):
        with pytest.raises(SizeCapExceededError):
            complete_subsets(40, 20)


class TestRamseyClique:
    def test_shape_and_spectrum(self):
        h = ramsey_clique_hypergraph(6, 3)
        assert h.num_vertices == 15
        assert h.num_edges == 20
        assert is_uniform(h) == 3
        assert intersection_spectrum(h).sizes == (0, 1)

    def test_single_clique(self):
        h = ramsey_clique_hypergraph(3, 3)
        assert h.num_edges == 1

    def test_not_two_colorable_at_ramsey_number(self):
        # R(3,3) = 6: every 2-coloring of K6's edges has a mono triangle.
        h = ramsey_clique_hypergraph(6, 3)
        assert find_2_coloring(h).status is ColorStatus.NOT_COLORABLE

    def test_max_intersection_one(self):
        h = ramsey_clique_hypergraph(7, 3)
        assert max(intersection_spectrum(h).sizes) == 1


class TestRandomUniform:
    def test_forced_complete(self):
        h = random_uniform(5, 3, 10, seed=99)
        assert set(h.edge_masks) == set(complete_subsets(5, 3).edge_masks)

    def test_single_edge(self):
        h = random_uniform(8, 4, 1, seed=1)
        assert h.num_edges == 1 and is_uniform(h) == 4

    def test_deterministic(self):
        a = random_uniform(10, 4, 12, seed=5)
        b = random_uniform(10, 4, 12, seed=5)
        assert a == b
        c = random_uniform(10, 4, 12, seed=6)
        assert a != c

    def test_too_many(self):
        with pytest.raises(TooManyEdgesRequestedError):
            random_uniform(4, 2, 7, seed=0)

    def test_size_cap_checked_before_drawing(self):
        # C(60, 30) edges could never be drawn in time; the cap refuses first.
        with pytest.raises(SizeCapExceededError):
            random_uniform(60, 30, 10**15, seed=0, size_cap=10)
        assert random_uniform(10, 4, 12, seed=5, size_cap=12).num_edges == 12

    # Small and large populations for k = 3 and k = 6.
    @pytest.mark.parametrize("n, k, m", [(7, 3, 20), (21, 3, 60), (22, 3, 60), (3000, 3, 50), (85, 6, 40), (86, 6, 40)])
    @pytest.mark.parametrize("seed", (0, 7))
    def test_edges_match_sample_oracle(self, n, k, m, seed):
        h = random_uniform(n, k, m, seed=seed)
        assert list(h.edges()) == [frozenset(e) for e in oracles.naive_random_uniform(n, k, m, seed)]


class TestBuildConstruction:
    def test_dispatch(self, fano_h):
        assert build_construction("fano", {}) == fano_h
        h = build_construction("complete-subsets", {"n": 5, "k": 3})
        assert h.num_edges == 10
        h = build_construction("random-uniform", {"n": 6, "k": 3, "m": 4}, seed=3)
        assert h.num_edges == 4
        assert build_construction("compose", {}, inputs=(fano_h, fano_h)).num_edges == 2401

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_construction("unknown", {})

    @pytest.mark.parametrize(
        "family, params, inputs, message",
        [
            ("fano", {"m": 9}, 0, "reads no --param m"),
            ("complete-subsets", {"n": 5, "k": 3, "m": 2}, 0, "reads no --param m"),
            ("compose", {"m": 1}, 2, "reads no --param m"),
            ("fano", {}, 1, "reads no input files"),
            ("iterated-fano", {"m": 1}, 2, "reads no input files"),
            ("compose", {}, 1, "compose needs --left and --right"),
        ],
        ids=[
            "fano-param",
            "complete-subsets-param",
            "compose-param",
            "fano-input",
            "iterated-fano-inputs",
            "compose-one-input",
        ],
    )
    def test_refuses_unread_input(self, fano_h, family, params, inputs, message):
        with pytest.raises(InvalidParameterError, match=message):
            build_construction(family, params, seed=0, inputs=(fano_h,) * inputs)

    @pytest.mark.parametrize(
        "family, params, inputs",
        [
            ("fano", {}, 0),
            ("iterated-fano", {"m": 1}, 0),
            ("complete-subsets", {"n": 5, "k": 3}, 0),
            ("ramsey-clique", {"n": 5, "k": 3}, 0),
            ("compose", {}, 2),
        ],
        ids=["fano", "iterated-fano", "complete-subsets", "ramsey-clique", "compose"],
    )
    def test_refuses_unread_seed(self, fano_h, family, params, inputs):
        with pytest.raises(InvalidParameterError, match=f"family '{family}' reads no --seed"):
            build_construction(family, params, seed=0, inputs=(fano_h,) * inputs)

    def test_random_uniform_seed_defaults(self):
        params = {"n": 10, "k": 4, "m": 3}
        default = build_construction("random-uniform", params)
        assert default == random_uniform(10, 4, 3, seed=DEFAULT_SEED)
        assert default != build_construction("random-uniform", params, seed=7)
