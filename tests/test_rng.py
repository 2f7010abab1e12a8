"""Tests of the distinct-subset helper against a reference loop that
spells out its rule one subset at a time, plus literal pins.

The helper returns bitmasks and the reference returns ascending tuples, so
every comparison is between the helper's masks and ``mask_of`` of the
reference's tuples.

The pins fail by name if CPython changes how it seeds from a string or
what ``getrandbits`` returns; the reference tests do not depend on either.
"""

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import oracles
from hyperspec.core import mask_of
from hyperspec.rng import distinct_subsets, substream


def random_sample(rng, lo, n, k):
    """One ascending k-subset of ``range(lo, lo + n)`` by the rule."""
    return oracles.naive_random_subset(rng, range(lo, lo + n), k)


def sample_loop(rng, lo, n, k, count, forbidden=()):
    """The masks of ``count`` new subsets by the rule, none in the masks ``forbidden``."""
    seen, out = set(forbidden), []
    while len(out) < count:
        edge = mask_of(random_sample(rng, lo, n, k))
        if edge not in seen:
            seen.add(edge)
            out.append(edge)
    return out


# Subset sizes from 0 to 22, the largest close to the population at small n.
# k = 0 draws nothing and yields the mask 0, the empty subset.
SUBSET_SIZES = (0, 1, 2, 3, 5, 6, 7, 10, 22)


@pytest.mark.parametrize("lo", (0, 7))
@pytest.mark.parametrize("seed", (0, 1))
def test_distinct_subsets_match_random_sample(seed, lo):
    expected, actual = random.Random(seed), random.Random(seed)
    for n in range(1, 121):
        for k in SUBSET_SIZES:
            if k > n:
                continue
            for count in (1, min(comb(n, k), 6)):
                want = sample_loop(expected, lo, n, k, count)
                assert k or want == [0]
                assert distinct_subsets(actual, lo, n, k, count) == want, (n, k, count)
                assert actual.getstate() == expected.getstate(), (n, k, count)
                # randint draws in between, as the lemma generators make them.
                assert actual.randint(1, n) == expected.randint(1, n)


@pytest.mark.parametrize("n, k", [(9, 3), (21, 2), (22, 2), (85, 6), (86, 6)])
def test_distinct_subsets_skip_forbidden(n, k):
    expected, actual = substream(3, "subsets"), substream(3, "subsets")
    forbidden = set(sample_loop(random.Random(9), 0, n, k, 20))
    want = sample_loop(expected, 0, n, k, 30, forbidden)
    got = distinct_subsets(actual, 0, n, k, 30, forbidden)
    assert got == want and not forbidden & set(got)
    assert actual.getstate() == expected.getstate()
    assert len(forbidden) == 20


# Small populations, and populations at bit-length edges (63, 64, 65).
POPULATIONS = (21, 22, 63, 64, 65, 85, 86, 2401, 70000)


@pytest.mark.parametrize("t", range(2, 7))
@pytest.mark.parametrize("n", POPULATIONS)
def test_rows_and_state_match_random_sample(n, t):
    for seed in (0, 1, 2):
        for count in (0, 1, 7, 200):
            expected, actual = random.Random(seed), random.Random(seed)
            rows = sample_loop(expected, 0, n, t, count)
            assert distinct_subsets(actual, 0, n, t, count) == rows, (seed, count)
            assert actual.getstate() == expected.getstate()
            assert actual.random() == expected.random()


def test_rows_follow_other_draws():
    expected, actual = random.Random(5), random.Random(5)
    for rng in (expected, actual):
        rng.randrange(1000)
        rng.random()
    want = sample_loop(expected, 0, 500, 3, 40)
    assert distinct_subsets(actual, 0, 500, 3, 40) == want
    assert actual.randrange(1000) == expected.randrange(1000)


def test_distinct_subsets_reject_oversized_sample():
    with pytest.raises(ValueError):
        distinct_subsets(random.Random(0), 0, 3, 4, 1)


def test_every_subset_equally_likely():
    # 20,000 single draws over the C(6, 3) = 20 subsets: every subset
    # appears, and Pearson's statistic is below the 0.999 quantile of
    # chi-square with 19 degrees of freedom (43.82).
    rng = substream(0, "uniformity")
    counts = Counter(distinct_subsets(rng, 0, 6, 3, 1)[0] for _ in range(20000))
    assert set(counts) == set(map(mask_of, combinations(range(6), 3)))
    chi2 = sum((c - 1000) ** 2 for c in counts.values()) / 1000
    assert chi2 < 43.82, chi2


def test_pinned_draws():
    # Literal values: a change to CPython's string seeding or getrandbits
    # fails here by name.
    assert substream(1, "pin").getrandbits(64) == 3839885859374723289
    # The subsets (3, 4, 7), (3, 4, 6), (1, 5, 6) and (3, 5, 8) as masks.
    assert distinct_subsets(substream(1, "pin"), 0, 10, 3, 4) == [0b10011000, 0b1011000, 0b1100010, 0b100101000]
