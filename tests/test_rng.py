"""Differential tests of the distinct-subset helper against
``random.sample``.

These call ``random.Random.sample`` itself, so they tie
``distinct_subsets`` to the interpreter's algorithm: a change to how
CPython draws samples fails here, on the interpreter that made it.
"""

import random
from math import comb

import pytest

from hyperspec.rng import distinct_subsets, substream


def sample_loop(rng, lo, n, k, count, forbidden=()):
    seen, out = set(forbidden), []
    while len(out) < count:
        edge = tuple(sorted(rng.sample(range(lo, lo + n), k)))
        if edge not in seen:
            seen.add(edge)
            out.append(edge)
    return out


# Sizes on both sides of the set-size switch: 21 for k <= 5, 85 for
# 6 <= k <= 21 and 277 for k = 22.
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


# Both sides of random.sample's set-size switch (21 for t <= 5, 85 for
# t = 6) and populations at bit-length edges.
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
