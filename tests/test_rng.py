"""Differential tests of the batched sampler against ``random.sample``.

These call ``random.Random.sample`` itself, so they tie ``sample_rows`` to
the interpreter's algorithm: a change to how CPython draws samples fails
here, on the interpreter that made it.
"""

import random

import pytest

from hyperspec.rng import sample_rows, substream

# Both sides of random.sample's set-size switch (21 for t <= 5, 85 for
# t = 6) and populations at bit-length edges.
POPULATIONS = (21, 22, 63, 64, 65, 85, 86, 2401, 70000)


def per_draw(rng, n, t, count):
    return [rng.sample(range(n), t) for _ in range(count)]


def batched(rng, n, t, count, block):
    blocks = list(sample_rows(rng, n, t, count, block))
    assert all(0 < len(b) <= block for b in blocks)
    return [row.tolist() for b in blocks for row in b]


@pytest.mark.parametrize("t", range(2, 7))
@pytest.mark.parametrize("n", POPULATIONS)
def test_rows_and_state_match_random_sample(n, t):
    for seed in (0, 1, 2):
        for count, block in ((0, 1), (1, 1), (7, 1), (7, 3), (333, 50), (333, 4096)):
            expected, actual = random.Random(seed), random.Random(seed)
            rows = per_draw(expected, n, t, count)
            assert batched(actual, n, t, count, block) == rows, (seed, count, block)
            assert actual.getstate() == expected.getstate()
            assert actual.random() == expected.random()


def test_state_matches_after_each_block():
    expected, actual = substream(7, "rows"), substream(7, "rows")
    for block in sample_rows(actual, 2401, 4, 1000, 128):
        assert block.tolist() == per_draw(expected, 2401, 4, len(block))
        assert actual.getstate() == expected.getstate()


def test_rows_follow_other_draws():
    expected, actual = random.Random(5), random.Random(5)
    for rng in (expected, actual):
        rng.randrange(1000)
        rng.random()
    assert batched(actual, 500, 3, 40, 16) == per_draw(expected, 500, 3, 40)
    assert actual.randrange(1000) == expected.randrange(1000)


def test_sample_larger_than_population_rejected():
    with pytest.raises(ValueError):
        next(sample_rows(random.Random(0), 3, 4, 1, 1))
