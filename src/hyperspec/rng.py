"""Seed handling.

Every randomized routine takes one integer seed and derives a private
stream from it with :func:`substream`, so independent operations inside a
single run never share generator state and whole runs replay bit-exactly.
:func:`distinct_subsets` replays ``random.sample`` inline for the loops that
collect distinct sorted k-subsets.

The replay relies on three internals of CPython's ``random.sample`` over a
``range``, unchanged from 3.10 through 3.13: it picks from a pool list when
the population is at most its set-size switch (:func:`_pool_limit`) and
else redraws until an index is new; each index comes from
``_randbelow_with_getrandbits``, which redraws ``getrandbits(m.bit_length())``
until the value is below m; and no other draw is made. ``tests/test_rng.py``
compares it with ``random.sample`` itself, and CI runs it on every
CPython of its matrix, so a change to any of the three fails there.
"""

from __future__ import annotations

import random
from math import ceil, log
from typing import Iterable

# Fixed default so unseeded CLI runs are still reproducible.
DEFAULT_SEED = 0xE1_1975


def substream(seed: int, name: str) -> random.Random:
    """Return a fresh ``random.Random`` keyed by (seed, stream name).

    String seeding in CPython hashes with SHA-512, which is stable across
    processes and platforms.
    """
    return random.Random(f"{seed:#x}/{name}")


def _pool_limit(k: int) -> int:
    """Largest population that ``random.sample`` draws ``k`` items from by
    its pool method; above it, it uses a set of the indices drawn."""
    return 21 + (4 ** ceil(log(3 * k, 4)) if k > 5 else 0)


def distinct_subsets(
    rng: random.Random,
    lo: int,
    n: int,
    k: int,
    count: int,
    forbidden: Iterable[tuple[int, ...]] = (),
) -> list[tuple[int, ...]]:
    """``count`` distinct ascending k-tuples from ``range(lo, lo + n)``,
    none in ``forbidden``, with the draws and final ``rng`` state of::

        while len(out) < count:
            edge = tuple(sorted(rng.sample(range(lo, lo + n), k)))
            if edge not in seen:  # seen starts as set(forbidden)
                seen.add(edge)
                out.append(edge)

    Each index is drawn inline with ``getrandbits`` as ``random.sample``
    draws it. The caller makes sure ``count`` such tuples exist.
    """
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    getrandbits = rng.getrandbits
    pool_method = n <= _pool_limit(k)
    base = list(range(lo, lo + n)) if pool_method else []
    sizes = [(m, m.bit_length()) for m in range(n, n - k, -1)]
    bits = n.bit_length()
    seen = set(forbidden)
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        if pool_method:
            # Pick pool[j] for j below the live size m, then move the last
            # live item into the vacancy.
            pool, picked = base[:], []
            for m, m_bits in sizes:
                j = getrandbits(m_bits)
                while j >= m:
                    j = getrandbits(m_bits)
                picked.append(pool[j])
                pool[j] = pool[m - 1]
        else:
            # Redraw until the index is below n and not yet taken.
            picked = set()
            while len(picked) < k:
                j = getrandbits(bits)
                if j < n:
                    picked.add(lo + j)
        edge = tuple(sorted(picked))
        if edge not in seen:
            seen.add(edge)
            out.append(edge)
    return out

