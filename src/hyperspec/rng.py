"""Seed handling.

Every randomized routine takes one integer seed and derives a private
stream from it with :func:`substream`, so independent operations inside a
single run never share generator state and whole runs replay bit-exactly.

:func:`distinct_subsets` collects distinct k-subsets by one rule at every
population size: it redraws ``getrandbits(n.bit_length())`` until k
distinct values below n are collected, and keeps the subset if it is new.
It makes no other draw. Each subset is returned as a vertex bitmask (bit v
set iff v belongs to it), the form :class:`~hyperspec.core.Hypergraph`
stores.
"""

from __future__ import annotations

import random
from typing import Iterable

# Fixed default so unseeded CLI runs are still reproducible.
DEFAULT_SEED = 0xE1_1975


def substream(seed: int, name: str) -> random.Random:
    """Return a fresh ``random.Random`` keyed by (seed, stream name).

    String seeding in CPython hashes with SHA-512, which is stable across
    processes and platforms.
    """
    return random.Random(f"{seed:#x}/{name}")


def distinct_subsets(
    rng: random.Random,
    lo: int,
    n: int,
    k: int,
    count: int,
    forbidden: Iterable[int] = (),
) -> list[int]:
    """``count`` distinct bitmasks of k-subsets of ``range(lo, lo + n)``,
    none in ``forbidden`` (a collection of masks), drawn by the rule in the
    module docstring. k = 0 gives the mask 0.

    The caller makes sure ``count`` such subsets exist.
    """
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    seen = set(forbidden)
    out: list[int] = []
    while len(out) < count:
        m = picked = 0
        while picked < k:
            j = getrandbits(bits)
            if j < n and not m >> j & 1:
                m |= 1 << j
                picked += 1
        m <<= lo
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out
