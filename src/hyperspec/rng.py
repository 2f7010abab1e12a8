"""Seed handling.

Every randomized routine takes one integer seed and derives a private
stream from it with :func:`substream`, so independent operations inside a
single run never share generator state and whole runs replay bit-exactly.

:func:`distinct_subsets` collects distinct sorted k-subsets by one rule at
every population size: it redraws ``getrandbits(n.bit_length())`` until k
distinct values below n are collected, sorts them, and keeps the subset if
it is new. It makes no other draw.
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
    forbidden: Iterable[tuple[int, ...]] = (),
) -> list[tuple[int, ...]]:
    """``count`` distinct ascending k-tuples from ``range(lo, lo + n)``,
    none in ``forbidden``, drawn by the rule in the module docstring.

    The caller makes sure ``count`` such tuples exist.
    """
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    seen = set(forbidden)
    out: list[tuple[int, ...]] = []
    while len(out) < count:
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
