"""Seed handling.

Every randomized routine takes one integer seed and derives a private
stream from it with :func:`substream`, so independent operations inside a
single run never share generator state and whole runs replay bit-exactly.
:func:`sample_rows` draws many ``random.sample`` rows at once with the same
results, so batched loops keep the draws of their per-draw versions, and
:func:`distinct_subsets` replays ``random.sample`` inline for the loops that
collect distinct sorted k-subsets.

Both replays rely on three internals of CPython's ``random.sample`` over a
``range``, unchanged from 3.10 through 3.13: it picks from a pool list when
the population is at most its set-size switch (:func:`_pool_limit`) and
else redraws until an index is new; each index comes from
``_randbelow_with_getrandbits``, which redraws ``getrandbits(m.bit_length())``
until the value is below m; and no other draw is made. ``tests/test_rng.py``
compares both with ``random.sample`` itself, and CI runs it on every
CPython of its matrix, so a change to any of the three fails there.
"""

from __future__ import annotations

import random
from math import ceil, log
from typing import Iterable, Iterator

import numpy as np

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


def sample_rows(
    rng: random.Random, n: int, t: int, count: int, block: int
) -> Iterator[np.ndarray]:
    """Yield int64 arrays of at most ``block`` rows of ``t`` indices that
    together equal ``[rng.sample(range(n), t) for _ in range(count)]``,
    leaving ``rng`` after each block where that loop would leave it.

    Above CPython's set-size switch, ``random.sample`` redraws
    ``getrandbits(n.bit_length())`` (one 32-bit Mersenne Twister output)
    until it is below n and new to the row. A block draws those outputs in
    one ``getrandbits(32 * w)`` and cuts the kept values into rows (a row
    with a repeat value by value), then rewinds and replays the outputs it
    used. At or below the switch ``random.sample`` picks from a pool; that
    runs per row.
    """
    if not 0 <= t <= n:
        raise ValueError("sample larger than population or is negative")
    bits = n.bit_length()
    per_row = t == 0 or bits > 32 or n <= _pool_limit(t)
    first, second = np.triu_indices(t, 1)
    for start in range(0, count, block):
        rows = min(block, count - start)
        if per_row:
            drawn = [rng.sample(range(n), t) for _ in range(rows)]
            yield np.array(drawn, np.int64).reshape(rows, t)
            continue
        state = rng.getstate()
        vals = pos = np.empty(0, np.int64)  # kept values and the outputs they came from
        clean = np.empty(0, bool)  # clean[i]: vals[i : i + t] holds no repeat
        out = np.empty((rows, t), np.int64)
        drawn = r = o = 0  # outputs drawn, rows built, kept values used
        while r < rows:
            avail = min(rows - r, (len(vals) - o) // t)
            starts = clean[o : o + avail * t : t]
            good = avail if starts.all() else int(starts.argmin())
            out[r : r + good] = vals[o : o + good * t].reshape(good, t)
            r, o = r + good, o + good * t
            row, j = [], o
            while r < rows and len(row) < t and j < len(vals):
                if vals[j] not in row:
                    row.append(vals[j])
                j += 1
            if len(row) == t:
                out[r], r, o = row, r + 1, j
            elif r < rows:
                # The outputs the rows left need on average, plus an eighth.
                w = ((rows - r + 1) * t << bits) // n * 9 // 8 + 8
                raw = np.frombuffer(rng.getrandbits(32 * w).to_bytes(4 * w, "little"), "<u4")
                keep = np.flatnonzero(raw >> (32 - bits) < n)
                vals = np.concatenate([vals, raw[keep] >> (32 - bits)])
                pos, drawn = np.concatenate([pos, keep + drawn]), drawn + w
                if len(vals) >= t:
                    windows = np.lib.stride_tricks.sliding_window_view(vals, t)
                    clean = (windows[:, first] != windows[:, second]).all(axis=1)
        rng.setstate(state)
        rng.getrandbits(32 * int(pos[o - 1] + 1))
        yield out
