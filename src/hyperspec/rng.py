"""Seed handling.

Every randomized routine takes one integer seed and derives a private
stream from it with :func:`substream`, so independent operations inside a
single run never share generator state and whole runs replay bit-exactly.
:func:`sample_rows` draws many ``random.sample`` rows at once with the same
results, so batched loops keep the draws of their per-draw versions.
"""

from __future__ import annotations

import random
from math import ceil, log
from typing import Iterator

import numpy as np

# Fixed default so unseeded CLI runs are still reproducible.
DEFAULT_SEED = 0xE1_1975


def substream(seed: int, name: str) -> random.Random:
    """Return a fresh ``random.Random`` keyed by (seed, stream name).

    String seeding in CPython hashes with SHA-512, which is stable across
    processes and platforms.
    """
    return random.Random(f"{seed:#x}/{name}")


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
    per_row = t == 0 or bits > 32 or n <= 21 + (4 ** ceil(log(3 * t, 4)) if t > 5 else 0)
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
