"""Machine-speed probe, so that run times from a shared host compare.

On a small VM of a shared host the same code runs up to a third faster or
slower from one minute to the next, as the host's other tenants come and
go, and it changes again within a second; the medians of two runs a few
minutes apart then differ by more than any change worth detecting. The
benchmark therefore times this fixed piece of work before and after each
op and reports each op's time scaled by the mean of the two probes to the
speed at which the probe takes ``REFERENCE_S``. An op on a slow stretch has
slow probes on both sides, and the two cancel.

The probe is the benchmark's own code, so it tracks the host's speed but
not a change to the package. It is plain integer arithmetic in the
interpreter: timed next to the package's ops, such a loop slowed and sped up
in proportion with them, while a loop of ``random.sample`` calls and dict
updates swung about twice as far as they did and over-corrected.
"""

from __future__ import annotations

from statistics import fmean
from time import perf_counter

REFERENCE_S = 0.08


def probe() -> float:
    """Seconds taken by the fixed piece of work (about 0.08 s)."""
    start = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return perf_counter() - start


def scaled(seconds: float, probes: list[float]) -> float:
    """``seconds`` at reference speed, from the probes timed around them."""
    return seconds * REFERENCE_S / fmean(probes)


def scaled_sum(seconds: list[float], probes: list[float]) -> float:
    """Sum of consecutive times at reference speed, where ``probes[i]`` was
    timed right before ``seconds[i]`` and ``probes[i + 1]`` right after."""
    return sum(scaled(s, probes[i : i + 2]) for i, s in enumerate(seconds))
