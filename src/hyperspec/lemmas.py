"""Exact-arithmetic checkers for the averaging facts behind the extraction
machinery, plus the greedy common-vertex growth procedure.

Every check returns an :class:`InequalityReport` with exact rational sides;
``holds`` being False on valid input signals an implementation bug, and the
randomized suites treat it as such. The checkers and the suite's batches share
the input check (:func:`_pair_inputs`, :func:`_average_inputs`) and the integer
sides of each inequality (:func:`_pair_sides`, :func:`_average_sides`);
:func:`run_lemma_suite` checks its instances in numpy chunks of ``SUITE_CHUNK``
and puts the first of each through the checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb
from operator import mul
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .core import (
    Hypergraph,
    _check_indices,
    _check_vertex,
    _containing_mask,
    is_intersecting,
    is_uniform,
    mask_of,
    pair_size_counts,
    pair_size_total,
    pair_size_totals,
    pack_words,
    vertex_edge_masks,
    vertices_of,
)
from .coloring import monochromatic_edge
from .constructions import fano
from .errors import (
    InvalidParameterError,
    MismatchedEdgeCountError,
    MismatchedVertexCountError,
    NoDisjointEdgeError,
    NonUniformError,
    NotIntersectingError,
    OverlappingSetsError,
    SizeMismatchError,
    StepOutOfRangeError,
    TooFewEdgesError,
    WitnessViolationError,
)
from .rng import distinct_subsets, substream

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InequalityReport",
    "GreedyStep",
    "GreedyResult",
    "LambdaPairValidation",
    "check_pair_inequality",
    "check_average_lambda",
    "greedy_increase",
    "is_lambda_small",
    "validate_lambda_pair",
    "random_pair_instance",
    "planted_average_instance",
    "run_lemma_suite",
]


@dataclass(frozen=True)
class InequalityReport:
    lhs: Fraction
    rhs: Fraction
    holds: bool
    slack: Fraction


def check_pair_inequality(fam_a: Hypergraph, fam_b: Hypergraph) -> InequalityReport:
    """Within-family pair sums dominate the cross sum minus l(k+k')/2.

    The cross sum runs over all ordered pairs, coincident edges included.
    A second evaluation via per-vertex degree counts must agree exactly;
    disagreement raises, since both routes count the same quantities.
    """
    sizes = _pair_inputs(fam_a, fam_b)
    masks_a = fam_a.edge_masks
    masks_b = fam_b.edge_masks
    within = pair_size_total(masks_a) + pair_size_total(masks_b)
    cross = pair_size_total(masks_a, masks_b)

    # Degree-count re-derivation of all three ingredients.
    deg_a = _degrees(masks_a, fam_a.num_vertices)
    deg_b = _degrees(masks_b, fam_a.num_vertices)
    deg_within = sum(a * (a - 1) + b * (b - 1) for a, b in zip(deg_a, deg_b)) // 2
    deg_cross = sum(map(mul, deg_a, deg_b))
    deg_sizes = sum(deg_a) + sum(deg_b)
    if deg_within != within or deg_cross != cross or deg_sizes != sizes:
        raise AssertionError("pair-sum and degree-count evaluations disagree")

    return _report(*_pair_sides(within, cross, sizes))


def _pair_inputs(fam_a: Hypergraph, fam_b: Hypergraph) -> int:
    """The summed edge sizes l(k + k') of both families, after the input check of
    :func:`check_pair_inequality`: both uniform, equal vertex and edge counts."""
    k = is_uniform(fam_a)
    kp = is_uniform(fam_b)
    if k is None or kp is None:
        raise NonUniformError("both families must be uniform")
    if fam_a.num_vertices != fam_b.num_vertices:
        raise MismatchedVertexCountError(f"{fam_a.num_vertices} != {fam_b.num_vertices} vertices")
    ell = fam_a.num_edges
    if ell != fam_b.num_edges:
        raise MismatchedEdgeCountError(f"{ell} != {fam_b.num_edges} edges")
    return ell * (k + kp)


def _pair_sides(within, cross, sizes):
    """Integer sides and denominator of the pair inequality, from the within
    and cross pair totals and the summed edge sizes: Python ints or int64 arrays."""
    return 2 * within, 2 * cross - sizes, 2


def _average_sides(within, cross, ell, x, k):
    """Integer sides and denominator of the average-lambda inequality, as
    :func:`_pair_sides`. lambda_S + lambda_T = (P_S + P_T) / C(l, 2) and
    lambda_{S,T} = P_ST / l^2 for the pair-size totals P; both sides over the
    denominator 2 l^2 (l - 1)."""
    return 2 * ell * within, 2 * (ell - 1) * cross + (x * (ell - 1) - 2 * k) * ell * ell, 2 * ell * ell * (ell - 1)


def _report(lhs: int, rhs: int, den: int) -> InequalityReport:
    return InequalityReport(Fraction(lhs, den), Fraction(rhs, den), lhs >= rhs, Fraction(lhs - rhs, den))


def _degrees(masks: Sequence[int], n: int) -> list[int]:
    """Degree of each of the n vertices, counted edge by edge."""
    deg = [0] * n
    for m in masks:
        for v in vertices_of(m):
            deg[v] += 1
    return deg


def check_average_lambda(
    h: Hypergraph,
    s: Iterable[int],
    t: Iterable[int],
    w: Iterable[int],
) -> InequalityReport:
    """(lambda_S + lambda_T)/2 >= lambda_{S,T} + x/2 - k/(l-1) for disjoint
    equal-size edge sets S, T and x vertices lying in every S edge and no
    T edge."""
    k, s_masks, t_masks, x = _average_inputs(h, s, t, w)
    within = pair_size_total(s_masks) + pair_size_total(t_masks)
    cross = pair_size_total(s_masks, t_masks)
    return _report(*_average_sides(within, cross, len(s_masks), x, k))


def _average_inputs(h: Hypergraph, s: Iterable[int], t: Iterable[int], w: Iterable[int]) -> tuple[int, list, list, int]:
    """The host's edge size k, the masks of S and of T by ascending index and
    the witness size x, after the input check of :func:`check_average_lambda`."""
    k = is_uniform(h)
    if k is None:
        raise NonUniformError("the host hypergraph must be uniform")
    s_idx = frozenset(s)
    t_idx = frozenset(t)
    if len(s_idx) != len(t_idx):
        raise SizeMismatchError(f"|S|={len(s_idx)} differs from |T|={len(t_idx)}")
    ell = len(s_idx)
    if ell < 2:
        raise TooFewEdgesError("need at least two edges per side")
    _check_indices(h, s_idx)
    _check_indices(h, t_idx)
    w_mask = mask_of(_check_vertex(h, v) for v in w)
    masks = h.edge_masks
    for i in s_idx:
        if masks[i] & w_mask != w_mask:
            raise WitnessViolationError(f"edge {i} in S misses a common vertex")
    for j in t_idx:
        if masks[j] & w_mask:
            raise WitnessViolationError(f"edge {j} in T touches the common vertex set")
    if s_idx & t_idx:
        raise OverlappingSetsError(f"sets share edges {sorted(s_idx & t_idx)}")
    return k, [masks[i] for i in sorted(s_idx)], [masks[j] for j in sorted(t_idx)], w_mask.bit_count()


@dataclass(frozen=True)
class GreedyStep:
    added_vertex: int
    disjoint_edge: int
    count_before: int
    count_after: int


@dataclass(frozen=True)
class GreedyResult:
    final_set: frozenset[int]
    fraction: Fraction
    steps: tuple[GreedyStep, ...]


def greedy_increase(h: Hypergraph, start: Iterable[int], steps: int) -> GreedyResult:
    """Grow a vertex set by ``steps`` vertices, keeping at least a 1/k
    fraction of its containing edges per step.

    Each round picks the smallest-index edge disjoint from the current set
    (if none exists, the set-vs-rest split 2-colors the hypergraph and a
    :class:`NoDisjointEdgeError` carries that witness) and absorbs the
    disjoint edge's most popular vertex, ties to the smallest index. The
    returned fraction is exact and at least k^-steps.

    Counts are popcounts of ANDs of :func:`~hyperspec.core.vertex_edge_masks`,
    and the first disjoint edge is the lowest zero bit of the set's OR of
    them. A start vertex outside [0, n) raises :class:`OutOfRangeVertexError`.
    """
    k = is_uniform(h)
    if k is None:
        raise NonUniformError("greedy growth needs a uniform hypergraph")
    if not is_intersecting(h):
        raise NotIntersectingError("greedy growth needs an intersecting hypergraph")
    base = frozenset(start)
    if steps < 0 or steps > k - len(base):
        raise StepOutOfRangeError(f"steps must lie in [0, {k - len(base)}], got {steps}")
    vm = vertex_edge_masks(h)
    inside = _containing_mask(h, base)  # the edges containing the set
    touched = 0  # the edges meeting it
    for v in base:
        touched |= vm[v]
    base_count = count = inside.bit_count()
    trace: list[GreedyStep] = []
    cur = set(base)
    for _ in range(steps):
        missed = ~touched & (touched + 1)  # the lowest edge the set misses, if below bit m
        if missed >> h.num_edges:
            witness = tuple(0 if v in cur else 1 for v in range(h.num_vertices))
            if monochromatic_edge(h, witness) is not None:
                raise AssertionError("implied 2-coloring is improper")
            raise NoDisjointEdgeError(frozenset(cur), witness)
        disjoint_edge = missed.bit_length() - 1
        # max keeps the first of equal counts: ties go to the smallest vertex.
        best_v = max(vertices_of(h.edge_masks[disjoint_edge]), key=lambda v: (inside & vm[v]).bit_count())
        inside &= vm[best_v]
        touched |= vm[best_v]
        trace.append(GreedyStep(best_v, disjoint_edge, count, inside.bit_count()))
        cur.add(best_v)
        count = inside.bit_count()
    fraction = Fraction(count, base_count) if base_count else Fraction(1)
    return GreedyResult(frozenset(cur), fraction, tuple(trace))


def is_lambda_small(h: Hypergraph, s: Iterable[int], lam: int) -> bool:
    """True iff every pair of edges in ``s`` meets in fewer than ``lam``
    vertices."""
    idx = sorted(_check_indices(h, s))
    if len(idx) < 2:
        raise TooFewEdgesError("smallness is a pairwise property; need two edges")
    return max(pair_size_counts([h.edge_masks[i] for i in idx])) < lam


@dataclass(frozen=True)
class LambdaPairValidation:
    valid: bool
    violations: tuple[str, ...]
    within_max: Optional[int]
    cross_min: Optional[int]
    y_size: int


def validate_lambda_pair(
    h: Hypergraph,
    x: Iterable[int],
    y: Iterable[int],
    lam: int,
    t: int,
) -> LambdaPairValidation:
    """Check the three pair conditions: |X| = t, within-X intersections at
    most ``lam``, and every X-Y cross intersection at least ``lam``.

    Violations are reported, not raised; the size of Y is reported but not
    enforced.
    """
    x_idx = sorted(_check_indices(h, x))
    y_idx = sorted(_check_indices(h, y))
    violations: list[str] = []
    overlap = set(x_idx) & set(y_idx)
    if overlap:
        violations.append(f"X and Y share edges {sorted(overlap)}")
    if len(x_idx) != t:
        violations.append(f"|X|={len(x_idx)} differs from t={t}")
    x_masks = [h.edge_masks[i] for i in x_idx]
    within_max = max(pair_size_counts(x_masks), default=None)
    if within_max is not None and within_max > lam:
        violations.append(f"a pair inside X meets in {within_max} > {lam} vertices")
    cross_min = min(pair_size_counts(x_masks, [h.edge_masks[i] for i in y_idx]), default=None)
    if cross_min is not None and cross_min < lam:
        violations.append(f"a cross pair meets in {cross_min} < {lam} vertices")
    return LambdaPairValidation(
        valid=not violations,
        violations=tuple(violations),
        within_max=within_max,
        cross_min=cross_min,
        y_size=len(y_idx),
    )


# -- randomized suite instances -------------------------------------------


def random_pair_instance(rng: random.Random) -> tuple[Hypergraph, Hypergraph]:
    """Two uniform families on a shared vertex set with equal edge counts."""
    n = rng.randint(5, 12)
    k = rng.randint(2, min(5, n))
    kp = rng.randint(2, min(5, n))
    cap = min(comb(n, k), comb(n, kp), 15)
    ell = rng.randint(1, cap)
    fam_a = Hypergraph.from_masks(n, distinct_subsets(rng, 0, n, k, ell))
    fam_b = Hypergraph.from_masks(n, distinct_subsets(rng, 0, n, kp, ell))
    return fam_a, fam_b


def planted_average_instance(
    rng: random.Random, x: int
) -> tuple[Hypergraph, frozenset[int], frozenset[int], frozenset[int]]:
    """A uniform hypergraph with x planted vertices common to every S edge
    and absent from every T edge."""
    k = rng.randint(max(2, x + 1), x + 5)
    ell = rng.randint(2, 6)
    # Universe wide enough that ell distinct edges exist on each side even
    # when k - x = 1.
    n = x + k + ell + rng.randint(2, 6)
    w = (1 << x) - 1  # the planted vertices 0, ..., x - 1
    s_edges = [w | e for e in distinct_subsets(rng, x, n - x, k - x, ell)]
    # For x > 0 no T edge can equal an S edge; for x = 0 the S edges are
    # forbidden outright.
    t_edges = distinct_subsets(rng, x, n - x, k, ell, s_edges)
    h = Hypergraph.from_masks(n, s_edges + t_edges)
    return (
        h,
        frozenset(range(ell)),
        frozenset(range(ell, 2 * ell)),
        frozenset(range(x)),
    )


# Instances per numpy chunk of the lemma suite. A chunk keeps its instances
# alive and makes temporaries of about 2 kB per instance (15 edges of one
# word). On the bench's `small` workload, chunks of 64 ran the pipeline about
# 10 % faster than chunks of 32 for about 0.1 MB more peak RSS; in-process,
# chunks of 256 peaked about 1.5 MB above chunks of 64.
SUITE_CHUNK = 64


def _word_rows(mask_lists: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """Mask lists as zero-padded ``(lists, longest list, words)`` uint64 rows."""
    import numpy as np
    lens = np.array(list(map(len, mask_lists)))
    words = pack_words(list(chain.from_iterable(mask_lists)), width)
    rows = np.zeros((len(mask_lists), max(1, lens.max()), words.shape[1]), dtype=np.uint64)
    rows[np.arange(rows.shape[1]) < lens[:, None]] = words  # list by list, as listed
    return rows


def _vertex_degrees(rows: np.ndarray) -> np.ndarray:
    """``(lists, 64 * words)`` vertex degrees of word rows, by unpacking their bits."""
    import numpy as np
    return np.unpackbits(rows.view(np.uint8), axis=2, bitorder="little").sum(axis=1, dtype=np.int64)


def _pair_slacks(chunk: list) -> tuple[np.ndarray, np.ndarray]:
    """Slack numerators and denominators (int64) of :func:`check_pair_inequality`
    on each ``(fam_a, fam_b)`` of ``chunk``: each instance through the checker's
    input check, then its two routes to the totals, batched."""
    import numpy as np
    sizes = np.array([_pair_inputs(*pair) for pair in chunk])
    fams = [fam for pair in chunk for fam in pair]  # a, b, a, b, ...
    rows = _word_rows([fam.edge_masks for fam in fams], max(fam.num_vertices for fam in fams))
    a, b = rows[0::2], rows[1::2]
    totals = [pair_size_totals(a) + pair_size_totals(b), pair_size_totals(a, b), sizes]
    deg = _vertex_degrees(rows)
    da, db = deg[0::2], deg[1::2]
    by_degree = [(da * (da - 1) + db * (db - 1)).sum(axis=1) // 2, (da * db).sum(axis=1), (da + db).sum(axis=1)]
    if not np.array_equal(by_degree, totals):
        raise AssertionError("pair-sum and degree-count evaluations disagree")
    lhs, rhs, den = _pair_sides(*totals)
    return lhs - rhs, np.full(len(chunk), den)


def _average_slacks(chunk: list) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pair_slacks` for :func:`check_average_lambda` on each ``(h, s, t, w)``
    of ``chunk``."""
    import numpy as np
    k, s_masks, t_masks, x = zip(*(_average_inputs(*inst) for inst in chunk))
    rows = _word_rows(s_masks + t_masks, max(h.num_vertices for h, _, _, _ in chunk))
    s_rows, t_rows = rows[: len(chunk)], rows[len(chunk) :]
    within = pair_size_totals(s_rows) + pair_size_totals(t_rows)
    ell = np.array(list(map(len, s_masks)))
    lhs, rhs, den = _average_sides(within, pair_size_totals(s_rows, t_rows), ell, np.array(x), np.array(k))
    return lhs - rhs, den


def run_lemma_suite(seed: int, instances: int) -> dict:
    """Randomized pass/fail summary for the two inequality checkers plus a
    greedy growth spot check. Worst slacks are reported exactly.

    Each suite draws its instances one by one, as the generators always have,
    and checks them ``SUITE_CHUNK`` at a time: each instance goes through the
    checker's own input check before its chunk is packed into numpy word rows,
    whose ANDs give the pair totals (for the pair inequality, vertex degrees
    give them a second time). The first instance of each chunk also goes
    through the public checker, whose ``holds`` and ``slack`` must equal the
    batch's. A negative ``instances`` raises :class:`InvalidParameterError`."""
    import numpy as np
    if instances < 0:
        raise InvalidParameterError(f"instances must be non-negative, got {instances}")
    results: dict = {"seed": seed, "instances": instances}
    suites = (
        ("pair_inequality", check_pair_inequality, _pair_slacks, lambda rng, i: random_pair_instance(rng)),
        ("average_lambda", check_average_lambda, _average_slacks, lambda rng, i: planted_average_instance(rng, x=i % 6)),
    )
    for name, checker, batch, draw in suites:
        rng = substream(seed, "suite/" + name.replace("_", "-"))  # "suite/pair-inequality", ...
        worst: Optional[Fraction] = None
        passes = 0
        for c0 in range(0, instances, SUITE_CHUNK):
            chunk = [draw(rng, i) for i in range(c0, min(instances, c0 + SUITE_CHUNK))]
            num, den = batch(chunk)
            spot = checker(*chunk[0])
            if (spot.holds, spot.slack) != (num[0] >= 0, Fraction(int(num[0]), int(den[0]))):
                raise AssertionError(f"{checker.__name__} and its batch disagree on instance {c0}")
            passes += int(np.count_nonzero(num >= 0))
            # The least slack: num[i] / den[i] <= num[j] / den[j] for every j.
            low = int(np.argmax((num[:, None] * den <= den[:, None] * num).all(axis=1)))
            low_slack = Fraction(int(num[low]), int(den[low]))
            worst = low_slack if worst is None else min(worst, low_slack)
        results[name] = {"pass": passes, "fail": instances - passes, "worst_slack": str(worst)}

    h = fano()
    greedy_ok = 0
    for i in range(4):
        res = greedy_increase(h, (), i)
        greedy_ok += res.fraction >= Fraction(1, 3**i)
    results["greedy_increase"] = {"pass": greedy_ok, "fail": 4 - greedy_ok}
    return results
