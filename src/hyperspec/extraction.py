"""Runnable extraction machinery: threshold graphs, dependent random
choice, two lambda-pair extractors, maximal triple families, and the
density-increment driver that produces validated traces of strictly
increasing intersection sizes.

At desk scale the asymptotic tuning constants are vacuous, so the driver
runs on small defaults (t = 4, x = 4, measured threshold-graph density)
and falls back to a direct qualifying-subset search whenever the dependent
random choice hypotheses cannot be met; every such fallback is noted in
the trace. All randomness flows from one seed through named substreams,
so a run replays bit-exactly from (input, params, seed).

Both counting questions (the bad t-subsets of a dependent random choice,
the lambda-small t-subsets of a pool) are settled by a counting bound or
by enumerating at most ``ENUM_CAP`` t-subsets, or else left undecided.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt, sqrt
from typing import Iterable, Optional, Sequence

from .core import (
    Budget,
    Hypergraph,
    _containing_mask,
    intersection_spectrum,
    is_uniform,
    lambda_across,
    lambda_within,
    pair_adjacency,
    pair_size_counts,
    vertices_of,
)
from .errors import (
    EmptySetError,
    HypothesesViolatedError,
    InvalidParameterError,
    NoDisjointEdgeError,
    NoQualifyingSubsetError,
    PoolExhaustedError,
    TooFewEdgesError,
    WidthTooLargeError,
)
from .lemmas import (
    check_average_lambda,
    greedy_increase,
    validate_lambda_pair,
)
from .rng import DEFAULT_SEED, distinct_subsets, substream

__all__ = [
    "ExtractionParams",
    "LambdaPair",
    "TripleFamily",
    "TraceLevel",
    "IncrementTrace",
    "DrcResult",
    "gnp_random_graph",
    "threshold_graph",
    "dependent_random_choice",
    "find_lambda_pair_ramsey",
    "find_lambda_pair_drc",
    "build_triple_family",
    "density_increment_run",
]

DRC_RETRIES = 20
# Most t-subsets either counting question enumerates before it is undecided.
ENUM_CAP = 10**6
# Most candidate t-subsets the lambda-pair search tries, and most pair
# checks in the spread-case subset search.
SEARCH_TRIES = 4000
INPUT_CHECK_STOP = "input must be uniform with at least two edges"


def gnp_random_graph(n: int, p: float, seed: int) -> tuple[int, ...]:
    """Erdos-Renyi G(n, p) as adjacency masks (bit j of entry i: i and j
    adjacent), deterministic per seed."""
    rng = substream(seed, "gnp")
    adj = [0] * n
    for i in range(n - 1):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def threshold_graph(h: Hypergraph, edge_set: Iterable[int], lam: int) -> tuple[int, ...]:
    """Graph on the edges of ``edge_set`` (in ascending index order) with
    adjacency iff the two edges meet in at least ``lam`` vertices, as one
    loop-free adjacency mask per edge (:func:`pair_adjacency`)."""
    labels = sorted(frozenset(edge_set))
    na = len(labels)
    if na < 2:
        raise TooFewEdgesError("a threshold graph needs at least two edges")
    # When lam does not exceed the global minimum intersection size the
    # graph is complete; this skips the quadratic scan on full edge sets.
    if lam <= intersection_spectrum(h).sizes[0]:
        full = (1 << na) - 1
        return tuple(full ^ (1 << i) for i in range(na))
    return pair_adjacency([h.edge_masks[i] for i in labels], lam)


def _common_neighbors(adj: Sequence[int], vertices: Iterable[int]) -> int:
    """Mask of the vertices adjacent to each of ``vertices`` in ``adj``."""
    mask = (1 << len(adj)) - 1
    for v in vertices:
        mask &= adj[v]
    return mask


@dataclass(frozen=True)
class DrcResult:
    """An accepted set U, which has no bad t-subset, and the attempt that
    found it. ``exhaustive`` is always True: every U is decided exactly."""

    u: frozenset[int]
    exhaustive: bool
    attempts: int
    removed: int


def _bad_subsets(adj: Sequence[int], members: list[int], t: int, n: int) -> list[tuple[int, ...]]:
    """The t-subsets of ``members`` with fewer than n common neighbors."""
    return [sub for sub in combinations(members, t) if _common_neighbors(adj, sub).bit_count() < n]


def _common_neighbor_floor(adj: Sequence[int], members: list[int], t: int) -> int:
    """A lower bound on the common neighborhood of any t of ``members``:
    each member misses itself and its m - 1 - deg non-neighbors, so t of
    them miss at most t * (m - min deg) vertices."""
    m = len(adj)
    return m - t * (m - min(adj[v].bit_count() for v in members))


def _cleanup_bad_subsets(
    members: list[int], bad_subsets: list[tuple[int, ...]]
) -> tuple[list[int], int]:
    """Delete one vertex from every bad subset (greedy hitting set: most
    frequent vertex first, ties to the smallest index). No bad subset
    survives inside the returned list."""
    remaining = list(bad_subsets)
    removed: set[int] = set()
    while remaining:
        counts: dict[int, int] = {}
        for sub in remaining:
            for v in sub:
                counts[v] = counts.get(v, 0) + 1
        victim = max(sorted(counts), key=lambda v: counts[v])
        removed.add(victim)
        remaining = [sub for sub in remaining if victim not in sub]
    kept = [v for v in members if v not in removed]
    return kept, len(removed)


def dependent_random_choice(
    adj: Sequence[int],
    d: Fraction | float | int,
    t: int,
    n: int,
    seed: int,
    retries: int = DRC_RETRIES,
) -> Optional[DrcResult]:
    """Find a vertex set U with |U| > 2n in which every t-subset has at
    least n common neighbors in the graph of adjacency masks ``adj``
    (:func:`threshold_graph`, :func:`gnp_random_graph`).

    Draws t vertices with repetition and takes their common neighborhood.
    U is accepted when :func:`_common_neighbor_floor` reaches n. Otherwise,
    when C(|U|, t) is at most ``ENUM_CAP`` the bad subsets are listed and
    one vertex of each is deleted, and what is left is accepted if it still
    has more than 2n members; else the attempt fails. Returns None if every
    attempt fails.
    """
    if t < 1 or n < t:
        raise ValueError("need positive integers t <= n")
    d = Fraction(d)
    if d <= 0:
        raise HypothesesViolatedError("density parameter must be positive")
    m = len(adj)
    if not m > 4 * t * d**-t * n:
        raise HypothesesViolatedError(
            f"vertex count {m} does not exceed 4*t*d^-t*n = {4 * t * d**-t * n}"
        )
    num_edges = sum(map(int.bit_count, adj)) // 2
    if not num_edges >= d * m * m / 2:
        raise HypothesesViolatedError(
            f"edge count {num_edges} is below d*m^2/2 = {d * m * m / 2}"
        )
    rng = substream(seed, "drc")
    for attempt in range(1, retries + 1):
        sample = [rng.randrange(m) for _ in range(t)]
        members = list(vertices_of(_common_neighbors(adj, sample)))
        if len(members) <= 2 * n:
            continue
        if _common_neighbor_floor(adj, members, t) >= n:
            return DrcResult(frozenset(members), True, attempt, 0)
        if comb(len(members), t) > ENUM_CAP:
            continue  # undecided
        kept, removed = _cleanup_bad_subsets(members, _bad_subsets(adj, members, t, n))
        if len(kept) > 2 * n:
            # Every bad subset lost a member, so none survives in kept.
            return DrcResult(frozenset(kept), True, attempt, removed)
    return None


@dataclass(frozen=True)
class LambdaPair:
    """Disjoint edge-index sets X, Y at threshold lambda: within-X
    intersections at most lambda, every cross pair at least lambda."""

    x: frozenset[int]
    y: frozenset[int]
    lam: int
    validated: bool
    notes: tuple[str, ...] = ()


def find_lambda_pair_ramsey(
    h: Hypergraph, edge_set: Iterable[int], t: int, seed: int
) -> LambdaPair:
    """Majority-filter extractor: repeatedly pull a random edge from the
    pool, keep only the pool edges meeting it in the majority size, and
    stop once t pulled edges share a majority size.

    The returned X is monochromatic at that size in the intersection
    coloring and every X-Y cross pair meets in exactly that size.
    """
    pool = sorted(frozenset(edge_set))
    rng = substream(seed, "ramsey-pair")
    masks = h.edge_masks
    pulls_by_color: dict[int, list[int]] = {}
    rounds = 0
    while pool:
        e = pool.pop(rng.randrange(len(pool)))
        rounds += 1
        if not pool:
            break
        buckets: dict[int, list[int]] = {}
        for other in pool:
            buckets.setdefault((masks[e] & masks[other]).bit_count(), []).append(other)
        majority = max(buckets, key=lambda c: (len(buckets[c]), -c))
        pool = buckets[majority]
        mine = pulls_by_color.setdefault(majority, [])
        mine.append(e)
        if len(mine) == t:
            x, y = frozenset(mine), frozenset(pool)
            valid = validate_lambda_pair(h, x, y, majority, t).valid
            return LambdaPair(x, y, majority, valid, (f"majority rounds: {rounds}",))
    raise PoolExhaustedError(
        f"pool emptied after {rounds} pulls before {t} shared a majority size"
    )


def _pairwise_at_most(masks: Sequence[int], sub: Iterable[int], c: int) -> bool:
    """True iff every two of the edges ``sub`` (indices into ``masks``)
    meet in at most ``c`` vertices."""
    return all((masks[a] & masks[b]).bit_count() <= c for a, b in combinations(sub, 2))


def _lambda_small_fraction(
    h: Hypergraph, members: list[int], lam: int, t: int
) -> Optional[Fraction]:
    """Fraction of t-subsets whose pairwise intersections all fall below
    ``lam``, or None (undecided) above ``ENUM_CAP`` t-subsets."""
    total = comb(len(members), t)
    if total > ENUM_CAP:
        return None
    small = sum(_pairwise_at_most(h.edge_masks, sub, lam - 1) for sub in combinations(members, t))
    return Fraction(small, total)


def _pool_pair_counts(h: Hypergraph, labels: list[int]) -> dict[int, int]:
    """Pair count per intersection size over the sorted edge indices
    ``labels``; the full edge set reads the cached spectrum."""
    if len(labels) == h.num_edges:
        spectrum = intersection_spectrum(h)
        return dict(zip(spectrum.sizes, spectrum.multiplicities))
    return pair_size_counts([h.edge_masks[i] for i in labels])


def _small_pair_share(pair_counts: dict[int, int], lam: int) -> Fraction:
    """Share of a pool's pairs meeting in fewer than ``lam`` vertices: an
    upper bound on its lam-small t-subset share, since a uniform pair of a
    uniform t-subset is a uniform pair of the pool."""
    small = sum(c for size, c in pair_counts.items() if size < lam)
    return Fraction(small, sum(pair_counts.values()))


def _threshold_density(pair_counts: dict[int, int], lam: int, m: int) -> Fraction:
    """2e/m^2 for the e edges of the m-edge pool's threshold graph at
    ``lam``, which are the pool's pairs meeting in at least lam vertices."""
    return Fraction(2 * sum(c for size, c in pair_counts.items() if size >= lam), m * m)


def find_lambda_pair_drc(
    h: Hypergraph,
    edge_set: Iterable[int],
    lam: int,
    params: "ExtractionParams",
    pair_counts: Optional[dict[int, int]] = None,
) -> LambdaPair:
    """Dependent-random-choice extractor at threshold ``lam``.

    Requires that at most half of the t-subsets of the pool are
    lam-small, which only a :func:`_small_pair_share` above 1/2 leaves
    open (``pair_counts``: the pool's :func:`pair_size_counts`); a share
    too large to count is noted as undecided. Builds the threshold graph,
    reads its density from the pair counts (:func:`_threshold_density`),
    derives the common-neighbor demand, applies dependent random choice,
    and searches the resulting subset for a t-subset X whose pairwise
    intersections stay at most lam and whose threshold-graph common
    neighborhood, of at least the demand, becomes Y (all t-subsets, or
    ``SEARCH_TRIES`` drawn by ``distinct_subsets`` on ``"drc-pair/<lam>"``).
    When the lemma hypotheses are unsatisfiable at the pool's scale, or no
    DRC attempt is accepted, the search runs over the whole pool with a
    demand of one; the pair's notes name the fallback and its cause.
    """
    labels = sorted(frozenset(edge_set))
    m = len(labels)
    t = params.t
    if m < t:
        raise NoQualifyingSubsetError(f"pool of {m} cannot contain a {t}-subset")
    rng = substream(params.seed, f"drc-pair/{lam}")
    if pair_counts is None:
        pair_counts = _pool_pair_counts(h, labels)
    notes: list[str] = []
    if _small_pair_share(pair_counts, lam) > Fraction(1, 2):
        fraction = _lambda_small_fraction(h, labels, lam, t)
        if fraction is None:
            notes.append(f"{lam}-small share of {t}-subsets undecided; proceeding")
        elif fraction > Fraction(1, 2):
            raise HypothesesViolatedError(
                f"{fraction} of {t}-subsets are {lam}-small; need at most 1/2"
            )
    adj = threshold_graph(h, labels, lam)
    d = params.d if params.d is not None else _threshold_density(pair_counts, lam, m)
    n_target = int(m * d**t / (5 * t))
    res, fallback = None, "drc hypotheses unsatisfiable at this scale"
    if n_target >= t:
        try:  # the DRC checks its own hypotheses; 4*t*d^-t*n_target <= 4m/5 < m always
            res = dependent_random_choice(adj, d, t, n_target, params.seed)
            fallback = f"drc accepted no U in {DRC_RETRIES} attempts"
        except HypothesesViolatedError:
            pass
    if res is None:
        members, demand = list(range(m)), 1
        notes.append(f"{fallback}; direct search over the pool")
    else:
        members, demand = sorted(res.u), n_target
        notes.append(f"drc accepted |U|={len(res.u)} with demand n={n_target}")

    pool_masks = [h.edge_masks[i] for i in labels]
    candidates = (
        combinations(members, t)
        if comb(len(members), t) <= SEARCH_TRIES
        else (
            tuple(members[i] for i in vertices_of(distinct_subsets(rng, 0, len(members), t, 1)[0]))
            for _ in range(SEARCH_TRIES)
        )
    )
    # Every t-subset of an accepted U has at least n common neighbors, so
    # there the first X with small pairwise intersections meets the demand.
    for sub in candidates:
        if _pairwise_at_most(pool_masks, sub, lam):
            common = _common_neighbors(adj, sub)  # no member of X is its own neighbor
            if common.bit_count() >= demand:
                break
    else:
        raise NoQualifyingSubsetError(
            f"no {t}-subset with pairwise intersections <= {lam} and a nonempty "
            "common threshold neighborhood"
        )
    x = frozenset(labels[i] for i in sub)
    y = frozenset(labels[i] for i in vertices_of(common))
    return LambdaPair(x, y, lam, validate_lambda_pair(h, x, y, lam, t).valid, tuple(notes))


@dataclass(frozen=True)
class TripleFamily:
    """Greedy maximal family of (A_i, B_i, X_i) triples over an anchor
    edge: X_i is an x-subset of the anchor inside A_i and disjoint from
    B_i, and all A_i, B_i are distinct."""

    anchor: int
    triples: tuple[tuple[int, int, frozenset[int]], ...]
    x: int


def build_triple_family(
    h: Hypergraph,
    pool: Iterable[int],
    anchor: int,
    x: int,
) -> TripleFamily:
    """Greedy maximal triple family over ``pool``.

    Scans ordered candidate pairs (A, B) of unused pool edges in
    lexicographic order and admits a pair when at least x vertices of
    A's overlap with the anchor avoid B, taking X_i as the x smallest such
    vertices. The scan order is deterministic. The family is maximal: an A
    that found no B had scanned every member still unused.
    """
    members = sorted(frozenset(pool))
    if not members:
        raise EmptySetError("the candidate pool is empty")
    u_mask = h.edge_masks[anchor]
    if x > u_mask.bit_count():
        raise WidthTooLargeError(
            f"width {x} exceeds anchor edge size {u_mask.bit_count()}"
        )
    masks = h.edge_masks
    free = [u_mask & ~masks[b] for b in members]
    used: set[int] = set()
    # Admissibility reads A only through A & U. A member that one A skips,
    # as used or as leaving fewer than x free vertices, stays skipped for
    # every later A with the same A & U, so each A & U resumes the scan
    # where the last A with it stopped instead of restarting it.
    resume: dict[int, int] = {}
    triples: list[tuple[int, int, frozenset[int]]] = []
    for a in members:
        if a in used:
            continue
        au = masks[a] & u_mask
        if au.bit_count() < x:
            continue
        i = resume.get(au, 0)
        while i < len(members):
            b = members[i]
            if b != a and b not in used and (au & free[i]).bit_count() >= x:
                used.update((a, b))
                triples.append((a, b, frozenset(vertices_of(au & free[i])[:x])))
                break
            i += 1
        resume[au] = i
    return TripleFamily(anchor, tuple(triples), x)


@dataclass(frozen=True)
class ExtractionParams:
    """Tuning constants for the extraction driver.

    Desk-scale defaults keep every procedure's postcondition checkable on
    instances with a few thousand edges; ``paper_scale`` builds the
    asymptotic constants (t = 2*ceil(sqrt(k)), x = 10t, d = 1/(8k)) for
    documentation runs. With ``paper_constants`` set, :func:`density_increment_run`
    replaces the params, locally and on its trace, with ``paper_scale(k, seed=...,
    budget_ms=...)`` right after its input check.
    """

    t: int = 4
    x: int = 4
    d: Optional[Fraction] = None  # None: measured threshold-graph density
    seed: int = DEFAULT_SEED
    budget_ms: Optional[float] = None
    paper_constants: bool = False

    def __post_init__(self):
        if self.t < 2 or self.x < 1:
            raise InvalidParameterError("need t >= 2 and x >= 1")

    @classmethod
    def paper_scale(
        cls, k: int, seed: int = DEFAULT_SEED, budget_ms: Optional[float] = None
    ) -> "ExtractionParams":
        t = 2 * (isqrt(k - 1) + 1)  # 2 * ceil(sqrt(k))
        return cls(t=t, x=10 * t, d=Fraction(1, 8 * k), seed=seed, budget_ms=budget_ms, paper_constants=True)


@dataclass(frozen=True)
class TraceLevel:
    """One driver level; its lambda, X, Y, validation and notes are those
    of ``pair``. ``timings`` (ms, filled in as the level runs): ``elapsed_ms``
    for the lambda-pair extraction, ``triple_family_ms`` and ``growth_ms``
    (branch, core growth, next pool), which stay 0 if the level stops first."""

    pair: LambdaPair
    branch: str  # how this level's pool was reached
    pool_size: int
    extractor: str
    timings: dict[str, float]


@dataclass
class IncrementTrace:
    params: ExtractionParams
    levels: list[TraceLevel] = field(default_factory=list)
    identity_checks: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    stop_reason: str = ""
    witness_coloring: Optional[tuple[int, ...]] = None

    def lambdas(self) -> list[int]:
        return [lvl.pair.lam for lvl in self.levels]

    def to_json(self) -> dict:
        levels = []
        for lvl in self.levels:
            pair = lvl.pair
            levels.append({
                "lambda": pair.lam,
                "branch": lvl.branch,
                "pool_size": lvl.pool_size,
                "x_size": len(pair.x),
                "y_size": len(pair.y),
                "validated": pair.validated,
                "extractor": lvl.extractor,
                "notes": list(pair.notes),
                "timings": dict(lvl.timings),
            })
        p = self.params
        # A paper-constants run stopped by the input check never learns k,
        # so it has no t, x or d.
        unscaled = p.paper_constants and self.stop_reason == INPUT_CHECK_STOP
        return {
            "params": {
                "t": None if unscaled else p.t,
                "x": None if unscaled else p.x,
                "d": None if unscaled or p.d is None else str(p.d),
                "seed": p.seed,
                "paper_constants": p.paper_constants,
            },
            "levels": levels,
            "identity_checks": self.identity_checks,
            "notes": self.notes,
            "stop_reason": self.stop_reason,
            "witness_coloring": list(self.witness_coloring)
            if self.witness_coloring is not None
            else None,
        }


def _find_small_subset(
    h: Hypergraph, candidates: list[int], lam: int, t: int
) -> Optional[tuple[int, ...]]:
    """A t-subset with pairwise sizes <= lam, or None.

    Greedy accretion from each start point in index order; deterministic,
    with the total number of pair checks capped at ``SEARCH_TRIES``.
    """
    masks = h.edge_masks
    cands = sorted(candidates)
    checks = 0
    for start in range(len(cands)):
        sub = [cands[start]]
        for c in cands[start + 1 :]:
            checks += 1
            if checks > SEARCH_TRIES:
                return None
            if _pairwise_at_most(masks, (*sub, c), lam):
                sub.append(c)
                if len(sub) == t:
                    return tuple(sub)
    return None


class _Stop(Exception):
    """Ends a driver run; the message is the trace's stop reason."""


def _pool_through(h: Hypergraph, core: Iterable[int]) -> tuple[list[int], dict[int, int]]:
    """The edges containing ``core`` and their pair counts."""
    pool = list(vertices_of(_containing_mask(h, core)))
    return pool, _pool_pair_counts(h, pool)


def _same_intersection_step(
    h: Hypergraph, k: int, pair: LambdaPair, family: TripleFamily
) -> tuple[list[int], dict[int, int]]:
    """Concentrated route: take the most popular core of the anchor's
    overlap with the first Y edge outside ``family`` and grow it greedily
    until the common set is larger than the current lambda. Returns the
    edges containing the grown set and their pair counts; a missing
    disjoint edge raises :class:`NoDisjointEdgeError` with its witness."""
    used = {e for a, b, _ in family.triples for e in (a, b)}
    # Fewer than |Y|/4 triples use fewer than |Y|/2 edges, so one is left.
    first = min(e for e in pair.y if e not in used)
    overlap = h.edge_masks[first] & h.edge_masks[family.anchor]
    x_width = family.x
    core: frozenset[int] = frozenset()
    if pair.lam >= x_width and overlap.bit_count() > x_width:
        subsets = combinations(vertices_of(overlap), overlap.bit_count() - x_width)
        core = frozenset(max(subsets, key=lambda sub: _containing_mask(h, sub).bit_count()))
    # first lies in Y and the anchor in X, so they meet in at most k - 1
    # vertices and at least one vertex is left to grow. The grown set has
    # min(|overlap| + 1, k) or min(x + 1, k) > lam vertices (|overlap| >= lam).
    grown = greedy_increase(h, core, min(x_width + 1, k - len(core)))
    return _pool_through(h, grown.final_set)


def _certify_spread(
    h: Hypergraph, k: int, lam: int, xi: frozenset[int], group: list[tuple[int, int]], t: int,
    trace: IncrementTrace,
) -> Optional[str]:
    """Record the averaging identity and the exclusive-common-vertex
    inequality of the same-X' ``group`` in ``trace`` and return None, or
    return why not, recording nothing: t is odd or below 4, the group holds
    fewer than t triples, or its A or B edges have no small t-subset."""
    # The split needs two edges per side, hence an even t of at least 4.
    if t % 2 or t < 4:
        return f"t={t} is not an even number of at least 4"
    if len(group) < t:
        return f"the group's size {len(group)} is below t={t}"
    s_full = _find_small_subset(h, [a for a, _ in group], lam, t)
    t_full = _find_small_subset(h, [b for _, b in group], lam, t)
    if s_full is None or t_full is None:
        return f"no {t}-subset of the group's A or B edges meets pairwise in at most {lam}"
    half = t // 2
    s_half, t_half = s_full[:half], t_full[:half]
    lam_s = lambda_within(h, s_half)
    lam_t = lambda_within(h, t_half)
    lam_st = lambda_across(h, s_half, t_half)
    lam_union = lambda_within(h, s_half + t_half)
    lhs = comb(half, 2) * (lam_s + lam_t) + half * half * lam_st
    rhs = comb(2 * half, 2) * lam_union
    avg = check_average_lambda(h, s_half, t_half, xi)
    trace.identity_checks.append(
        {
            "level_lambda": lam,
            "union_identity_lhs": str(lhs),
            "union_identity_rhs": str(rhs),
            "union_identity_holds": lhs == rhs,
            "average_lambda_holds": avg.holds,
            "average_lambda_slack": str(avg.slack),
            "lambda_union": str(lam_union),
            "separation_target": f"{lam} - 2*sqrt({k})",
            "separation_value": float(lam_union) - (lam - 2 * sqrt(k)),
        }
    )
    return None


def _spread_out_step(
    h: Hypergraph, k: int, pair: LambdaPair, family: TripleFamily, t: int, trace: IncrementTrace
) -> tuple[list[int], dict[int, int]]:
    """Spread route: certify the largest same-X' group of ``family`` (see
    :func:`_certify_spread`), note the outcome, then return the edges
    containing X' and their pair counts. X' lies in an A and the anchor, so
    those edges raise lambda when |X'| > lambda; when they do not, X' first
    grows to lambda + 1 <= k."""
    groups: dict[frozenset[int], list[tuple[int, int]]] = {}
    for a, b, xi in family.triples:
        groups.setdefault(xi, []).append((a, b))
    core = max(sorted(groups, key=sorted), key=lambda key: len(groups[key]))
    reason = _certify_spread(h, k, pair.lam, core, groups[core], t, trace)
    outcome = "certified numerically" if reason is None else f"not certified ({reason})"
    trace.notes.append(
        f"spread case at lambda={pair.lam} {outcome}; advancing via the popular "
        "anchor-subset superset route"
    )
    pool, counts = _pool_through(h, core)
    if len(pool) >= 2 and min(counts) > pair.lam:
        return pool, counts
    return _pool_through(h, greedy_increase(h, core, pair.lam + 1 - len(core)).final_set)


def _level(
    h: Hypergraph, k: int, params: ExtractionParams, trace: IncrementTrace,
    pool: list[int], counts: dict[int, int], branch: str,
) -> tuple[list[int], dict[int, int], str]:
    """One driver level: extract and record a lambda-pair at the minimum
    intersection of ``pool`` (reached by ``branch``), build the triple
    family and take one branch step. Returns the next pool, its pair
    counts and the branch that reached it; raises :class:`_Stop` when the
    run ends here."""
    start = time.monotonic()
    lam = min(counts)
    try:
        pair, extractor = find_lambda_pair_drc(h, pool, lam, params, counts), "drc"
    except NoQualifyingSubsetError as exc:  # lam is the minimum: no pair is lam-small
        trace.notes.append(f"drc extractor failed at lambda={lam}: {exc}")
        try:
            pair, extractor = find_lambda_pair_ramsey(h, pool, params.t, params.seed), "ramsey"
        except PoolExhaustedError as exc2:
            raise _Stop(f"no progress: extractors exhausted ({exc2})")
    # Extractors return lambda >= the pool's minimum, which exceeds the last
    # lambda. Y is nonempty: the DRC's best common neighborhood has a member,
    # and the majority filter's Y is its last nonempty bucket.
    assert pair.y and (not trace.levels or pair.lam > trace.levels[-1].pair.lam)
    timings = {"elapsed_ms": (time.monotonic() - start) * 1000.0, "triple_family_ms": 0.0, "growth_ms": 0.0}
    trace.levels.append(TraceLevel(pair, branch, len(pool), extractor, timings))
    if not pair.validated:
        raise _Stop("extracted pair failed validation")
    family_start = time.monotonic()
    family = build_triple_family(h, pair.y, min(pair.x), min(params.x, k))
    growth_start = time.monotonic()
    timings["triple_family_ms"] = (growth_start - family_start) * 1000.0
    try:
        if len(family.triples) < len(pair.y) / 4:
            branch = "same-intersection"
            pool, counts = _same_intersection_step(h, k, pair, family)
        else:
            branch = "spread-out"
            pool, counts = _spread_out_step(h, k, pair, family, params.t, trace)
        if len(pool) < 2:
            raise _Stop("no progress: next pool has fewer than two edges")
        return pool, counts, branch
    finally:
        timings["growth_ms"] = (time.monotonic() - growth_start) * 1000.0


def density_increment_run(h: Hypergraph, params: ExtractionParams) -> IncrementTrace:
    """Run the density-increment loop at desk scale.

    Per level (:func:`_level`): extract a validated lambda-pair (dependent
    random choice first, the majority-filter extractor as fallback), anchor
    an edge of X, build the greedy maximal triple family over Y, then
    branch. A small family (< |Y|/4) follows the concentrated route
    (:func:`_same_intersection_step`): take the popular anchor-overlap core
    among the untouched Y edges and grow it greedily until the common set
    is larger than the current lambda, recursing on the edges that contain
    it. A large family follows the spread route
    (:func:`_spread_out_step`): where it can, the largest same-X' group
    yields S and T whose averaging identity and exclusive-common-vertex
    inequality are certified exactly, and the driver advances through the
    edges containing X'. In the source argument the spread case ends in a
    contradiction rather than a construction; the executable driver
    records the certified inequalities as evidence and continues via the
    concentrated-style superset route, noting whether it certified.

    Each lambda is an intersection size of ``h`` and strictly rises, so a
    run has at most |I(H)| levels. It stops on the input check (uniform,
    two edges), budget exhausted, extractors exhausted, a pair failing
    validation (a self-check), a next pool of fewer than two edges, or no
    disjoint edge in greedy growth, which 2-colors ``h`` (witness kept).
    """
    trace = IncrementTrace(params=params)
    # The edge count comes first: is_uniform raises on a 0-edge input.
    k = is_uniform(h) if h.num_edges >= 2 else None
    if k is None:
        trace.stop_reason = INPUT_CHECK_STOP
        return trace
    if params.paper_constants:
        trace.params = params = ExtractionParams.paper_scale(k, seed=params.seed, budget_ms=params.budget_ms)
        trace.notes.append("asymptotic constants requested; demands are documentation only")
    else:
        trace.notes.append("desk-scale thresholds: measured density, fraction-based demands")
    budget = Budget(ms=params.budget_ms)
    pool = list(range(h.num_edges))
    counts = _pool_pair_counts(h, pool)  # counted once per pool
    branch = "initial"
    try:
        while budget.step():
            pool, counts, branch = _level(h, k, params, trace, pool, counts, branch)
        trace.stop_reason = "budget exhausted"
    except _Stop as stop:
        trace.stop_reason = str(stop)
    except NoDisjointEdgeError as exc:
        trace.witness_coloring = exc.witness_coloring
        trace.stop_reason = "no progress: no disjoint edge; 2-coloring witness recorded"
    return trace
