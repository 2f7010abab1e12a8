"""Generators for the hypergraph families used throughout the package.

The product construction (`compose`) places one disjoint copy of the inner
vertex set on every outer vertex and expands each outer edge into all ways
of choosing one inner edge per copy; iterating it on the Fano plane gives
the classical 3^m-uniform intersecting families with 7^((3^m-1)/2) edges
whose spectrum is the odd numbers up to 3^m - 2.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from operator import lshift
from typing import Optional

from .core import Hypergraph, is_uniform, vertices_of
from .errors import (
    InvalidParameterError,
    NonUniformError,
    SizeCapExceededError,
    TooManyEdgesRequestedError,
)
from .rng import DEFAULT_SEED, distinct_subsets, substream

__all__ = [
    "DEFAULT_SIZE_CAP",
    "FAMILY_PARAMS",
    "fano",
    "compose",
    "iterated_fano",
    "complete_subsets",
    "ramsey_clique_hypergraph",
    "random_uniform",
    "build_construction",
]

# Blocks accidental iterate-once-more explosions (7^13 edges) while leaving
# every desk-scale family comfortable.
DEFAULT_SIZE_CAP = 10**7

# The --param keys each family reads, in its generator's argument order.
FAMILY_PARAMS = {
    "fano": (),
    "iterated-fano": ("m",),
    "complete-subsets": ("n", "k"),
    "ramsey-clique": ("n", "k"),
    "random-uniform": ("n", "k", "m"),
    "compose": (),
}


def _power_above(factor: int, base: int, exp: int, cap: int) -> bool:
    """factor * base**exp > cap for factor, base >= 1. For base >= 2, base**e is
    over the cap once e reaches the cap's bit length, so the exponent is cut there."""
    return factor * base ** min(exp, cap.bit_length()) > cap


def _comb_above(n: int, k: int, cap: int) -> bool:
    """C(n, k) > cap for 0 <= k <= n, growing C(n, i) one factor at a time. Up to
    i = min(k, n - k) it rises and is at least 2^i, so it passes the cap early."""
    c, i, top = 1, 0, min(k, n - k)
    while c <= cap and i < top:
        c, i = c * (n - i) // (i + 1), i + 1
    return c > cap


def fano() -> Hypergraph:
    """The projective plane of order 2 in its difference-set labeling:
    lines {i, i+1, i+3} mod 7."""
    return Hypergraph(7, [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)])


def compose(outer: Hypergraph, inner: Hypergraph, size_cap: int = DEFAULT_SIZE_CAP) -> Hypergraph:
    """Product of two uniform hypergraphs.

    Vertex (a, b) is numbered a * inner.num_vertices + b (copy-major), so
    serialized output is reproducible bit-exactly. The result is
    (k1*k2)-uniform with m1 * m2^k1 edges, sorted lexicographically.
    """
    k1 = is_uniform(outer)
    k2 = is_uniform(inner)
    if k1 is None or k2 is None:
        raise NonUniformError("compose needs uniform factors")
    if _power_above(outer.num_edges, inner.num_edges, k1, size_cap):
        raise SizeCapExceededError(
            f"composition would have {outer.num_edges}*{inner.num_edges}^{k1} edges, cap is {size_cap}"
        )
    n2 = inner.num_vertices
    masks: list[int] = []
    for outer_mask in outer.edge_masks:
        # Copy a holds bits a * n2 to a * n2 + n2 - 1; the copies are disjoint, so the sum is the union.
        shifts = [a * n2 for a in vertices_of(outer_mask)]
        masks.extend(sum(map(lshift, choice, shifts)) for choice in product(inner.edge_masks, repeat=k1))
    masks.sort(key=vertices_of)
    return Hypergraph.from_masks(outer.num_vertices * n2, masks)


def iterated_fano(m: int, size_cap: int = DEFAULT_SIZE_CAP) -> Hypergraph:
    """m-fold Fano product: 3^m-uniform with 7^((3^m - 1) // 2) edges.

    m = 0 is the single-edge 1-uniform hypergraph, m = 1 the Fano plane.
    """
    if m < 0:
        raise InvalidParameterError("iteration count must be non-negative")
    # (3^m - 1)/2 >= m, so any m past the cap's bit length is over it.
    if _power_above(1, 7, (3 ** min(m, size_cap.bit_length()) - 1) // 2, size_cap):
        raise SizeCapExceededError(
            f"iterated Fano at m={m} would have 7^((3^{m} - 1)/2) edges, cap is {size_cap}"
        )
    if m == 0:
        return Hypergraph(1, [{0}])
    h = fano()
    for _ in range(m - 1):
        h = compose(fano(), h, size_cap=size_cap)
    return h


def complete_subsets(n: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> Hypergraph:
    """All k-subsets of [n]. Intersecting iff n <= 2k - 1."""
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if _comb_above(n, k, size_cap):
        raise SizeCapExceededError(f"C({n},{k}) exceeds cap {size_cap}")
    return Hypergraph(n, combinations(range(n), k))


def ramsey_clique_hypergraph(n: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> Hypergraph:
    """Vertices are the (k-1)-subsets of [n]; each k-subset of [n] becomes
    the edge consisting of its k (k-1)-subsets.

    k-uniform; for n > k the spectrum is {0, 1} because two distinct
    k-sets share at most one (k-1)-subset.
    """
    if k < 2 or n < k:
        raise InvalidParameterError(f"need k >= 2 and n >= k, got n={n}, k={k}")
    if _comb_above(n, k - 1, size_cap) or _comb_above(n, k, size_cap):
        raise SizeCapExceededError("vertex or edge count exceeds cap")
    vertex_index = {c: i for i, c in enumerate(combinations(range(n), k - 1))}
    edges = [
        [vertex_index[sub] for sub in combinations(clique, k - 1)]
        for clique in combinations(range(n), k)
    ]
    return Hypergraph(len(vertex_index), edges)


def random_uniform(
    n: int, k: int, m: int, seed: int, size_cap: int = DEFAULT_SIZE_CAP
) -> Hypergraph:
    """m distinct uniformly random k-subsets of [n], drawn from the
    ``"random-uniform"`` substream of ``seed``."""
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if m < 0:
        raise InvalidParameterError(f"need m >= 0 edges, got m={m}")
    if not _comb_above(n, k, m - 1):
        raise TooManyEdgesRequestedError(f"asked for {m} edges, only C({n},{k})={comb(n, k)} exist")
    if m > size_cap:
        raise SizeCapExceededError(f"{m} edges exceed cap {size_cap}")
    return Hypergraph.from_masks(n, distinct_subsets(substream(seed, "random-uniform"), 0, n, k, m))


def build_construction(
    family: str,
    params: dict[str, int],
    seed: Optional[int] = None,
    inputs: tuple[Hypergraph, ...] = (),
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Hypergraph:
    """Build ``family`` from its ``FAMILY_PARAMS`` keys in ``params``.

    Only ``random-uniform`` reads ``seed`` (``DEFAULT_SEED`` when None). A
    key the family does not read, input hypergraphs given to any family but
    ``compose``, or a seed given to any family but ``random-uniform`` raise
    :class:`InvalidParameterError`.
    """
    if family not in FAMILY_PARAMS:
        raise InvalidParameterError(f"unknown family {family!r}; choose from {tuple(FAMILY_PARAMS)}")
    unread = sorted(params.keys() - FAMILY_PARAMS[family])
    if unread:
        raise InvalidParameterError(f"family {family!r} reads no --param {', '.join(unread)}")
    for key in FAMILY_PARAMS[family]:
        if key not in params:
            raise InvalidParameterError(f"family {family!r} needs --param {key}=<int>")
    args = [params[key] for key in FAMILY_PARAMS[family]]
    if family == "compose":
        if len(inputs) != 2:
            raise InvalidParameterError("compose needs --left and --right input files")
    elif inputs:
        raise InvalidParameterError(f"family {family!r} reads no input files; only compose does")
    if family == "random-uniform":
        return random_uniform(*args, DEFAULT_SEED if seed is None else seed, size_cap=size_cap)
    if seed is not None:
        raise InvalidParameterError(f"family {family!r} reads no --seed; only random-uniform does")
    if family == "compose":
        return compose(*inputs, size_cap=size_cap)
    if family == "fano":
        if size_cap < 7:
            raise SizeCapExceededError(f"the Fano plane has 7 edges, cap is {size_cap}")
        return fano()
    if family == "iterated-fano":
        return iterated_fano(*args, size_cap=size_cap)
    if family == "complete-subsets":
        return complete_subsets(*args, size_cap=size_cap)
    return ramsey_clique_hypergraph(*args, size_cap=size_cap)
