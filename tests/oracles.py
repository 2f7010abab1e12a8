"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the package's bitmask kernels: sets of frozensets,
exhaustive enumeration, and Fraction arithmetic only, so a bug in the fast
paths cannot hide in the tests that check them.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Iterable, Optional, Sequence


def read_hg(text: str) -> tuple[int, list[frozenset[int]]]:
    """Vertex count and edges of ``.hg`` text: a "n m" header after any '#'
    comment lines, then one edge per line."""
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return int(rows[0][0]), [frozenset(map(int, row)) for row in rows[1:]]


def strip_timings(payload):
    """``payload`` without its ``timings`` keys, at every depth."""
    if isinstance(payload, dict):
        return {k: strip_timings(v) for k, v in payload.items() if k != "timings"}
    if isinstance(payload, list):
        return [strip_timings(v) for v in payload]
    return payload


def naive_spectrum(edges: Sequence[Iterable[int]]) -> dict[int, int]:
    sets = [frozenset(e) for e in edges]
    counts: Counter[int] = Counter()
    for a, b in combinations(sets, 2):
        counts[len(a & b)] += 1
    return dict(counts)


def naive_cross_spectrum(
    left: Sequence[Iterable[int]], right: Sequence[Iterable[int]]
) -> dict[int, int]:
    """Intersection-size counts over all pairs (a, b), a in left, b in right."""
    counts = Counter(len(frozenset(a) & frozenset(b)) for a in left for b in right)
    return dict(counts)


def naive_is_intersecting(edges: Sequence[Iterable[int]]) -> bool:
    sets = [frozenset(e) for e in edges]
    return all(a & b for a, b in combinations(sets, 2))


def exhaustive_two_coloring(
    n: int, edges: Sequence[Iterable[int]]
) -> Optional[tuple[int, ...]]:
    """First proper 2-coloring in lexicographic order, or None."""
    assert n <= 22, "oracle is exponential in n"
    sets = [frozenset(e) for e in edges]
    for colors in product((0, 1), repeat=n):
        if all(len({colors[v] for v in e}) > 1 for e in sets):
            return colors
    return None


def _brute_colorable(vertices: Iterable, edges: Iterable[Iterable]) -> bool:
    index = {x: i for i, x in enumerate(vertices)}
    return exhaustive_two_coloring(len(index), [{index[x] for x in e} for e in edges]) is not None


def check_module_certificate(n: int, edges: Sequence[Iterable[int]], certificate: dict) -> bool:
    """Re-verify the JSON certificate of ``color`` on the input edges and
    return whether it shows the input 2-colorable; AssertionError otherwise.

    A vertex of a round's hypergraph is the frozenset of input vertices it
    stands for. Each module must be a union of at least two such vertices,
    disjoint from the round's other modules, and a module: grouping the
    edges that meet it by their part outside it gives every group the same
    trace set. Its traces must be the listed ones, and brute force must give
    its verdict. The round's modules then apply at once: a colorable one
    goes with every edge on it, any other merges into one vertex. After the
    last round the listed quotient must be exactly what is left, and brute
    force decides it."""
    assert all(0 <= v < n for e in edges for v in e)
    current = {frozenset(frozenset({v}) for v in e) for e in edges}
    for modules in certificate["rounds"]:
        names = frozenset().union(*current)
        rename: dict[frozenset, frozenset] = {}
        dropped: set[frozenset] = set()
        seen: set[frozenset] = set()
        for module in modules:
            verts = frozenset(module["vertices"])
            members = frozenset(x for x in names if x <= verts)
            assert len(members) >= 2 and frozenset().union(*members) == verts, "not a union of vertices"
            assert not members & seen, "modules overlap"
            seen |= members
            groups: dict[frozenset, set[frozenset]] = {}
            for e in current:
                if e & members:
                    groups.setdefault(e - members, set()).add(e & members)
            traces = next(iter(groups.values()))
            assert all(g == traces for g in groups.values()), "not a module"
            listed = {frozenset(f) for f in module["traces"]}
            assert {frozenset().union(*f) for f in traces} == listed, "traces differ"
            colorable = _brute_colorable(members, traces)
            assert colorable == (module["verdict"] == "colorable"), "wrong verdict"
            if colorable:
                dropped |= members
            else:
                rename.update(dict.fromkeys(members, verts))
        current = {frozenset(rename.get(x, x) for x in e) for e in current if not e & dropped}
    vertices = [frozenset(v) for v in certificate["quotient"]["vertices"]]
    quotient = [frozenset(vertices[i] for i in e) for e in certificate["quotient"]["edges"]]
    assert len(set(vertices)) == len(vertices) and set(vertices) == frozenset().union(*current), "wrong quotient vertices"
    assert len(set(quotient)) == len(quotient) and set(quotient) == current, "wrong quotient edges"
    return _brute_colorable(vertices, quotient)


def naive_cover_number(n: int, edges: Sequence[Iterable[int]]) -> int:
    sets = [frozenset(e) for e in edges]
    if not sets:
        return 0
    for size in range(n + 1):
        for cover in combinations(range(n), size):
            chosen = set(cover)
            if all(e & chosen for e in sets):
                return size
    raise AssertionError("unreachable: the full vertex set covers everything")


def naive_lambda_within(edges: Sequence[Iterable[int]], idx: Iterable[int]) -> Fraction:
    sets = [frozenset(edges[i]) for i in sorted(set(idx))]
    pairs = [(a, b) for a, b in combinations(sets, 2)]
    return Fraction(sum(len(a & b) for a, b in pairs), len(pairs))


def naive_lambda_across(
    edges: Sequence[Iterable[int]], s: Iterable[int], t: Iterable[int]
) -> Fraction:
    s_sets = [frozenset(edges[i]) for i in sorted(set(s))]
    t_sets = [frozenset(edges[i]) for i in sorted(set(t))]
    total = sum(len(a & b) for a in s_sets for b in t_sets)
    return Fraction(total, len(s_sets) * len(t_sets))


def mono_edge_count(edges: Sequence[Iterable[int]], colors: Sequence[int]) -> int:
    return sum(1 for e in edges if len({colors[v] for v in e}) == 1)


def naive_vertex_edge_masks(n: int, edges: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """For each vertex v < n, the sum of 2**i over the edges i that contain v."""
    sets = [frozenset(e) for e in edges]
    return tuple(sum(2**i for i, e in enumerate(sets) if v in e) for v in range(n))


def graph_adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Adjacency masks of the loop-free graph on n vertices with ``edges``:
    bit v of entry u is set iff (u, v) or (v, u) is an edge."""
    adj = [0] * n
    for u, v in edges:
        assert u != v, f"loop at vertex {u}"
        assert 0 <= u < n and 0 <= v < n, f"edge ({u}, {v}) out of range"
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def naive_greedy_increase(
    n: int, edges: Sequence[Iterable[int]], start: Iterable[int], steps: int
) -> tuple[Optional[list[tuple[int, int, int, int]]], frozenset[int], object]:
    """The greedy growth rule by set scans: ``(steps, final set, fraction)``,
    each step ``(added vertex, disjoint edge, count before, count after)``;
    or ``(None, set, witness coloring)`` once no edge misses the set. Each
    round takes the first edge missing the set and adds its vertex lying in
    the most edges together with the set, ties to the smallest vertex."""
    sets = [frozenset(e) for e in edges]
    cur = set(start)
    base = count = sum(1 for e in sets if cur <= e)
    trace = []
    for _ in range(steps):
        disjoint = next((i for i, e in enumerate(sets) if not e & cur), None)
        if disjoint is None:
            return None, frozenset(cur), tuple(0 if v in cur else 1 for v in range(n))
        best_v, best = -1, -1
        for v in sorted(sets[disjoint]):
            c = sum(1 for e in sets if cur | {v} <= e)
            if c > best:
                best_v, best = v, c
        trace.append((best_v, disjoint, count, best))
        cur.add(best_v)
        count = best
    return trace, frozenset(cur), Fraction(count, base) if base else Fraction(1)


def refute_stream(seed: int) -> random.Random:
    """The generator of sampled refutation, spelled out: ``rng.substream(seed,
    "refute")`` seeds ``random.Random`` with this string."""
    return random.Random(f"{seed:#x}/refute")


def naive_refute(
    n: int, edges: Sequence[Iterable[int]], trials: int, seed: int
) -> tuple[int, int]:
    """(trials with a monochromatic edge, monochromatic edges summed over
    trials) for colorings drawn as ``getrandbits(n)`` from the seed's
    "refute" substream, one draw per trial, bit v giving the color of vertex v."""
    rng = refute_stream(seed)
    sets = [frozenset(e) for e in edges]
    mono_trials = total = 0
    for _ in range(trials):
        bits = rng.getrandbits(n)
        ones = frozenset(v for v in range(n) if bits >> v & 1)
        count = sum(1 for e in sets if e <= ones or not e & ones)
        mono_trials += count > 0
        total += count
    return mono_trials, total


def counting_dpll(
    n: int, edges: Sequence[Iterable[int]], budget_nodes: Optional[int] = None
) -> tuple[str, Optional[tuple[int, ...]], int, Optional[str]]:
    """Recursive DPLL with per-edge color counts, following the solver's
    trajectory: the vertices in some edge by descending degree then index,
    color 0 before color 1, only color 0 at the first decision, one node per
    decision, the node past ``budget_nodes`` counted before giving up, and
    color 0 for every vertex in no edge.

    Returns (status, coloring or None, nodes, "nodes" or None)."""
    sets = [frozenset(e) for e in edges]
    vert_edges = [[e for e in sets if v in e] for v in range(n)]
    order = sorted((v for v in range(n) if vert_edges[v]), key=lambda v: (-len(vert_edges[v]), v))
    assign: dict[int, int] = {}
    nodes = 0

    class Tripped(Exception):
        pass

    def propagate(v0: int, c0: int) -> Optional[list[int]]:
        """Assigned vertices in order, or None (with nothing kept) on a conflict."""
        trail: list[int] = []
        queue = [(v0, c0)]
        ok = True
        while queue and ok:
            v, c = queue.pop(0)
            if v in assign:
                ok = assign[v] == c
                continue
            assign[v] = c
            trail.append(v)
            for e in vert_edges[v]:
                counts = Counter(assign.get(u) for u in e)
                if counts[c] == len(e):
                    ok = False
                    break
                if counts[c] == len(e) - 1 and counts[1 - c] == 0:
                    queue.extend((u, 1 - c) for u in e if u not in assign)
        if ok:
            return trail
        for v in trail:
            del assign[v]
        return None

    def search(pos: int, first: bool) -> bool:
        nonlocal nodes
        while pos < len(order) and order[pos] in assign:
            pos += 1
        if pos == len(order):
            return True
        nodes += 1
        if budget_nodes is not None and nodes > budget_nodes:
            raise Tripped
        for c in (0,) if first else (0, 1):
            trail = propagate(order[pos], c)
            if trail is None:
                continue
            if search(pos + 1, False):
                return True
            for v in trail:
                del assign[v]
        return False

    try:
        found = search(0, True)
    except Tripped:
        return "unknown", None, nodes, "nodes"
    if not found:
        return "not_colorable", None, nodes, None
    return "colorable", tuple(assign.get(v, 0) for v in range(n)), nodes, None


def naive_min_spectrum_search(
    k: int, n: int, budget_nodes: Optional[int] = None
) -> tuple[Optional[int], Optional[tuple[int, list[frozenset[int]]]], int, bool, Optional[str]]:
    """Recursive reference for the exhaustive minimum-spectrum search.

    For each target 1, ..., k-1 in turn it extends edge {0, ..., k-1} in
    lexicographic edge order, depth first, keeping families that are
    intersecting, introduce new vertices consecutively and have at most
    ``target`` intersection sizes. One node is counted per family visited,
    the node past ``budget_nodes`` included, and every family with at least
    2^(k-1) edges is checked by :func:`exhaustive_two_coloring`. The first
    non-2-colorable family ends the search.

    Returns (spectrum size of the witness, witness as (vertex count, edges
    in the order chosen), nodes, whether the search was exhaustive, "nodes"
    or None)."""
    all_edges = [frozenset(e) for e in combinations(range(n), k)]
    nodes = 0

    class Tripped(Exception):
        pass

    def extend(chosen, sizes, used, start, target):
        nonlocal nodes
        nodes += 1
        if budget_nodes is not None and nodes > budget_nodes:
            raise Tripped
        if len(chosen) >= 2 ** (k - 1) and exhaustive_two_coloring(used, chosen) is None:
            return used, chosen
        for ci in range(start, len(all_edges)):
            edge = all_edges[ci]
            fresh = sorted(v for v in edge if v >= used)
            if fresh != list(range(used, used + len(fresh))):
                continue
            inters = {len(edge & e) for e in chosen}
            if 0 in inters or len(sizes | inters) > target:
                continue
            found = extend(chosen + [edge], sizes | inters, max(used, max(edge) + 1), ci + 1, target)
            if found is not None:
                return found
        return None

    try:
        for target in range(1, k):
            found = extend([all_edges[0]], set(), k, 1, target)
            if found is not None:
                return len(naive_spectrum(found[1])), found, nodes, True, None
    except Tripped:
        return None, None, nodes, False, "nodes"
    return None, None, nodes, True, None


def brute_min_spectrum(k: int, n: int) -> Optional[int]:
    """Fewest distinct intersection sizes over every intersecting,
    non-2-colorable family of k-subsets of range(n), or None when there is
    none. Backtracks over all intersecting families in edge-index order."""
    edges = [frozenset(e) for e in combinations(range(n), k)]
    best: Optional[int] = None

    def grow(family: list[frozenset[int]], start: int) -> None:
        nonlocal best
        if len(family) >= 2 and exhaustive_two_coloring(n, family) is None:
            size = len(naive_spectrum(family))
            best = size if best is None else min(best, size)
        for i in range(start, len(edges)):
            if all(edges[i] & e for e in family):
                grow(family + [edges[i]], i + 1)

    grow([], 0)
    return best


def naive_triple_family(
    edges: Sequence[Iterable[int]], pool: Iterable[int], anchor: int, x: int
) -> tuple[tuple[tuple[int, int, frozenset[int]], ...], bool]:
    """The greedy triple family by its rule, restarting the scan over the
    whole pool for every A: each unused A in pool order with at least x
    anchor vertices takes the first unused B != A that leaves x of them
    free, with X the x smallest. Also returns whether no pair of the members
    left unused could still be admitted."""
    members = sorted(set(pool))
    sets = [frozenset(e) for e in edges]
    u = sets[anchor]
    used: set[int] = set()
    triples = []
    for a in members:
        if a in used or len(sets[a] & u) < x:
            continue
        for b in members:
            if b == a or b in used:
                continue
            free = sorted((sets[a] & u) - sets[b])
            if len(free) >= x:
                used.update((a, b))
                triples.append((a, b, frozenset(free[:x])))
                break
    unused = [e for e in members if e not in used]
    # An A with fewer than x anchor vertices leaves fewer than x free for any B.
    wide = [a for a in unused if len(sets[a] & u) >= x]
    stuck = all(len((sets[a] & u) - sets[b]) < x for a in wide for b in unused if a != b)
    return tuple(triples), stuck


# -- generators drawn one subset at a time ----------------------------------
#
# The package draws these subsets in ``rng.distinct_subsets``; these loops
# spell out its rule one subset at a time, to pin its edges and generator
# state. Edges are ascending vertex tuples; hypergraphs are (n, edges) pairs.


def naive_random_subset(rng: random.Random, population: Sequence[int], k: int) -> tuple[int, ...]:
    """k distinct members of ``population``, ascending: redraw
    ``getrandbits(len(population).bit_length())`` until k distinct values
    below the length are collected."""
    n = len(population)
    picked: list[int] = []
    while len(picked) < k:
        j = rng.getrandbits(n.bit_length())
        if j < n and population[j] not in picked:
            picked.append(population[j])
    return tuple(sorted(picked))


def naive_random_family(
    rng: random.Random, n: int, k: int, ell: int, forbidden: set[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    seen = set(forbidden)
    while len(out) < ell:
        edge = naive_random_subset(rng, range(n), k)
        if edge not in seen:
            seen.add(edge)
            out.append(edge)
    return out


def naive_random_uniform(n: int, k: int, m: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"{seed:#x}/random-uniform")
    return naive_random_family(rng, n, k, m, set())


def naive_random_pair_instance(rng: random.Random):
    n = rng.randint(5, 12)
    k = rng.randint(2, min(5, n))
    kp = rng.randint(2, min(5, n))
    cap = min(comb(n, k), comb(n, kp), 15)
    ell = rng.randint(1, cap)
    return (n, naive_random_family(rng, n, k, ell, set())), (n, naive_random_family(rng, n, kp, ell, set()))


def naive_planted_average_instance(rng: random.Random, x: int):
    k = rng.randint(max(2, x + 1), x + 5)
    ell = rng.randint(2, 6)
    n = x + k + ell + rng.randint(2, 6)
    w = tuple(range(x))
    rest = range(x, n)
    s_edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(s_edges) < ell:
        edge = w + naive_random_subset(rng, rest, k - x)
        if edge not in seen:
            seen.add(edge)
            s_edges.append(edge)
    t_edges: list[tuple[int, ...]] = []
    while len(t_edges) < ell:
        edge = naive_random_subset(rng, rest, k)
        if edge not in seen:
            seen.add(edge)
            t_edges.append(edge)
    return (
        (n, s_edges + t_edges),
        frozenset(range(ell)),
        frozenset(range(ell, 2 * ell)),
        frozenset(w),
    )
