"""Workloads of the hyperspec benchmark: input generators, op sequences and
output checks.

Each workload is a fixed sequence of CLI calls ("ops") over inputs that the
benchmark writes to ``.hg`` files. Every input and every op seed derives
from the workload seed, so one seed always gives the same calls.

- ``itf2``: the 9-uniform iterated Fano instance (49 vertices, 2401 edges,
  2,881,200 pairs). Spectrum, budgeted 2-coloring with 10k sampled
  colorings (64-bit masks, so sampling takes the numpy path) and the
  density-increment extraction. The pair kernel, the solver on dense
  vertices and the DRC sampling loops do the work; search does none.
- ``small``: exhaustive search for k = 3 on 7 vertices (finds the Fano
  plane), budgeted search for k = 4 on 8 vertices, and the lemma suite over
  2000 instances. Thousands of tiny solver calls, where per-call set-up
  counts; the pair kernel does almost nothing.
- ``wide``: a sparse, non-intersecting 8-uniform family on 400 vertices with
  2400 edges (about the same pair count as ``itf2``, but masks wider than
  64 bits), its spectrum and a 2-coloring with 2000 sampled colorings on the
  pure-Python path. ``is_intersecting`` exits after the first pair. A change
  that helps only 64-bit masks or only full intersecting scans shows no
  change here. Extraction rejects non-intersecting input, so it is not run.
  The last op colors a 3000-vertex, 50-edge, 3-uniform family, which the
  recursive solver cannot finish (``RecursionError``); it stays in the
  workload so that a fix shows as fewer failed ops.

Every exponential op is bounded by ``--budget-nodes``, never by a wall-clock
budget, so each run does the same work.

Run as a script to perform one timed set-up::

    python3 bench/workloads.py <workload> <seed> <dir>

It imports the package, builds the workload's inputs, writes them under
``<dir>`` and prints its timings as one JSON object, with the times of the
speed probes (``speed.py``) run before and after it.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("itf2", "small", "wide")

ITF2_SIZES = [1, 3, 5, 7]
ITF2_MULTIPLICITIES = [2117682, 612255, 129654, 21609]
LEMMA_INSTANCES = 2000
WIDE_VERTICES, WIDE_K, WIDE_EDGES = 400, 8, 2400
DEEP_VERTICES, DEEP_K, DEEP_EDGES = 3000, 3, 50
# Generous node budgets on ops that finish well inside them; they only make
# sure that no op can run unbounded.
NODE_CAP = "100000"


def import_package():
    """Import ``hyperspec`` from the checkout's ``src`` directory.

    Raises ImportError when the checkout has no package source, so the
    benchmark never measures some other installed copy.
    """
    if not (SRC / "hyperspec" / "__init__.py").is_file():
        raise ImportError(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hyperspec

    if Path(hyperspec.__file__).resolve().parent != SRC / "hyperspec":
        raise ImportError(f"imported hyperspec from {hyperspec.__file__}, not {SRC}")
    return hyperspec


# -- inputs ------------------------------------------------------------------


def hg_text(num_vertices: int, edges: list[tuple[int, ...]]) -> str:
    """Canonical ``.hg`` text: header, then lexicographically sorted edges."""
    lines = [f"{num_vertices} {len(edges)}"]
    lines.extend(" ".join(map(str, e)) for e in sorted(edges))
    return "\n".join(lines) + "\n"


def random_family(seed: int, name: str, n: int, k: int, m: int) -> list[tuple[int, ...]]:
    """m distinct random k-subsets of range(n).

    The benchmark's own generator: the package's ``random_uniform`` may
    change its seeding, which would silently change the input bytes.
    """
    rng = random.Random(f"bench/{name}/{seed}")
    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    while len(edges) < m:
        edge = tuple(sorted(rng.sample(range(n), k)))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return edges


def build_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Import the package, build and write the workload's inputs.

    Returns the set-up timings: the whole set-up, the package import, and
    the part spent in the package's constructions.
    """
    t0 = time.perf_counter()
    import_package()
    from hyperspec import constructions
    from hyperspec.core import serialize_hypergraph

    t1 = time.perf_counter()
    construct_s = 0.0
    if workload == "itf2":
        c0 = time.perf_counter()
        h = constructions.iterated_fano(2)
        construct_s = time.perf_counter() - c0
        (out_dir / "itf2.hg").write_text(serialize_hypergraph(h), encoding="utf-8")
    elif workload == "wide":
        wide = random_family(seed, "wide", WIDE_VERTICES, WIDE_K, WIDE_EDGES)
        deep = random_family(seed, "deep", DEEP_VERTICES, DEEP_K, DEEP_EDGES)
        (out_dir / "wide.hg").write_text(hg_text(WIDE_VERTICES, wide), encoding="utf-8")
        (out_dir / "deep.hg").write_text(hg_text(DEEP_VERTICES, deep), encoding="utf-8")
    t2 = time.perf_counter()
    return {"setup_s": t2 - t0, "import_s": t1 - t0, "construct_s": construct_s}


# -- reference values (computed outside the timed region) ----------------------


def read_hg(path: Path) -> tuple[int, list[tuple[int, ...]]]:
    """Minimal ``.hg`` reader, independent of the package's parser."""
    rows = [
        line.split()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    n, _ = map(int, rows[0])
    return n, [tuple(map(int, r)) for r in rows[1:]]


def reference_spectrum(n: int, edges: list[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    """Intersection spectrum from the incidence-matrix product A @ A.T.

    Row blocks keep the Gram matrix out of memory; float32 products of 0/1
    entries are exact for these sizes.
    """
    import numpy as np

    m = len(edges)
    a = np.zeros((m, n), dtype=np.float32)
    for i, e in enumerate(edges):
        a[i, list(e)] = 1.0
    counts = np.zeros(n + 1, dtype=np.int64)
    cols = np.arange(m)
    for lo in range(0, m, 256):
        hi = min(lo + 256, m)
        gram = a[lo:hi] @ a.T
        upper = cols[None, :] > np.arange(lo, hi)[:, None]
        counts += np.bincount(gram[upper].astype(np.int64), minlength=n + 1)
    sizes = [int(s) for s in np.nonzero(counts)[0]]
    return sizes, [int(counts[s]) for s in sizes]


# -- ops and checks ------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict, "Inputs"], list[str]]
    budgeted: bool = False
    # Exception type this op raises at present; it still counts as failed.
    known_failure: Optional[str] = None


@dataclass
class Inputs:
    """Input files of a run and the reference values checks compare with."""

    files: dict[str, tuple[int, list[tuple[int, ...]]]]
    spectra: dict[str, tuple[list[int], list[int]]]


def load_inputs(workload: str, out_dir: Path) -> Inputs:
    names = {"itf2": ["itf2"], "small": [], "wide": ["wide", "deep"]}[workload]
    files = {name: read_hg(out_dir / f"{name}.hg") for name in names}
    spectra = {name: reference_spectrum(*files[name]) for name in names if name != "deep"}
    return Inputs(files, spectra)


def _bichromatic(edges: list[tuple[int, ...]], coloring: list[int]) -> bool:
    return all(len({coloring[v] for v in e}) == 2 for e in edges)


def _two_colorable(n: int, edges: list[tuple[int, ...]]) -> bool:
    """Brute force over all 2-colorings; only for the tiny search witnesses."""
    masks = [sum(1 << v for v in e) for e in edges]
    return any(all(0 < m & c < m for m in masks) for c in range(1 << n))


def check_spectrum(name: str):
    def check(out: dict, inputs: Inputs) -> list[str]:
        n, edges = inputs.files[name]
        sizes, mults = inputs.spectra[name]
        problems = []
        if (out.get("sizes"), out.get("multiplicities")) != (sizes, mults):
            problems.append("spectrum differs from the incidence-matrix reference")
        if name == "itf2" and (sizes, mults) != (ITF2_SIZES, ITF2_MULTIPLICITIES):
            problems.append("itf2 reference spectrum differs from the known values")
        if out.get("intersecting") != (0 not in sizes):
            problems.append("intersecting flag disagrees with the spectrum")
        if out.get("k") != len(edges[0]):
            problems.append("reported uniformity is wrong")
        return problems

    return check


def check_color(name: str, trials: int):
    def check(out: dict, inputs: Inputs) -> list[str]:
        n, edges = inputs.files[name]
        status = out.get("status")
        problems = []
        if status not in ("colorable", "not_colorable", "unknown"):
            problems.append(f"unexpected status {status!r}")
        if status == "colorable":
            coloring = out.get("coloring")
            if (
                not isinstance(coloring, list)
                or len(coloring) != n
                or not set(coloring) <= {0, 1}
                or not _bichromatic(edges, coloring)
            ):
                problems.append("colorable witness fails the re-check")
        if name == "itf2":
            if status == "colorable":
                problems.append("itf2 reported colorable")
            if out.get("mono_fraction") != 1.0:
                problems.append("itf2 sampled a coloring without a monochromatic edge")
        if trials and not 0.0 <= out.get("mono_fraction", -1.0) <= 1.0:
            problems.append("mono_fraction outside [0, 1]")
        return problems

    return check


def check_extract(out: dict, inputs: Inputs) -> list[str]:
    levels = out.get("levels") or []
    lambdas = [lvl["lambda"] for lvl in levels]
    problems = []
    if not levels:
        problems.append("extraction produced no level")
    if not all(lvl["validated"] for lvl in levels):
        problems.append("an extraction level failed validation")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])) or not set(lambdas) <= set(ITF2_SIZES):
        problems.append(f"lambdas {lambdas} do not increase strictly within {ITF2_SIZES}")
    return problems


def check_search(k: int, n: int, budget: int, must_find: bool):
    def check(out: dict, inputs: Inputs) -> list[str]:
        problems = []
        witness = out.get("witness")
        if must_find and not (
            out.get("exhaustive") is True
            and out.get("best_spectrum_size") == 1
            and out.get("witness_edges") == 7
        ):
            problems.append("search did not prove the Fano plane minimal")
        if witness is not None:
            edges = [tuple(e) for e in witness]
            sizes = {len(set(a) & set(b)) for a, b in combinations(edges, 2)}
            if (
                len(edges) != out.get("witness_edges")
                or any(len(e) != k or max(e) >= n for e in edges)
                or 0 in sizes
                or len(sizes) != out.get("best_spectrum_size")
                or _two_colorable(n, edges)
            ):
                problems.append("search witness fails the re-check")
        if not 0 < out.get("nodes", 0) <= budget + 1:
            problems.append("search node count outside its budget")
        return problems

    return check


def check_verify(out: dict, inputs: Inputs) -> list[str]:
    expected = {"pass": LEMMA_INSTANCES, "fail": 0}
    ok = all(
        {key: out.get(suite, {}).get(key) for key in expected} == expected
        for suite in ("pair_inequality", "average_lambda")
    ) and out.get("greedy_increase", {}).get("fail") == 0
    return [] if ok else ["lemma suite reported a failing instance"]


def make_ops(workload: str, seed: int, out_dir: Path) -> list[Op]:
    s = str(seed)

    def path(name: str) -> str:
        return str(out_dir / f"{name}.hg")

    if workload == "itf2":
        return [
            Op("spectrum", ("spectrum", path("itf2")), check_spectrum("itf2")),
            Op(
                "color",
                ("color", path("itf2"), "--budget-nodes", "2000", "--trials", "10000", "--seed", s),
                check_color("itf2", 10000),
                budgeted=True,
            ),
            Op("extract", ("extract", path("itf2"), "--seed", s), check_extract),
        ]
    if workload == "small":
        return [
            Op(
                "search-k3n7",
                ("search", "--k", "3", "--max-vertices", "7", "--budget-nodes", NODE_CAP, "--seed", s),
                check_search(3, 7, int(NODE_CAP), must_find=True),
                budgeted=True,
            ),
            Op(
                "search-k4n8",
                ("search", "--k", "4", "--max-vertices", "8", "--budget-nodes", "5000", "--seed", s),
                check_search(4, 8, 5000, must_find=False),
                budgeted=True,
            ),
            Op(
                "verify",
                ("verify", "--suite", "lemmas", "--instances", str(LEMMA_INSTANCES), "--seed", s),
                check_verify,
            ),
        ]
    if workload == "wide":
        return [
            Op("spectrum", ("spectrum", path("wide")), check_spectrum("wide")),
            Op(
                "color",
                ("color", path("wide"), "--budget-nodes", NODE_CAP, "--trials", "2000", "--seed", s),
                check_color("wide", 2000),
                budgeted=True,
            ),
            Op(
                "color-deep",
                ("color", path("deep"), "--budget-nodes", NODE_CAP),
                check_color("deep", 0),
                budgeted=True,
                known_failure="RecursionError",
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def decided(out: dict) -> bool:
    """An exact verdict: not ``unknown`` and not ``exhaustive: false``."""
    return out.get("status", "decided") != "unknown" and out.get("exhaustive", True) is not False


if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    before = speed.probe()
    timings = build_inputs(workload, seed, out_dir)
    timings["probes"] = [before, speed.probe()]
    print(json.dumps(timings))
