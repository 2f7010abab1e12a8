"""Span tracing around the package's public functions, from outside the
package.

The modules import each other's functions by name (``from .core import
...``), so a wrapper has to be bound under that name in every module that
imports it, not only in the defining one. :class:`Tracer` does that while
it is installed and puts the original functions back afterwards. Spans stay
in memory and are written out once, at the end of the run.

A span is ``[name, layer, start, end, parent, op, attrs]``: the qualified
function name, its module (the layer), ``perf_counter`` times, the index of
the enclosing span (-1 at the top), the op the span belongs to, and a dict
of counts read from the call's arguments or result (or ``None``).
"""

from __future__ import annotations

import inspect
import sys
import types
from math import comb
from statistics import median
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("core", "constructions", "coloring", "lemmas", "extraction", "search")
# Bit-packing helpers run inside the hottest loops; a span per call would
# measure the tracer, so their time stays in the caller's self time.
UNTRACED = {"core.mask_of", "core.vertices_of"}

NAME, LAYER, START, END, PARENT, OP, ATTRS = range(7)


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _spectrum_before(fn, args, kwargs):
    h = _bound(fn, args, kwargs)["h"]
    cache = getattr(h, "_cache", {})
    return {"cache_hit": "spectrum" in cache, "pairs": comb(h.num_edges, 2)}


def _drc_after(fn, args, kwargs, result):
    if result is None:
        return {"attempts": _bound(fn, args, kwargs)["retries"], "exact": False}
    return {"attempts": result.attempts, "exact": bool(result.exhaustive)}


# Counts read around particular calls: (before-call probe, after-call probe).
PROBES: dict[str, tuple[Optional[Callable], Optional[Callable]]] = {
    "core.intersection_spectrum": (_spectrum_before, None),
    "coloring.find_2_coloring": (
        None,
        lambda fn, a, kw, r: {"nodes": r.nodes, "status": r.status.value},
    ),
    "coloring.random_refute": (None, lambda fn, a, kw, r: {"trials": r.trials}),
    "extraction.dependent_random_choice": (None, _drc_after),
    "extraction.density_increment_run": (
        None,
        lambda fn, a, kw, r: {
            "levels": len(r.levels),
            "ramsey_levels": sum(lvl.extractor == "ramsey" for lvl in r.levels),
        },
    ),
    "search.min_spectrum_search": (
        None,
        lambda fn, a, kw, r: {"nodes": r.nodes, "exhaustive": bool(r.exhaustive)},
    ),
    "lemmas.run_lemma_suite": (None, lambda fn, a, kw, r: {"instances": r["instances"]}),
}


class Tracer:
    """Records a span for every call of a wrapped public function."""

    def __init__(self, package: types.ModuleType):
        self.spans: list[list] = []
        self.op: Optional[str] = None
        self._stack: list[int] = []
        self._wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                qualname = f"{layer}.{name}"
                if isinstance(fn, types.FunctionType) and qualname not in UNTRACED:
                    self._wrappers[id(fn)] = self._wrap(layer, qualname, fn)
        self._modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        self._saved: list[tuple[types.ModuleType, str, Callable]] = []

    def _wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        before, after = PROBES.get(qualname, (None, None))

        def wrapper(*args, **kwargs):
            attrs = before(fn, args, kwargs) if before else None
            rec = [qualname, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, attrs]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter()
                stack.pop()
                rec[ATTRS] = {**(attrs or {}), "error": type(exc).__name__}
                raise
            rec[END] = perf_counter()
            stack.pop()
            if after:
                rec[ATTRS] = {**(attrs or {}), **after(fn, args, kwargs, result)}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()
        self._stack.clear()


def layer_metrics(spans: list[list], op_seconds: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    ``spans`` are the spans of the pass, with parent indices into that
    list, and ``op_seconds`` the summed wall
    time of its ops, measured outside the package. A layer's self time is
    its spans' time minus the time of their child spans; the layers' self
    times plus ``cli.overhead_s`` add up to ``op_seconds``.
    """
    dur = [s[END] - s[START] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] > -1:
            children[s[PARENT]] += dur[i]

    def total(name: str) -> float:
        return sum(dur[i] for i, s in enumerate(spans) if s[NAME] == name)

    def attrs(name: str) -> list[dict]:
        return [s[ATTRS] or {} for s in spans if s[NAME] == name]

    def under(i: int, name: str) -> bool:
        p = spans[i][PARENT]
        while p > -1:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            dur[i] - children[i] for i, s in enumerate(spans) if s[LAYER] == layer
        )
    m["cli.overhead_s"] = op_seconds - sum(
        dur[i] for i, s in enumerate(spans) if s[PARENT] == -1
    )

    m["core.parse_s"] = total("core.parse_hypergraph")
    m["core.intersection_spectrum_s"] = total("core.intersection_spectrum")
    computed = [i for i, s in enumerate(spans)
                if s[NAME] == "core.intersection_spectrum" and not s[ATTRS]["cache_hit"]]
    m["core.pairs_per_s"] = rate(
        sum(spans[i][ATTRS]["pairs"] for i in computed), sum(dur[i] for i in computed)
    )
    m["core.spectrum_cache_hits"] = sum(a["cache_hit"] for a in attrs("core.intersection_spectrum"))
    m["core.is_intersecting_s"] = total("core.is_intersecting")
    m["core.edges_containing_s"] = total("core.edges_containing")

    solves = attrs("coloring.find_2_coloring")
    m["coloring.solve_s"] = total("coloring.find_2_coloring")
    m["coloring.solve_calls"] = len(solves)
    m["coloring.solve_nodes"] = sum(a.get("nodes", 0) for a in solves)
    m["coloring.nodes_per_s"] = rate(m["coloring.solve_nodes"], m["coloring.solve_s"])
    m["coloring.unknown_ratio"] = rate(
        sum(a.get("status") == "unknown" for a in solves), len(solves)
    )
    m["coloring.refute_s"] = total("coloring.random_refute")
    m["coloring.trials_per_s"] = rate(
        sum(a.get("trials", 0) for a in attrs("coloring.random_refute")), m["coloring.refute_s"]
    )

    m["lemmas.suite_s"] = total("lemmas.run_lemma_suite")
    m["lemmas.instances_per_s"] = rate(
        sum(a.get("instances", 0) for a in attrs("lemmas.run_lemma_suite")), m["lemmas.suite_s"]
    )
    for name in ("check_pair_inequality", "validate_lambda_pair", "greedy_increase"):
        m[f"lemmas.{name}_s"] = total(f"lemmas.{name}")

    m["extraction.drc_pair_s"] = sum(
        dur[i] - children[i] for i, s in enumerate(spans)
        if s[NAME] == "extraction.find_lambda_pair_drc"
    )
    for metric, name in (
        ("threshold_graph_s", "threshold_graph"),
        ("dependent_random_choice_s", "dependent_random_choice"),
        ("ramsey_pair_s", "find_lambda_pair_ramsey"),
        ("triple_family_s", "build_triple_family"),
    ):
        m[f"extraction.{metric}"] = total(f"extraction.{name}")
    drc = attrs("extraction.dependent_random_choice")
    m["extraction.drc_attempts"] = sum(a.get("attempts", 0) for a in drc)
    m["extraction.drc_exact_ratio"] = rate(sum(a.get("exact", False) for a in drc), len(drc))
    runs = attrs("extraction.density_increment_run")
    m["extraction.levels"] = sum(a.get("levels", 0) for a in runs)
    m["extraction.fallback_ratio"] = rate(
        sum(a.get("ramsey_levels", 0) for a in runs), m["extraction.levels"]
    )

    searches = attrs("search.min_spectrum_search")
    search_s = total("search.min_spectrum_search")
    solver = [i for i, s in enumerate(spans)
              if s[NAME] == "coloring.find_2_coloring" and under(i, "search.min_spectrum_search")]
    m["search.nodes"] = sum(a.get("nodes", 0) for a in searches)
    m["search.nodes_per_s"] = rate(m["search.nodes"], search_s)
    m["search.solver_calls"] = len(solver)
    m["search.solver_share"] = rate(sum(dur[i] for i in solver), search_s)
    m["search.exhaustive"] = rate(sum(a.get("exhaustive", False) for a in searches), len(searches))
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
