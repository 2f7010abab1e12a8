"""Command-line entry point.

Subcommands: construct, spectrum, color, verify, extract, search. Every
JSON payload carries a "schema" version and, for randomized runs, the seed
that produced it; wall-clock numbers live under a separate "timings" key
so byte-level comparisons can exclude them. Exit codes: 0 success, 1
domain error (structured JSON on stderr), 2 usage error.

Importing this module loads every layer: ``bench/tracing.py`` wraps the
layers' public functions right after ``from hyperspec import cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import constructions
from .coloring import decide_2_coloring, random_refute
from .core import (
    DEFAULT_NODE_BUDGET,
    Hypergraph,
    intersection_spectrum,
    is_intersecting,
    is_uniform,
    parse_hypergraph,
    serialize_hypergraph,
)
from .errors import HypergraphError, InvalidParameterError, ParseError
from .extraction import ExtractionParams, density_increment_run
from .lemmas import run_lemma_suite
from .rng import DEFAULT_SEED
from .search import min_spectrum_search

SCHEMA = "1"


def _emit(payload: dict, stream=None) -> None:
    print(json.dumps(payload, sort_keys=True), file=stream or sys.stdout)


def _load(path: str) -> Hypergraph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the first undecodable byte, as the parser numbers lines.
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8", line) from None
    return parse_hypergraph(text)


def _parse_kv(pairs: Sequence[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq:
            raise InvalidParameterError(f"--param expects key=value, got {pair!r}")
        if key in out:
            raise InvalidParameterError(f"--param {key} given more than once")
        try:
            out[key] = int(value)
        except ValueError:
            raise InvalidParameterError(f"--param value for {key!r} must be an integer") from None
    return out


def _at_least(low: int, kind: type = int):
    """argparse type: a ``kind`` number of at least ``low`` (not NaN)."""

    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def _density(text: str) -> Fraction:
    """argparse type: a fraction in (0, 1]."""
    value = Fraction(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


_density.__name__ = "Fraction"  # argparse names the type in its messages


def cmd_construct(args: argparse.Namespace) -> int:
    h = constructions.build_construction(
        args.family,
        _parse_kv(args.param),
        seed=args.seed,
        inputs=tuple(_load(path) for path in (args.left, args.right) if path),
        size_cap=args.size_cap,
    )
    text = serialize_hypergraph(h)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    h = _load(args.file)
    spectrum = intersection_spectrum(h)
    _emit(
        {
            "schema": SCHEMA,
            "k": is_uniform(h),
            "intersecting": is_intersecting(h),
            "sizes": list(spectrum.sizes),
            "multiplicities": list(spectrum.multiplicities),
        }
    )
    return 0


def cmd_color(args: argparse.Namespace) -> int:
    if args.seed is not None and not args.trials:
        raise InvalidParameterError("color reads --seed only with --trials")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    h = _load(args.file)
    started = time.monotonic()
    result = decide_2_coloring(h, budget_nodes=args.budget_nodes, budget_ms=args.budget_ms)
    payload = {
        "schema": SCHEMA,
        "status": result.status.value,
        "coloring": None if result.coloring is None else list(result.coloring),
        "nodes": result.nodes,
        "budget_tripped": result.budget_tripped,
        "method": result.method,
        "certificate": None if result.certificate is None else result.certificate.to_json(),
        "mono_fraction": None,
        "seed": seed,
    }
    if args.trials:
        report = random_refute(h, args.trials, seed)
        payload["mono_fraction"] = report.mono_fraction
        payload["mean_mono_edges"] = report.mean_mono_edges
    payload["timings"] = {"elapsed_ms": (time.monotonic() - started) * 1000.0}
    _emit(payload)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    results = run_lemma_suite(args.seed, args.instances)
    payload = {"schema": SCHEMA, "suite": args.suite, **results}
    payload["timings"] = {"elapsed_ms": (time.monotonic() - started) * 1000.0}
    _emit(payload)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    h = _load(args.file)
    started = time.monotonic()
    # --t, --x and --density default to SUPPRESS, so only the given ones are set.
    tuning = {key: getattr(args, key) for key in ("t", "x", "d") if hasattr(args, key)}
    if args.paper_constants and tuning:
        raise InvalidParameterError("--paper-constants excludes --t, --x and --density")
    params = ExtractionParams(
        **tuning, seed=args.seed, budget_ms=args.budget_ms, paper_constants=args.paper_constants
    )
    trace = density_increment_run(h, params)
    payload = {"schema": SCHEMA, **trace.to_json()}
    payload["timings"] = {"elapsed_ms": (time.monotonic() - started) * 1000.0}
    _emit(payload)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    report = min_spectrum_search(
        args.k,
        args.max_vertices,
        budget_ms=args.budget_ms,
        budget_nodes=args.budget_nodes,
    )
    if args.witness_out and report.witness is not None:
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            fh.write(serialize_hypergraph(report.witness))
    _emit({"schema": SCHEMA, "seed": args.seed, **report.to_json()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspec",
        description="Intersection spectra of small hypergraphs: constructions, "
        "coloring, inequality suites, extraction, and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a named hypergraph family as .hg text")
    p.add_argument("--family", required=True, choices=constructions.FAMILY_PARAMS)
    p.add_argument("--param", action="append", default=[], metavar="K=V")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--size-cap", type=_at_least(1), default=constructions.DEFAULT_SIZE_CAP)
    p.add_argument("--left", help="first input .hg (compose only)")
    p.add_argument("--right", help="second input .hg (compose only)")
    p.add_argument("-o", "--output", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("spectrum", help="exact intersection spectrum of a .hg file")
    p.add_argument("file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("color", help="decide 2-colorability; optionally sample random colorings")
    p.add_argument("file")
    p.add_argument("--budget-nodes", type=_at_least(0), default=DEFAULT_NODE_BUDGET)
    p.add_argument("--budget-ms", type=_at_least(0, float), default=None)
    p.add_argument("--trials", type=_at_least(0), default=0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="run a randomized inequality suite")
    p.add_argument("--suite", choices=("lemmas",), default="lemmas")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--instances", type=_at_least(1), default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extract", help="run the density-increment driver on a .hg file")
    p.add_argument("file")
    p.add_argument("--t", type=int, default=argparse.SUPPRESS, help="default 4")
    p.add_argument("--x", type=int, default=argparse.SUPPRESS, help="default 4")
    p.add_argument(
        "--density", dest="d", metavar="DENSITY", type=_density, default=argparse.SUPPRESS,
        help="override the measured density (a fraction like 1/72)",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget-ms", type=_at_least(0, float), default=None)
    p.add_argument("--paper-constants", action="store_true", help="use the asymptotic tuning constants")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("search", help="minimize spectrum size over small witnesses")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--budget-ms", type=_at_least(0, float), default=None)
    p.add_argument("--budget-nodes", type=_at_least(0), default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--witness-out", help="write the best witness as .hg")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HypergraphError, OSError) as exc:
        kind = type(exc).__name__ if isinstance(exc, HypergraphError) else "OSError"
        _emit({"schema": SCHEMA, "error": {"type": kind, "message": str(exc)}}, stream=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
