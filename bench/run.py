"""Benchmark of the hyperspec command line.

Usage::

    python3 bench/run.py --workload {itf2,small,wide} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``
directory. One process, one client, a closed loop and no threads: the
benchmark calls ``hyperspec.cli.main`` in-process, one op after the other,
and times each call from outside. The workloads and their checks are in
``workloads.py``.

A run first sets up several times (each in a fresh interpreter: import the
package, build the inputs, write them) and reports the median as
``setup_s``. Then it makes passes through the workload's op sequence until
``--seconds`` are used up, after one warm-up pass. Every op output is
checked, and every op must give the same JSON (outside ``timings``) on
every pass.

``setup_s`` and ``pipeline_s`` are scaled to a reference machine speed by a
fixed probe timed before and after each set-up and each op
(``speed.py``); the details line also holds the unscaled times.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate: the untraced ones give
the per-subcommand times and the tracing overhead, the traced ones the
per-layer metrics of ``tracing.py``. The line before the last holds the
details (environment, per-op sample counts and percentiles, per-op node and
trial counts); it and the spans are also written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

import speed
import tracing
import workloads

SETUP_REPEATS = 7
MIN_PASSES = 3  # the warm-up pass plus two measured passes
SUBCOMMANDS = ("spectrum", "color", "extract", "search", "verify")


def env_stamp() -> dict:
    import numpy

    root = workloads.ROOT
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == root:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "hyperspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def set_up(workload: str, seed: int, work: Path) -> list[dict]:
    """Time SETUP_REPEATS set-ups, each in a fresh interpreter."""
    runs = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(workloads.__file__)), workload, str(seed), str(work)],
            capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.strip()}")
        runs.append(json.loads(child.stdout))
    return runs


def strip_timings(value):
    if isinstance(value, dict):
        return {k: strip_timings(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [strip_timings(v) for v in value]
    return value


def run_op(main, op: workloads.Op) -> tuple[float, dict | None, str | None]:
    """Call the CLI once. Returns (seconds, parsed output, failure)."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    gc.collect()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        code, failure = None, type(exc).__name__
    seconds = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit {code}: {err.getvalue().strip()[:200]}"
    if failure is not None:
        return seconds, None, failure
    try:
        return seconds, json.loads(out.getvalue()), None
    except ValueError:
        return seconds, None, "output is not JSON"


def summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (none below 20 samples)."""
    n = len(samples)
    row = {"median": median(samples), "samples": n, "pctl": None, "pctl_value": None}
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        row["pctl"] = q
        row["pctl_value"] = sorted(samples)[min(n - 1, (q * n) // 100)]
    return row


class Outcomes:
    """What the ops of a run returned: failures, check problems and the
    work each op reported."""

    def __init__(self, inputs: workloads.Inputs):
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.problems: set[str] = set()
        self.first: dict[str, dict] = {}
        self.counts: dict[str, dict] = {}
        self.decided: dict[str, bool] = {}

    def record(self, op: workloads.Op, out: dict | None, failure: str | None) -> None:
        self.attempted += 1
        if out is not None:
            found = op.check(out, self.inputs)
            clean = strip_timings(out)
            if self.first.setdefault(op.name, clean) != clean:
                found.append("output differs from the first pass")
            self.problems.update(f"{op.name}: {p}" for p in found)
            failure = "; ".join(found) or None
            counts = {k: out[k] for k in ("nodes", "exhaustive", "status") if k in out}
            counts.update(
                (flag.lstrip("-"), int(value)) for flag, value in zip(op.argv, op.argv[1:])
                if flag in ("--trials", "--instances", "--budget-nodes")
            )
            if "levels" in out:
                counts["levels"] = len(out["levels"])
            self.counts[op.name] = counts
        if op.budgeted:
            self.decided[op.name] = out is not None and workloads.decided(out)
        if failure is not None:
            self.failed += 1
            self.failures[op.name] = failure


def run_pass(
    main, ops: list[workloads.Op], outcomes: Outcomes, tracer=None
) -> tuple[dict[str, float], list[float]]:
    """One pass through the op sequence; returns each op's wall time and
    the times of the speed probes run before each op and after the last."""
    seconds: dict[str, float] = {}
    probes: list[float] = []
    for op in ops:
        probes.append(speed.probe())
        if tracer is not None:
            tracer.op = op.name
            with tracer:
                seconds[op.name], out, failure = run_op(main, op)
        else:
            seconds[op.name], out, failure = run_op(main, op)
        outcomes.record(op, out, failure)
    probes.append(speed.probe())
    return seconds, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        hyperspec = workloads.import_package()
    except ImportError as exc:
        print(f"bench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    from hyperspec import cli

    work = workloads.ROOT / ".bench_work" / f"{args.workload}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setups = set_up(args.workload, args.seed, work)
    inputs = workloads.load_inputs(args.workload, work)
    ops = workloads.make_ops(args.workload, args.seed, work)
    tracer = tracing.Tracer(hyperspec) if args.trace else None
    outcomes = Outcomes(inputs)

    # Pass 0 warms up. With tracing, even passes after it are traced.
    passes: list[dict] = []
    layer_passes: list[dict] = []
    spans_out: list[list] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - started + median(p["wall"] for p in passes) <= args.seconds
    ):
        index = len(passes)
        traced = tracer is not None and index > 0 and index % 2 == 0
        wall = time.perf_counter()
        seconds, probes = run_pass(cli.main, ops, outcomes, tracer if traced else None)
        if traced:
            spans = tracer.spans[:]
            del tracer.spans[:]
            layer_passes.append(tracing.layer_metrics(spans, sum(seconds.values())))
            spans_out.extend([index] + s for s in spans)
        passes.append({
            "traced": traced,
            "ops": seconds,
            "scaled_s": speed.scaled_sum(list(seconds.values()), probes),
            "probes": probes,
            "wall": time.perf_counter() - wall,
        })

    untraced = [p for p in passes[1:] if not p["traced"]]
    measured = [p["ops"] for p in untraced]
    pipeline = summary([p["scaled_s"] for p in untraced])
    unscaled = summary([sum(p.values()) for p in measured])
    per_subcommand = {
        sub: median(
            sum(p[op.name] for op in ops if op.argv[0] == sub and op.name not in outcomes.failures)
            for p in measured
        )
        for sub in SUBCOMMANDS
    }
    failed_ratio = outcomes.failed / outcomes.attempted
    decided = outcomes.decided
    setup_s = median(speed.scaled(s["setup_s"], s["probes"]) for s in setups)

    if tracer is not None:
        layers = tracing.median_metrics(layer_passes)
        traced_pipeline = median(p["scaled_s"] for p in passes if p["traced"])
        layers.update({f"cli.{sub}_s": per_subcommand[sub] for sub in SUBCOMMANDS})
        layers["cli.decided_ratio"] = sum(decided.values()) / len(decided)
        layers["cli.ops_failed_ratio"] = failed_ratio
        layers["cli.trace_overhead_ratio"] = traced_pipeline / pipeline["median"] - 1
        layers["constructions.build_s"] = median(s["construct_s"] for s in setups)
        values, spec = layers, benchmark_spec()["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "pipeline_s": pipeline["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_ratio": 1 - failed_ratio,
        }
        spec = benchmark_spec()["end_to_end"]
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in spec}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env_stamp(),
        "setup": {"runs": setups, "setup_s": setup_s},
        "pipeline_s": pipeline,
        "unscaled_pipeline_s": unscaled,
        "passes": [
            {"traced": p["traced"], "scaled_s": p["scaled_s"], "probes": p["probes"], **p["ops"]}
            for p in passes
        ],
        "ops": {
            op.name: {**summary([p[op.name] for p in measured]), **outcomes.counts.get(op.name, {})}
            for op in ops
        },
        "subcommand_s": per_subcommand,
        "decided": decided,
        "failures": outcomes.failures,
        "known_failures": {op.name: op.known_failure for op in ops if op.known_failure},
        "problems": sorted(outcomes.problems),
    }
    if tracer is not None:
        details["layers"] = layers
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["pass", "name", "layer", "start", "end", "parent", "op", "attrs"]))
            fh.write("\n")
            for span in spans_out:
                fh.write(json.dumps(span) + "\n")
    (work / "result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps({
        "correct": not outcomes.problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


def benchmark_spec() -> dict:
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
