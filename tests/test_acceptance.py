"""End-to-end acceptance suite.

One test per criterion, each asserting the documented tolerances and wall
clock budget and printing a single PASS line (run pytest with -s to see
them). Criterion 12 re-executes criteria 4 through 11 with identical seeds
and compares canonical JSON byte for byte; timing data never enters these
payloads.
"""

import json
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from hyperspec import (
    Hypergraph,
    check_average_lambda,
    check_pair_inequality,
    complete_subsets,
    compositional_mono_edge,
    cover_number,
    decide_2_coloring,
    dependent_random_choice,
    density_increment_run,
    edges_containing,
    fano,
    find_2_coloring,
    find_lambda_pair_drc,
    find_lambda_pair_ramsey,
    greedy_increase,
    intersection_spectrum,
    is_intersecting,
    is_uniform,
    iterated_fano,
    monochromatic_edge,
    min_spectrum_search,
    ramsey_clique_hypergraph,
    random_refute,
    random_uniform,
    three_coloring_intersecting,
    validate_lambda_pair,
    are_isomorphic,
)
from hyperspec.coloring import ColorStatus
from hyperspec.extraction import ExtractionParams, _bad_subsets, gnp_random_graph
from hyperspec.lemmas import planted_average_instance, random_pair_instance
from hyperspec.rng import DEFAULT_SEED, substream

import oracles

SEED = DEFAULT_SEED
_REPORT_CACHE: dict[str, str] = {}


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def record(name: str, payload) -> str:
    text = canonical_json(payload)
    _REPORT_CACHE.setdefault(name, text)
    return text


class Stopwatch:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


# -- criteria 1 to 3: constructions and colorability ----------------------


def test_criterion_1_fano_suite():
    with Stopwatch() as clock:
        h = fano()
        assert is_uniform(h) == 3
        assert is_intersecting(h)
        sp = intersection_spectrum(h)
        assert sp.sizes == (1,) and sp.multiplicities == (21,)
        res = find_2_coloring(h)
        assert res.status is ColorStatus.NOT_COLORABLE
        assert cover_number(h) == 3
        colors = three_coloring_intersecting(h)
        assert monochromatic_edge(h, colors) is None
    assert clock.elapsed < 1.0
    print("\nACCEPTANCE 1 (fano suite): PASS")


def test_criterion_2_iterated_fano_suite(itf2):
    with Stopwatch() as clock:
        assert itf2.num_vertices == 49
        assert itf2.num_edges == 2401 == 7 ** ((9 - 1) // 2)
        assert is_uniform(itf2) == 9
        assert is_intersecting(itf2)
        sp = intersection_spectrum(itf2)
        assert sp.sizes == (1, 3, 5, 7)
        assert sp.num_pairs == comb(2401, 2) == 2_881_200
    assert clock.elapsed < 10.0
    print("\nACCEPTANCE 2 (iterated fano suite): PASS")


def test_criterion_3_non_2_colorability_evidence(fano_h, itf2):
    with Stopwatch() as clock:
        rep = random_refute(itf2, trials=10_000, seed=SEED)
        assert rep.mono_fraction == 1.0

        rng = substream(SEED, "acceptance/compositional")
        for _ in range(10_000):
            colors = [rng.randrange(2) for _ in range(49)]
            idx = compositional_mono_edge(fano_h, fano_h, itf2, colors)
            edge = itf2.edge_vertices(idx)
            assert len({colors[v] for v in edge}) == 1
    assert clock.elapsed < 30.0

    # The exact decision: module contraction inside the 5 s budget, with a
    # certificate that the brute-force checker re-verifies on frozensets.
    solver = decide_2_coloring(itf2, budget_nodes=10**8, budget_ms=5_000.0)
    assert (solver.status, solver.method) == (ColorStatus.NOT_COLORABLE, "modules")
    assert oracles.check_module_certificate(49, list(itf2.edges()), solver.certificate.to_json()) is False
    print(f"\nACCEPTANCE 3 (refutation evidence, solver={solver.status.value} in {solver.nodes} nodes): PASS")


# -- criteria 4 to 9: randomized suites ------------------------------------


def run_criterion_4() -> dict:
    outcomes = []
    for k in (4, 5, 6):
        n = 2 * k
        m = 2 ** (k - 1) - 1
        for i in range(200):
            h = random_uniform(n, k, m, seed=SEED + 1000 * k + i)
            res = find_2_coloring(h)
            outcomes.append(
                {"k": k, "i": i, "status": res.status.value}
            )
    return {"criterion": 4, "outcomes": outcomes}


def test_criterion_4_sparse_colorable():
    with Stopwatch() as clock:
        report = run_criterion_4()
        assert len(report["outcomes"]) == 600
        assert all(o["status"] == "colorable" for o in report["outcomes"])
    assert clock.elapsed < 60.0
    record("criterion4", report)
    print("\nACCEPTANCE 4 (600 sparse instances colorable): PASS")


def run_criterion_5() -> dict:
    rng = substream(SEED, "acceptance/pair-inequality")
    worst = None
    rows = []
    for i in range(1000):
        fam_a, fam_b = random_pair_instance(rng)
        rep = check_pair_inequality(fam_a, fam_b)
        worst = rep.slack if worst is None else min(worst, rep.slack)
        rows.append(rep.holds)
    tight = check_pair_inequality(fano(), fano())
    return {
        "criterion": 5,
        "holds": all(rows),
        "count": len(rows),
        "worst_slack": str(worst),
        "fano_lhs": str(tight.lhs),
        "fano_rhs": str(tight.rhs),
    }


def test_criterion_5_pair_inequality():
    with Stopwatch() as clock:
        report = run_criterion_5()
        assert report["holds"] and report["count"] == 1000
        assert report["fano_lhs"] == "42" and report["fano_rhs"] == "42"
    assert clock.elapsed < 60.0
    record("criterion5", report)
    print("\nACCEPTANCE 5 (1000 pair inequalities + tight fano case): PASS")


def run_criterion_6() -> dict:
    rng = substream(SEED, "acceptance/average-lambda")
    rows = []
    for i in range(500):
        h, s, t, w = planted_average_instance(rng, x=i % 6)
        rep = check_average_lambda(h, s, t, w)
        rows.append({"i": i, "x": i % 6, "holds": rep.holds, "slack": str(rep.slack)})
    return {"criterion": 6, "rows": rows}


def test_criterion_6_average_lambda():
    with Stopwatch() as clock:
        report = run_criterion_6()
        assert len(report["rows"]) == 500
        assert all(r["holds"] for r in report["rows"])
    assert clock.elapsed < 60.0
    record("criterion6", report)
    print("\nACCEPTANCE 6 (500 planted averaging instances): PASS")


def run_criterion_7() -> dict:
    rows = []
    f = fano()
    for i in range(4):
        res = greedy_increase(f, (), i)
        rows.append(
            {
                "k": 3,
                "i": i,
                "fraction": str(res.fraction),
                "ok": res.fraction >= Fraction(1, 3**i),
            }
        )
    h2 = iterated_fano(2)
    for i in range(4):
        res = greedy_increase(h2, (), i)
        rows.append(
            {
                "k": 9,
                "i": i,
                "fraction": str(res.fraction),
                "ok": res.fraction >= Fraction(1, 9**i),
            }
        )
    return {"criterion": 7, "rows": rows}


def test_criterion_7_greedy_increase():
    with Stopwatch() as clock:
        report = run_criterion_7()
        assert all(r["ok"] for r in report["rows"])
        fano_one = next(r for r in report["rows"] if r["k"] == 3 and r["i"] == 1)
        assert fano_one["fraction"] == "3/7"
    assert clock.elapsed < 60.0
    record("criterion7", report)
    print("\nACCEPTANCE 7 (greedy growth guarantees, fano i=1 is 3/7): PASS")


def run_criterion_8() -> dict:
    successes = 0
    rows = []
    for seed in range(100):
        g = gnp_random_graph(512, 0.6, seed=seed)
        try:
            res = dependent_random_choice(g, Fraction(1, 2), 2, 8, seed=seed)
        except Exception as exc:  # hypotheses failure counts as a miss
            rows.append({"seed": seed, "ok": False, "why": type(exc).__name__})
            continue
        ok = (
            res is not None
            and len(res.u) > 16
            and res.exhaustive
            and _bad_subsets(g, sorted(res.u), 2, 8) == []
        )
        successes += ok
        rows.append({"seed": seed, "ok": bool(ok), "u": len(res.u) if res else 0})
    return {"criterion": 8, "successes": successes, "rows": rows}


def test_criterion_8_drc_statistics():
    with Stopwatch() as clock:
        report = run_criterion_8()
        assert report["successes"] >= 95
    assert clock.elapsed < 60.0
    record("criterion8", report)
    print(f"\nACCEPTANCE 8 (drc success {report['successes']}/100 seeds): PASS")


def run_criterion_9() -> dict:
    corpus = {
        "fano": fano(),
        "complete_subsets_3_2": complete_subsets(3, 2),
        "complete_subsets_5_3": complete_subsets(5, 3),
        "ramsey_clique_6_3": ramsey_clique_hypergraph(6, 3),
    }
    rows = []
    for name, h in corpus.items():
        res = find_2_coloring(h)
        sp = intersection_spectrum(h)
        rows.append(
            {
                "name": name,
                "status": res.status.value,
                "one_in_spectrum": 1 in sp.sizes,
            }
        )
    return {"criterion": 9, "rows": rows}


def test_criterion_9_folklore_invariant():
    with Stopwatch() as clock:
        report = run_criterion_9()
        for row in report["rows"]:
            assert row["status"] == "not_colorable"
            assert row["one_in_spectrum"]
    assert clock.elapsed < 60.0
    record("criterion9", report)
    print("\nACCEPTANCE 9 (folklore: 1 in every refuted spectrum): PASS")


# -- criterion 10: extraction round trip -----------------------------------


def run_criterion_10() -> dict:
    h2 = iterated_fano(2)
    ramsey = find_lambda_pair_ramsey(h2, range(2401), 4, seed=0)
    ramsey_check = validate_lambda_pair(h2, ramsey.x, ramsey.y, ramsey.lam, 4)

    params = ExtractionParams(t=4, x=4, seed=0)
    drc = find_lambda_pair_drc(h2, range(2401), 1, params)
    drc_check = validate_lambda_pair(h2, drc.x, drc.y, drc.lam, 4)

    trace = density_increment_run(h2, params)
    return {
        "criterion": 10,
        "ramsey": {"lam": ramsey.lam, "x": sorted(ramsey.x), "y_size": len(ramsey.y), "valid": ramsey_check.valid},
        "drc": {"lam": drc.lam, "x": sorted(drc.x), "y_size": len(drc.y), "valid": drc_check.valid},
        "trace": oracles.strip_timings(trace.to_json()),
    }


def test_criterion_10_extraction_round_trip(itf2):
    with Stopwatch() as clock:
        report = run_criterion_10()
        assert report["ramsey"]["valid"]
        assert report["drc"]["valid"]
        lams = [lvl["lambda"] for lvl in report["trace"]["levels"]]
        assert len(lams) >= 2
        assert lams == sorted(set(lams))
        assert set(lams) <= {1, 3, 5, 7}
        assert all(lvl["validated"] for lvl in report["trace"]["levels"])
    assert clock.elapsed < 120.0
    record("criterion10", report)
    print(f"\nACCEPTANCE 10 (extraction round trip, levels {lams}): PASS")


# -- criterion 11: search ground truth --------------------------------------


def run_criterion_11() -> dict:
    report = min_spectrum_search(3, 7)
    return {
        "criterion": 11,
        "search": oracles.strip_timings(report.to_json()),
    }


def test_criterion_11_search_ground_truth():
    with Stopwatch() as clock:
        report = run_criterion_11()
        search = report["search"]
        assert search["best_spectrum_size"] == 1
        assert search["exhaustive"] is True
        assert search["witness_edges"] == 7
        assert search["m_tilde_estimate"] == 7
        witness = Hypergraph(search["witness_vertices"], search["witness"])
        assert are_isomorphic(witness, fano())
    assert clock.elapsed < 600.0
    record("criterion11", report)
    print("\nACCEPTANCE 11 (minimum-spectrum search finds the plane): PASS")


# -- criterion 12: determinism ----------------------------------------------


def test_criterion_12_determinism():
    reruns = {
        "criterion4": run_criterion_4,
        "criterion5": run_criterion_5,
        "criterion6": run_criterion_6,
        "criterion7": run_criterion_7,
        "criterion8": run_criterion_8,
        "criterion9": run_criterion_9,
        "criterion10": run_criterion_10,
        "criterion11": run_criterion_11,
    }
    for name, runner in reruns.items():
        if name not in _REPORT_CACHE:  # standalone invocation
            record(name, runner())
        again = canonical_json(runner())
        assert again == _REPORT_CACHE[name], f"{name} is not byte-identical on rerun"
    print("\nACCEPTANCE 12 (criteria 4-11 byte-identical on rerun): PASS")
