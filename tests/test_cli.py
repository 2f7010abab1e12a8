import json
import time
import tracemalloc

import pytest

from hyperspec import core
from hyperspec.cli import main
from hyperspec.constructions import random_uniform
from hyperspec.core import serialize_hypergraph
from hyperspec.rng import DEFAULT_SEED

import oracles
from conftest import run_fresh


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstructSpectrumPipeline:
    def test_fano_pipeline(self, tmp_path, capsys):
        out = tmp_path / "fano.hg"
        code, _, _ = run_cli(["construct", "--family", "fano", "-o", str(out)], capsys)
        assert code == 0
        assert out.read_text().startswith("7 7\n")

        code, stdout, _ = run_cli(["spectrum", str(out)], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["schema"] == "1"
        assert payload["sizes"] == [1]
        assert payload["multiplicities"] == [21]
        assert payload["k"] == 3 and payload["intersecting"] is True

    def test_construct_params(self, capsys):
        code, stdout, _ = run_cli(
            ["construct", "--family", "complete-subsets", "--param", "n=5", "--param", "k=3"],
            capsys,
        )
        assert code == 0
        assert stdout.startswith("5 10\n")

    def test_compose_from_files(self, tmp_path, capsys):
        left = tmp_path / "l.hg"
        run_cli(["construct", "--family", "fano", "-o", str(left)], capsys)
        code, stdout, _ = run_cli(
            ["construct", "--family", "compose", "--left", str(left), "--right", str(left)],
            capsys,
        )
        assert code == 0
        assert stdout.startswith("49 2401\n")


class TestColor:
    def test_fano_not_colorable(self, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        code, stdout, _ = run_cli(["color", str(path), "--trials", "500", "--seed", "7"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["status"] == "not_colorable"
        assert payload["coloring"] is None
        assert payload["mono_fraction"] == 1.0
        assert payload["nodes"] > 0
        assert payload["budget_tripped"] is None

    def test_unknown_names_budget(self, tmp_path, capsys):
        path = tmp_path / "itf2.hg"
        run_cli(["construct", "--family", "iterated-fano", "--param", "m=2", "-o", str(path)], capsys)
        code, stdout, _ = run_cli(["color", str(path), "--budget-nodes", "5"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert (payload["status"], payload["nodes"], payload["budget_tripped"]) == ("unknown", 6, "nodes")

    def test_itf2_decided_by_modules(self, tmp_path, capsys):
        path = tmp_path / "itf2.hg"
        run_cli(["construct", "--family", "iterated-fano", "--param", "m=2", "-o", str(path)], capsys)
        code, stdout, _ = run_cli(["color", str(path), "--budget-nodes", "2000"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert (payload["status"], payload["nodes"], payload["budget_tripped"], payload["method"]) == (
            "not_colorable", 32, None, "modules")
        n, edges = oracles.read_hg(path.read_text())
        assert oracles.check_module_certificate(n, edges, payload["certificate"]) is False

    def test_budget_ms_bounds_large_sparse_input(self, tmp_path, capsys):
        # A 20,000-vertex sparse family, where the module search alone takes
        # seconds without a limit.
        path = tmp_path / "sparse.hg"
        path.write_text(serialize_hypergraph(random_uniform(20000, 3, 20000, seed=5)))
        started = time.monotonic()
        code, stdout, _ = run_cli(["color", str(path), "--budget-ms", "50"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert (payload["status"], payload["budget_tripped"]) == ("unknown", "ms")
        assert payload["timings"]["elapsed_ms"] < 1000.0
        assert time.monotonic() - started < 5.0  # parsing the file included

    def test_module_free_input_reports_dpll(self, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        _, stdout, _ = run_cli(["color", str(path)], capsys)
        payload = json.loads(stdout)
        assert (payload["status"], payload["nodes"], payload["method"], payload["certificate"]) == (
            "not_colorable", 4, "dpll", None)

    def test_memory_linear_in_declared_vertices(self, tmp_path, capsys):
        # Two edges over 20,000 vertices: a mask per declared vertex, in the
        # solver and in the module layer, takes about n²/8 bytes (50 MB here);
        # the answer needs a few MB.
        path = tmp_path / "sparse.hg"
        path.write_text("20000 2\n0 1\n1 2\n")
        tracemalloc.start()
        try:
            code, stdout, _ = run_cli(["color", str(path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = json.loads(stdout)
        assert (code, payload["status"], len(payload["coloring"])) == (0, "colorable", 20000)
        assert oracles.mono_edge_count([{0, 1}, {1, 2}], payload["coloring"]) == 0
        assert peak < 10 * 2**20

    def test_colorable_without_vertices(self, tmp_path, capsys):
        # The witness of a 0-vertex input is the empty coloring, not null.
        path = tmp_path / "empty.hg"
        path.write_text("0 0\n")
        code, stdout, _ = run_cli(["color", str(path), "--trials", "5"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert (payload["status"], payload["coloring"], payload["mono_fraction"]) == ("colorable", [], 0.0)


    def test_unread_seed_is_refused(self, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        for trials in ([], ["--trials", "0"]):
            code, stdout, err = run_cli(["color", str(path), "--seed", "3", *trials], capsys)
            assert (code, stdout) == (1, "")
            message = "color reads --seed only with --trials"
            assert json.loads(err)["error"] == {"type": "InvalidParameterError", "message": message}
        # Every accepted call still prints the seed.
        accepted = [(["--trials", "5", "--seed", "3"], 3), (["--trials", "5"], DEFAULT_SEED), ([], DEFAULT_SEED)]
        for args, seed in accepted:
            code, stdout, _ = run_cli(["color", str(path), *args], capsys)
            assert (code, json.loads(stdout)["seed"]) == (0, seed)


class TestVerify:
    def test_lemma_suite_deterministic(self, capsys):
        args = ["verify", "--suite", "lemmas", "--seed", "5", "--instances", "30"]
        code, out1, _ = run_cli(args, capsys)
        assert code == 0
        _, out2, _ = run_cli(args, capsys)
        a, b = json.loads(out1), json.loads(out2)
        assert oracles.strip_timings(a) == oracles.strip_timings(b)
        assert a["pair_inequality"]["fail"] == 0

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestExtract:
    def test_fano_trace(self, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        code, stdout, _ = run_cli(
            ["extract", str(path), "--t", "2", "--x", "1", "--seed", "0"], capsys
        )
        assert code == 0
        payload = json.loads(stdout)
        assert [lvl["lambda"] for lvl in payload["levels"]] == [1]
        assert payload["levels"][0]["validated"] is True

    @pytest.mark.parametrize(
        "t, note",
        [("4", "drc accepted |U|=2397 with demand n=119"), ("5", "drc accepted |U|=2396 with demand n=95")],
    )
    def test_itf2_drc_accepted(self, tmp_path, capsys, t, note):
        # The common-neighbor bound accepts U at t = 4 and t = 5 alike.
        path = tmp_path / "itf2.hg"
        run_cli(["construct", "--family", "iterated-fano", "--param", "m=2", "-o", str(path)], capsys)
        code, stdout, _ = run_cli(["extract", str(path), "--seed", "1", "--t", t], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert [lvl["lambda"] for lvl in payload["levels"]] == [1, 7]
        assert payload["levels"][0]["notes"] == [note]

    @pytest.mark.parametrize(
        "flags, expected",
        [
            pytest.param(
                ["--seed", "4002"],
                {
                    "identity_checks": [],
                    "levels": [
                        {"branch": "initial", "extractor": "drc", "lambda": 1,
                         "notes": ["drc accepted |U|=2397 with demand n=119"],
                         "pool_size": 2401, "validated": True, "x_size": 4, "y_size": 2397},
                        {"branch": "same-intersection", "extractor": "drc", "lambda": 7,
                         "notes": ["drc hypotheses unsatisfiable at this scale; direct search over the pool"],
                         "pool_size": 7, "validated": True, "x_size": 4, "y_size": 3},
                    ],
                    "notes": ["desk-scale thresholds: measured density, fraction-based demands"],
                    "params": {"d": None, "paper_constants": False, "seed": 4002, "t": 4, "x": 4},
                    "schema": "1",
                    "stop_reason": "no progress: next pool has fewer than two edges",
                    "witness_coloring": None,
                },
                id="seed-4002",
            ),
            pytest.param(
                ["--t", "3", "--x", "2", "--seed", "0"],
                {
                    "identity_checks": [],
                    "levels": [
                        {"branch": "initial", "extractor": "drc", "lambda": 1,
                         "notes": ["drc accepted |U|=2398 with demand n=159"],
                         "pool_size": 2401, "validated": True, "x_size": 3, "y_size": 2398},
                        {"branch": "spread-out", "extractor": "drc", "lambda": 3,
                         "notes": ["drc accepted |U|=144 with demand n=9"],
                         "pool_size": 147, "validated": True, "x_size": 3, "y_size": 144},
                        {"branch": "same-intersection", "extractor": "drc", "lambda": 5,
                         "notes": ["drc hypotheses unsatisfiable at this scale; direct search over the pool"],
                         "pool_size": 21, "validated": True, "x_size": 3, "y_size": 18},
                        {"branch": "spread-out", "extractor": "drc", "lambda": 7,
                         "notes": ["drc hypotheses unsatisfiable at this scale; direct search over the pool"],
                         "pool_size": 7, "validated": True, "x_size": 3, "y_size": 4},
                    ],
                    "notes": [
                        "desk-scale thresholds: measured density, fraction-based demands",
                        "spread case at lambda=1 not certified (t=3 is not an even number of at least 4); "
                        "advancing via the popular anchor-subset superset route",
                        "spread case at lambda=5 not certified (t=3 is not an even number of at least 4); "
                        "advancing via the popular anchor-subset superset route",
                    ],
                    "params": {"d": None, "paper_constants": False, "seed": 0, "t": 3, "x": 2},
                    "schema": "1",
                    "stop_reason": "no progress: next pool has fewer than two edges",
                    "witness_coloring": None,
                },
                id="t3-x2-seed-0",
            ),
        ],
    )
    def test_itf2_output_is_pinned(self, itf2, tmp_path, capsys, flags, expected):
        # The benchmark's own extract call and a run through both branches.
        path = tmp_path / "itf2.hg"
        path.write_text(serialize_hypergraph(itf2))
        code, stdout, _ = run_cli(["extract", str(path), *flags], capsys)
        assert code == 0
        assert oracles.strip_timings(json.loads(stdout)) == expected

    def test_witness_coloring_is_proper(self, tmp_path, capsys):
        path = tmp_path / "star.hg"
        path.write_text("4 3\n0 1\n0 2\n0 3\n")
        code, stdout, _ = run_cli(["extract", str(path), "--t", "2", "--x", "1", "--seed", "0"], capsys)
        coloring = json.loads(stdout)["witness_coloring"]
        assert (code, len(coloring)) == (0, 4)
        assert oracles.mono_edge_count([{0, 1}, {0, 2}, {0, 3}], coloring) == 0

    @pytest.mark.parametrize(
        "text, flags",
        [
            pytest.param("3 0\n", [], id="no-edges"),
            pytest.param("3 1\n0 1 2\n", [], id="one-edge"),
            # --paper-constants accepts every input the driver accepts.
            pytest.param("3 0\n", ["--paper-constants"], id="paper-constants-no-edges"),
            pytest.param("3 1\n0 1 2\n", ["--paper-constants"], id="paper-constants-one-edge"),
            pytest.param("4 2\n0 1 2\n0 3\n", ["--paper-constants"], id="paper-constants-non-uniform"),
        ],
    )
    def test_too_few_edges_trace(self, tmp_path, capsys, text, flags):
        path = tmp_path / "few.hg"
        path.write_text(text)
        code, stdout, _ = run_cli(["extract", str(path), *flags], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert (payload["levels"], payload["stop_reason"]) == ([], "input must be uniform with at least two edges")
        # A paper-constants run stops before it knows k, so it reports no t, x or d.
        tuning = {"t": None, "x": None, "d": None} if flags else {"t": 4, "x": 4, "d": None}
        assert {key: payload["params"][key] for key in tuning} == tuning


class TestSearch:
    def test_triangle(self, tmp_path, capsys):
        out = tmp_path / "w.hg"
        code, stdout, _ = run_cli(
            ["search", "--k", "2", "--max-vertices", "3", "--witness-out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["best_spectrum_size"] == 1
        assert payload["exhaustive"] is True
        assert payload["budget_tripped"] is None
        assert out.read_text().startswith("3 3\n")


class TestErrorsAndUsage:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(["spectrum", "/does/not/exist.hg"], capsys)
        assert code == 1
        assert json.loads(err)["error"]["type"] == "OSError"

    @pytest.mark.parametrize(
        "args, payload",
        [
            (["spectrum", "DIR"], {"type": "OSError", "message": "[Errno 21] Is a directory: 'DIR'"}),
            (
                ["color", "FANO", "--seed", "3"],
                {"type": "InvalidParameterError", "message": "color reads --seed only with --trials"},
            ),
        ],
        ids=["directory", "invalid-parameter"],
    )
    def test_error_payload_on_stderr(self, args, payload, tmp_path, capsys):
        # An OSError subclass is reported as "OSError", a domain error by its class name.
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        paths = {"DIR": str(tmp_path), "FANO": str(path)}
        code, stdout, err = run_cli([paths.get(a, a) for a in args], capsys)
        message = payload["message"].replace("DIR", str(tmp_path))
        expected = {"error": {"message": message, "type": payload["type"]}, "schema": "1"}
        assert (code, stdout) == (1, "")
        assert err == json.dumps(expected, sort_keys=True) + "\n"

    def test_domain_error(self, capsys):
        code, _, err = run_cli(
            ["construct", "--family", "iterated-fano", "--param", "m=4"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "SizeCapExceededError"

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_threads_option_removed(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        monkeypatch.setenv("HYPERSPEC_THREADS", "abc")
        code, stdout, _ = run_cli(["spectrum", str(path)], capsys)
        assert code == 0
        assert json.loads(stdout)["sizes"] == [1]
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "spectrum", str(path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["construct", "--family", "iterated-fano"],
            ["construct", "--family", "complete-subsets", "--param", "n=3", "--param", "k=5"],
            ["search", "--k", "1", "--max-vertices", "3"],
            ["search", "--k", "8", "--max-vertices", "16"],
            ["extract", "FANO", "--t", "1"],
            ["construct", "--family", "fano", "--param", "m=9"],
            ["construct", "--family", "fano", "--left", "FANO"],
            ["construct", "--family", "complete-subsets", "--param", "n=5", "--param", "k=3", "--param", "m=2"],
            ["construct", "--family", "compose", "--left", "FANO", "--right", "FANO", "--param", "m=1"],
            ["extract", "FANO", "--paper-constants", "--t", "3"],
            ["extract", "FANO", "--paper-constants", "--x", "2"],
            ["extract", "FANO", "--paper-constants", "--density", "1/2"],
            ["construct", "--family", "iterated-fano", "--param", "m=3", "--param", "m=1"],
            ["construct", "--family", "iterated-fano", "--param", "m"],
            ["construct", "--family", "iterated-fano", "--param", "m=x"],
            ["construct", "--family", "random-uniform", "--param", "n=5", "--param", "k=2", "--param", "m=-1"],
        ],
        ids=[
            "missing-param",
            "k-above-n",
            "search-k1",
            "search-edge-space-cap",
            "extract-t1",
            "fano-unread-param",
            "fano-unread-left",
            "complete-subsets-unread-param",
            "compose-unread-param",
            "paper-constants-with-t",
            "paper-constants-with-x",
            "paper-constants-with-density",
            "repeated-param",
            "malformed-param",
            "non-integer-param",
            "random-uniform-negative-m",
        ],
    )
    def test_bad_parameter_is_domain_error(self, args, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        code, _, err = run_cli([str(path) if a == "FANO" else a for a in args], capsys)
        assert code == 1
        assert json.loads(err)["error"]["type"] == "InvalidParameterError"

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--instances", "0"],
            ["verify", "--instances", "-1"],
            ["color", "FANO", "--budget-nodes", "-1"],
            ["search", "--k", "3", "--max-vertices", "7", "--budget-nodes", "-1"],
            ["color", "FANO", "--budget-ms", "-5"],
            ["search", "--k", "3", "--max-vertices", "12", "--budget-ms", "-5"],
            ["extract", "FANO", "--budget-ms", "-5"],
            ["extract", "FANO", "--budget-ms", "nan"],
            ["construct", "--family", "fano", "--size-cap", "-5"],
            ["construct", "--family", "fano", "--size-cap", "0"],
            ["extract", "FANO", "--t", "2", "--x", "1", "--density", "0"],
            ["extract", "FANO", "--t", "2", "--x", "1", "--density=-1/2"],
            ["extract", "FANO", "--t", "2", "--x", "1", "--density", "5"],
            ["color", "FANO", "--trials", "-3"],
        ],
        ids=[
            "instances-0",
            "instances-neg",
            "color-budget-nodes-neg",
            "search-budget-nodes-neg",
            "color-budget-ms-neg",
            "search-budget-ms-neg",
            "extract-budget-ms-neg",
            "extract-budget-ms-nan",
            "size-cap-neg",
            "size-cap-0",
            "density-0",
            "density-neg",
            "density-above-1",
            "trials-neg",
        ],
    )
    def test_out_of_range_number_exits_2(self, args, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        with pytest.raises(SystemExit) as exc:
            main([str(path) if a == "FANO" else a for a in args])
        assert exc.value.code == 2
        expected = "must be in (0, 1]" if any(a.startswith("--density") for a in args) else "must be at least"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--family", "fano", "--size-cap", "6"],
            ["--family", "random-uniform", "--param", "n=10", "--param", "k=4",
             "--param", "m=12", "--size-cap", "3"],
            ["--family", "iterated-fano", "--param", "m=1", "--size-cap", "3"],
        ],
        ids=["fano", "random-uniform", "iterated-fano"],
    )
    def test_size_cap_applies_to_every_family(self, args, capsys):
        code, stdout, err = run_cli(["construct", *args], capsys)
        assert code == 1 and stdout == ""
        assert json.loads(err)["error"]["type"] == "SizeCapExceededError"
        code, stdout, _ = run_cli(["construct", *args[:-1], "12"], capsys)
        assert code == 0 and stdout

    @pytest.mark.parametrize(
        "args",
        [
            ["--family", "fano"],
            ["--family", "iterated-fano", "--param", "m=1"],
            ["--family", "complete-subsets", "--param", "n=5", "--param", "k=3"],
            ["--family", "ramsey-clique", "--param", "n=5", "--param", "k=3"],
            ["--family", "compose", "--left", "FANO", "--right", "FANO"],
        ],
        ids=["fano", "iterated-fano", "complete-subsets", "ramsey-clique", "compose"],
    )
    def test_unread_seed_is_refused(self, args, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        args = ["construct", *(str(path) if a == "FANO" else a for a in args)]
        code, stdout, err = run_cli([*args, "--seed", "9"], capsys)
        assert (code, stdout) == (1, "")
        message = f"family {args[2]!r} reads no --seed; only random-uniform does"
        assert json.loads(err)["error"] == {"type": "InvalidParameterError", "message": message}
        assert run_cli(args, capsys)[0] == 0

    @pytest.mark.parametrize(
        "seed, text",
        [
            (["--seed", "7"], "10 3\n1 5 7 8\n2 5 6 8\n4 5 6 8\n"),
            ([], "10 3\n1 3 4 7\n1 4 5 9\n2 4 5 7\n"),
            (["--seed", str(DEFAULT_SEED)], "10 3\n1 3 4 7\n1 4 5 9\n2 4 5 7\n"),
        ],
        ids=["seed-7", "no-seed", "default-seed"],
    )
    def test_random_uniform_reads_its_seed(self, seed, text, capsys):
        args = ["construct", "--family", "random-uniform", "--param", "n=10", "--param", "k=4", "--param", "m=3"]
        assert run_cli([*args, *seed], capsys) == (0, text, "")

    def test_random_uniform_with_no_edges(self, capsys):
        args = ["construct", "--family", "random-uniform", "--param", "n=5", "--param", "k=2", "--param", "m=0"]
        assert run_cli(args, capsys)[:2] == (0, "5 0\n")

    @pytest.mark.parametrize("m", [8, 9, 15])
    def test_large_iterated_fano_is_refused_at_once(self, m, capsys):
        # 7^((3^m - 1)/2) has 2,772 digits at m = 8 and more than Python's
        # int-to-str limit from m = 9; the message names the power instead.
        started = time.monotonic()
        code, stdout, err = run_cli(["construct", "--family", "iterated-fano", "--param", f"m={m}"], capsys)
        assert (code, stdout) == (1, "") and time.monotonic() - started < 5
        error = json.loads(err)["error"]
        assert error["type"] == "SizeCapExceededError"
        assert error["message"] == f"iterated Fano at m={m} would have 7^((3^{m} - 1)/2) edges, cap is 10000000"

    def test_large_composition_is_refused_at_once(self, tmp_path, capsys):
        # One 5000-vertex edge over a 10-edge factor: 10^5000 edges.
        left, right = tmp_path / "left.hg", tmp_path / "right.hg"
        left.write_text("5000 1\n" + " ".join(map(str, range(5000))) + "\n")
        run_cli(
            ["construct", "--family", "complete-subsets", "--param", "n=5", "--param", "k=2", "-o", str(right)], capsys
        )
        started = time.monotonic()
        code, stdout, err = run_cli(
            ["construct", "--family", "compose", "--left", str(left), "--right", str(right)], capsys
        )
        assert (code, stdout) == (1, "") and time.monotonic() - started < 5
        error = json.loads(err)["error"]
        assert error == {"type": "SizeCapExceededError", "message": "composition would have 1*10^5000 edges, cap is 10000000"}

    @pytest.mark.parametrize(
        "family, params",
        [
            ("iterated-fano", ["m=16"]),
            ("iterated-fano", ["m=40"]),
            ("complete-subsets", ["n=20000000", "k=10000000"]),
            ("ramsey-clique", ["n=20000000", "k=10000000"]),
            ("random-uniform", ["n=20000000", "k=10000000", "m=20000000"]),
        ],
        ids=["iterated-fano-16", "iterated-fano-40", "complete-subsets", "ramsey-clique", "random-uniform"],
    )
    def test_huge_count_is_refused_within_seconds(self, family, params):
        # Each exact count is too large to compute in time; a fresh process
        # with a timeout turns a hang into a failure.
        args = ["construct", "--family", family]
        for param in params:
            args += ["--param", param]
        proc = run_fresh(["-m", "hyperspec.cli", *args], timeout=5)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr)["error"]["type"] == "SizeCapExceededError"

    def test_range_limits_are_inclusive(self, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        code, stdout, _ = run_cli(["color", str(path), "--budget-nodes", "0", "--budget-ms", "0"], capsys)
        assert code == 0
        assert json.loads(stdout)["status"] == "unknown"
        code, stdout, _ = run_cli(["verify", "--instances", "1"], capsys)
        assert code == 0
        assert json.loads(stdout)["instances"] == 1
        for density in ("1", "1/72"):
            code, _, _ = run_cli(["extract", str(path), "--t", "2", "--x", "1", "--density", density], capsys)
            assert code == 0

    def test_bad_density_exits_2(self, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        run_cli(["construct", "--family", "fano", "-o", str(path)], capsys)
        with pytest.raises(SystemExit) as exc:
            main(["extract", str(path), "--density", "abc"])
        assert exc.value.code == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.hg"
        bad.write_text("2 1\n0 x\n")
        code, _, err = run_cli(["spectrum", str(bad)], capsys)
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("data, line", [(b"\xff\xfe3 1\n0\n", 1), (b"3 1\r\n# caf\xe9\r\n0\r\n", 2)])
    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys, data, line):
        bad = tmp_path / "bad.hg"
        bad.write_bytes(data)
        code, out, err = run_cli(["spectrum", str(bad)], capsys)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith(f"line {line}: byte 0x")

    def test_four_spellings_of_one_family_give_the_same_json(self, tmp_path, capsys):
        # Canonical text takes the numpy pass; the other three take the line loop.
        canonical = serialize_hypergraph(random_uniform(100, 4, 60, seed=2))
        header, *edges = canonical.splitlines()
        texts = {
            "canonical": canonical,
            "crlf": canonical.replace("\n", "\r\n"),
            "comments": f"# family\n\n{header}\n" + "".join(f"  # edge {i}\n\n{e}\n" for i, e in enumerate(edges)),
            "spellings": f"+{header}\n" + "".join(" ".join(f"+{v}" if v[0] < "5" else f"00{v}" for v in e.split()) + "\n" for e in edges),
        }
        assert [core._parse_plain(text) is not None for text in texts.values()] == [True, False, False, False]
        outputs = set()
        for name, text in texts.items():
            path = tmp_path / f"{name}.hg"
            path.write_bytes(text.encode())
            code, spectrum, _ = run_cli(["spectrum", str(path)], capsys)
            assert code == 0
            code, color, _ = run_cli(["color", str(path), "--trials", "200", "--seed", "3"], capsys)
            assert code == 0
            outputs.add((spectrum, json.dumps(oracles.strip_timings(json.loads(color)), sort_keys=True)))
        assert len(outputs) == 1
