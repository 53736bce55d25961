import importlib.util
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import phasestab
from phasestab import A0Config, ValidationError, estimation, injectivity, robustness
from phasestab import cli
from phasestab.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
cli_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digest)


def subprocess_env() -> dict:
    """Environment for a child interpreter that imports the same phasestab
    as this one, however that one was put on the path."""
    src = str(Path(phasestab.__file__).resolve().parent.parent)
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def schema(name):
    text = resources.files("phasestab.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def validate(doc, name):
    jsonschema.validate(doc, schema(name))


class TestCertify:
    def test_fixture_json_and_schema(self, capsys):
        code, out = run_cli(["certify", "--fixture", "mb3"], capsys)
        assert code == 0
        doc = json.loads(out)
        validate(doc, "certificate")
        assert doc["retrievable"] is True
        assert abs(doc["a0"] - 0.375) < 1e-6

    def test_not_retrievable_fixture(self, capsys):
        code, out = run_cli(["certify", "--fixture", "basis2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["retrievable"] is False
        assert doc["witness_bits"] is not None

    def test_missing_file_exit_2(self, capsys):
        code, _ = run_cli(["certify", "/nonexistent/frame.json"], capsys)
        assert code == 2

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(["certify", str(bad)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "name, data",
        [
            ("strings.json", b'{"dim": 2, "count": 2, "columns": [["a", "b"], [1, 2]]}'),
            ("null.json", b'{"dim": 2, "count": 2, "columns": null}'),
            ("ragged.json", b'{"dim": 2, "count": 2, "columns": [[1, 2], 3]}'),
            ("negative.json", b'{"dim": -2, "count": 2, "columns": [[1, 2], [3, 4]]}'),
            ("latin1.json", b'{"dim": 2, "count": 1, "columns": [[1, 2]], "note": "\xe9"}'),
            ("latin1.csv", b"1,2\n3,\xe9\n"),
        ],
        ids=["strings", "null", "ragged", "negative-dim", "non-utf8-json", "non-utf8-csv"],
    )
    def test_malformed_frame_exit_2(self, name, data, capsys, tmp_path):
        path = tmp_path / name
        path.write_bytes(data)
        code = main(["certify", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ")
        if name.startswith("latin1"):
            assert str(path) in captured.err

    @pytest.mark.parametrize("where", ["frame", "out"])
    def test_directory_path_exit_2(self, where, capsys, tmp_path):
        folder = tmp_path / "x.json"
        folder.mkdir()
        argv = [str(folder)] if where == "frame" else ["--fixture", "mb3", "--out", str(folder)]
        code = main(["certify", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ")

    def test_complement_over_budget_at_2n_minus_1(self, capsys, monkeypatch):
        # m = 2n - 1: full spark shares the complement check's C(m, n) cap,
        # so it is skipped with it and the a0 search alone decides
        monkeypatch.setattr(injectivity, "FULL_SPARK_BUDGET", 1)
        code, out = run_cli(["certify", "--fixture", "mb3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["method"], doc["retrievable"], doc["witness_bits"]) == ("a0_positive", True, None)

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        code, _ = run_cli(["certify", "--fixture", "mb3", "-o", str(out_file)], capsys)
        assert code == 0
        validate(json.loads(out_file.read_text()), "certificate")


class TestConstants:
    def test_schema_and_chain(self, capsys):
        code, out = run_cli(["constants", "--fixture", "gauss_4x11"], capsys)
        assert code == 0
        doc = json.loads(out)
        validate(doc, "constants")
        assert doc["Delta"] <= doc["omega"] + 1e-9
        assert doc["omega"] ** 2 <= doc["A"] + 1e-9
        assert doc["A"] <= doc["B"] + 1e-9

    def test_tau_over_budget_prints_nan(self, capsys, monkeypatch):
        # pins a silent fallback: tau over FULL_SPARK_BUDGET is printed as the
        # non-standard JSON literal NaN, with a false flag, and the run
        # succeeds; omega falls back to its sampled upper bound
        monkeypatch.setattr(injectivity, "FULL_SPARK_BUDGET", 1)
        code, out = run_cli(["constants", "--fixture", "mb3"], capsys)
        assert code == 0
        assert '\n  "tau": NaN,\n' in out
        flags = json.loads(out)["exact_flags"]
        assert (flags["Delta"], flags["omega"], flags["tau"]) == (True, False, False)

    @pytest.mark.parametrize("name", cli.FIXTURES)
    def test_prints_computed_bounds_and_a0(self, name, capsys):
        # the values computed, not the squares of their rounded roots
        _, out = run_cli(["constants", "--fixture", name], capsys)
        _, cert = run_cli(["certify", "--fixture", name], capsys)
        doc = json.loads(out)
        frame = phasestab.load_frame(str(resources.files("phasestab.fixtures") / f"{name}.json"))
        assert (doc["A"], doc["B"]) == phasestab.frame_bounds(frame)
        assert doc["a0"] == json.loads(cert)["a0"]

    def test_degenerate_frame(self, capsys):
        code, out = run_cli(["constants", "--fixture", "basis2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["Delta"] == 0.0

    def test_small_scale_frame(self, capsys, tmp_path):
        # Lambda_F's search has no absolute tolerance, so its two routes
        # agree on a frame of column norms about 0.17
        path = tmp_path / "small.csv"
        mat = np.random.default_rng(1).standard_normal((3, 7)) * 0.1
        path.write_text(phasestab.dump_frame_csv(phasestab.Frame(mat)))
        code, out = run_cli(["constants", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["lambdaF"] > 0


class TestStability:
    def test_schema(self, capsys):
        code, out = run_cli(
            ["stability", "--fixture", "mb3", "--x", "0.6,0.8", "--eps", "0.1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        validate(doc, "stability")
        assert doc["Q_estimate"] <= doc["bracket"][1] + 1e-9

    def test_bad_vector_exit_2(self, capsys):
        code, _ = run_cli(
            ["stability", "--fixture", "mb3", "--x", "1,2,3", "--eps", "0.1"], capsys
        )
        assert code == 2

    def test_nonpositive_eps_exit_2(self, capsys):
        code, _ = run_cli(
            ["stability", "--fixture", "mb3", "--x", "1,0", "--eps", "-1"], capsys
        )
        assert code == 2

    def test_each_subset_constant_computed_once(self, capsys, monkeypatch):
        calls = {"delta": 0, "omega": 0, "tau": 0}

        def counted(name):
            original = getattr(robustness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(robustness, name, counted(name))
        code, _ = run_cli(
            ["stability", "--fixture", "mb3", "--x", "0.6,0.8", "--eps", "0.1"], capsys
        )
        assert code == 0
        assert calls == {"delta": 1, "omega": 1, "tau": 1}

    @pytest.mark.parametrize(
        "name, x", [("basis2", "0.6,0.8"), ("basis3", "0.6,0.48,0.64"), ("repeated", "0.6,0.8")]
    )
    def test_not_retrievable_fixtures_unbounded(self, name, x, capsys):
        # Delta = 0: the local theorem behind Q_theory = 1/sqrt(A) does not
        # apply, and `bracket` repeats the unbounded `brackets`
        code, out = run_cli(["stability", "--fixture", name, f"--x={x}", "--eps", "0.07"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["Q_theory"] is None and doc["brackets"]["unbounded"]
        assert doc["bracket"] == [doc["brackets"]["lower"], doc["brackets"]["upper"]]

    def test_exact_delta_over_budget_exit_3(self, capsys, tmp_path):
        # 2^20 partitions: exact Delta is over its 2^18 budget, so the brackets
        # cannot be exact and the call fails before any output
        mat = np.random.default_rng(21).standard_normal((3, 21))
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dim": 3, "count": 21, "columns": mat.T.tolist()}))
        code, out = run_cli(["stability", str(path), "--x", "1,0,0", "--eps", "0.1"], capsys)
        assert code == 3
        assert out == ""


    def test_non_spanning_frame_exit_2(self, capsys, tmp_path):
        # columns e1, e2 in R^3: e3 is invisible to the frame, so Q_eps(x) is
        # infinite and no finite estimate is printed
        path = tmp_path / "plane.json"
        path.write_text(json.dumps({"dim": 3, "count": 2, "columns": [[1, 0, 0], [0, 1, 0]]}))
        code = main(["stability", str(path), "--x", "1,0.5,0.2", "--eps", "0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--fixture", "mb3", "--x", "nan,1", "--eps", "0.1"],
            ["stability", "--fixture", "mb3", "--x", "0.6,0.8", "--eps", "nan"],
            ["stability", "--fixture", "mb3", "--x", "0.6,0.8", "--eps", "inf"],
            ["crlb", "--fixture", "mb3", "--x", "inf,0", "--sigma", "0.1"],
            ["simulate", "--fixture", "mb3", "--x", "nan,0.8", "--sigma", "0.01", "--trials", "5"],
        ],
        ids=["stability-x", "stability-eps-nan", "stability-eps-inf", "crlb-x", "simulate-x"],
    )
    def test_exit_2(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["certify"], "provide a frame file or --fixture NAME"),
            (["stability", "--fixture", "mb3", "--x=abc", "--eps", "0.1"],
             "--x: not a comma-separated float list (could not convert string to float: 'abc')"),
        ],
        ids=["no-frame", "x-not-floats"],
    )
    def test_exit_2(self, argv, message, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


class TestBadCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--fixture", "gauss_4x11", "--restarts", "-1"],
            ["constants", "--fixture", "mb3", "--restarts", "-1"],
            ["stability", "--fixture", "mb3", "--x", "0.6,0.8", "--eps", "0.1", "--restarts", "-1"],
            ["simulate", "--fixture", "mb3", "--x", "0.6,0.8", "--sigma", "0.01",
             "--trials", "5", "--restarts", "-2"],
            ["simulate", "--fixture", "mb3", "--x", "0.6,0.8", "--sigma", "0.01",
             "--trials", "5", "--restarts", "0"],
            ["random-study", "--study", "minimal", "--n-list", "3", "--subset-budget", "0"],
        ],
        ids=["certify", "constants", "stability", "simulate", "simulate-zero-restarts",
             "random-study-budget"],
    )
    def test_exit_2(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "config, least",
        [(A0Config, 0), (robustness.QepsConfig, 0), (estimation.LSConfig, 1)],
        ids=["A0Config", "QepsConfig", "LSConfig"],
    )
    def test_configs_reject_negative_restarts(self, config, least):
        # A0Config and QepsConfig count random starts only; LSConfig counts
        # the spectral start too, so it needs at least one
        assert config(restarts=least).restarts == least
        with pytest.raises(ValidationError, match=f"restarts must be >= {least}, got {least - 1}"):
            config(restarts=least - 1)
        with pytest.raises(ValidationError, match=f"restarts must be >= {least}, got -1"):
            config(restarts=-1)
        # the one count rule: numpy integers count, floats and bools do not
        assert config(restarts=np.int64(least + 2)).restarts == least + 2
        for value in (2.5, True):
            with pytest.raises(ValidationError, match=f"restarts must be an integer, got {value}"):
                config(restarts=value)

    def test_negative_subset_budget_exit_2(self, capsys, tmp_path):
        # 2^20 partitions: Delta would be sampled, over a budget of -5
        mat = np.random.default_rng(21).standard_normal((3, 21))
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dim": 3, "count": 21, "columns": mat.T.tolist()}))
        code = main(["constants", str(path), "--subset-budget", "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --subset-budget must be >= 1, got -5\n"


def _mb3_columns() -> np.ndarray:
    text = resources.files("phasestab.fixtures").joinpath("mb3.json").read_text()
    return np.array(json.loads(text)["columns"]).T


def _duplicated_3x5() -> np.ndarray:
    mat = np.random.default_rng(9).standard_normal((3, 5))
    mat[:, 1] = mat[:, 0]
    return mat


EXTREME_FRAMES = {
    "gauss_2x2": lambda: np.random.default_rng(1).standard_normal((2, 2)),
    "duplicated_3x5": _duplicated_3x5,
    "gauss_3x5_1e160": lambda: np.random.default_rng(1).standard_normal((3, 5)) * 1e160,
    "gauss_2x4_1e80": lambda: np.random.default_rng(0).standard_normal((2, 4)) * 1e80,
    "gauss_2x4_1e-80": lambda: np.random.default_rng(0).standard_normal((2, 4)) * 1e-80,
    "mb3_1e-160": lambda: _mb3_columns() * 1e-160,
}


class TestExtremeFrames:
    """Frames below the 2n - 1 threshold, with a rank-deficient side, or
    scaled near the ends of the float range.  Each command runs in a child
    interpreter with a timeout, so a hang fails instead of blocking."""

    @staticmethod
    def run(tmp_path, name, argv):
        mat = EXTREME_FRAMES[name]()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"dim": mat.shape[0], "count": mat.shape[1],
                                    "columns": mat.T.tolist()}))
        return subprocess.run(
            [sys.executable, "-m", "phasestab.cli", argv[0], str(path), *argv[1:]],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )

    @pytest.mark.parametrize(
        "name, x",
        [("gauss_2x2", "1,1"), ("duplicated_3x5", "1,1,1")],
    )
    def test_stability_reports_unbounded(self, tmp_path, name, x):
        # Delta = 0 below the threshold; omega = 0 with Delta a rounding
        # residue where a side of n columns is rank deficient
        proc = self.run(tmp_path, name, ["stability", "--x", x, "--eps", "0.1"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["brackets"]["unbounded"] is True

    def test_constants_below_threshold(self, tmp_path):
        proc = self.run(tmp_path, "gauss_2x2", ["constants"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["Delta"] == 0.0

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("gauss_3x5_1e160", ["stability", "--x", "1,1,1", "--eps", "0.1"]),
            ("gauss_2x4_1e80", ["constants"]),
            ("gauss_2x4_1e-80", ["constants"]),
        ],
    )
    def test_unsolvable_scales_exit_2(self, tmp_path, name, argv):
        # numpy's overflow warnings may come first
        proc = self.run(tmp_path, name, argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: ")

    def test_line_search_ends_at_tiny_scale(self, tmp_path):
        proc = self.run(tmp_path, "mb3_1e-160", ["stability", "--x=1,1", "--eps", "0.1"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["Q_estimate"] >= 0


class TestCrlb:
    def test_schema_and_values(self, capsys):
        code, out = run_cli(
            ["crlb", "--fixture", "mb3", "--x", "0.6,0.8", "--sigma", "0.1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        validate(doc, "crlb")
        assert doc["crlb_trace"] <= doc["mse_upper"] + 1e-12

    def test_fisher_matrix_built_once(self, capsys, monkeypatch):
        calls = []
        original = estimation.fisher_info
        monkeypatch.setattr(
            estimation, "fisher_info", lambda *args: calls.append(1) or original(*args)
        )
        code, out = run_cli(
            ["crlb", "--fixture", "mb3", "--x", "0.6,0.8", "--sigma", "0.1"], capsys
        )
        assert code == 0 and len(calls) == 1
        frame = phasestab.load_frame(str(resources.files("phasestab.fixtures") / "mb3.json"))
        assert json.loads(out)["fisher"] == original(frame, np.array([0.6, 0.8]), 0.1).tolist()

    def test_singular_fisher_exit_2(self, capsys):
        code = main(["crlb", "--fixture", "basis2", "--x", "1,0", "--sigma", "0.1"])
        err = capsys.readouterr().err
        assert code == 2
        # plain floats, not numpy reprs
        assert "np.float64" not in err
        assert err == "error: Fisher information singular at x=[1.0, 0.0]: lambda_min=0.0\n"


class TestSimulate:
    def test_schema_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "trials.csv"
        code, out = run_cli(
            [
                "simulate", "--fixture", "mb3", "--x", "0.6,0.8",
                "--sigma", "0.01", "--trials", "20", "--csv-out", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        validate(json.loads(out), "simulate")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,residual,d"
        assert len(lines) == 21


class TestRandomStudy:
    def test_minimal_schema(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, out = run_cli(
            [
                "random-study", "--study", "minimal", "--n-list", "3,4",
                "--trials", "3", "--csv-out", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        validate(json.loads(out), "random_study")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,m,trial,statistic,value,exact"
        assert len(lines) == 7

    def test_outdir_receives_both_files(self, capsys, tmp_path, monkeypatch):
        # with PHASESTAB_OUTDIR set and no explicit paths, nothing goes to
        # stdout and the default file names land in that directory
        argv = ["random-study", "--study", "tau", "--n-list", "3", "--trials", "2"]
        _, expected = run_cli(argv, capsys)
        monkeypatch.setenv("PHASESTAB_OUTDIR", str(tmp_path))
        code, out = run_cli(argv, capsys)
        assert (code, out) == (0, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["random_study.csv", "random_study.json"]
        written = (tmp_path / "random_study.csv").read_text() + (tmp_path / "random_study.json").read_text()
        assert written == expected

    def test_budget_exceeded_exit_3(self, capsys):
        code, _ = run_cli(
            ["random-study", "--study", "minimal", "--n-list", "20", "--trials", "1"],
            capsys,
        )
        assert code == 3

    @pytest.mark.parametrize("n_list", ["3,x", "3,0", "-1", "2.5", ""])
    def test_bad_n_list_exit_2(self, n_list, capsys):
        code = main(["random-study", "--study", "minimal", "--n-list", n_list, "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --n-list")

    @pytest.mark.parametrize("study", ["minimal", "tau", "redundancy"])
    def test_zero_trials_exit_2(self, study, capsys):
        code = main(["random-study", "--study", study, "--n-list", "3", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: trials must be >= 1, got 0\n"


SEED_ARGV = [
    ["certify", "--fixture", "mb3"],
    ["constants", "--fixture", "mb3"],
    ["stability", "--fixture", "mb3", "--x", "0.6,0.8", "--eps", "0.1"],
    ["crlb", "--fixture", "mb3", "--x", "0.6,0.8", "--sigma", "0.1"],
    ["simulate", "--fixture", "mb3", "--x", "1,0", "--sigma", "0.1", "--trials", "5"],
    ["random-study", "--study", "minimal", "--n-list", "3", "--trials", "1"],
]


class TestSeedRange:
    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**64, -(2**63) - 1])
    @pytest.mark.parametrize("argv", SEED_ARGV, ids=[a[0] for a in SEED_ARGV])
    def test_out_of_range_exit_2(self, argv, seed, capsys):
        code = main(argv + ["--seed", str(seed)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --seed must be in [-2^63, 2^63), got {seed}\n"

    @pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
    def test_int64_ends_run(self, seed, capsys):
        code, out = run_cli(SEED_ARGV[4] + ["--seed", str(seed)], capsys)
        assert code == 0
        assert out.split("trial,residual,d\n")[1].count("\n") == 5


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        for _ in range(3):
            assert run_cli(["certify", "--fixture", "basis2"], capsys)[0] == 0
        assert main(["certify", "--no-such-flag"]) == 2
        assert len(builds) == 1

    def test_help_usage_error_then_a_run_match_fresh_processes(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        runs = [["--help"], ["certify", "--no-such-flag"], ["certify", "--fixture", "mb3"]]
        for argv, want in zip(runs, [0, 2, 0]):
            code = main(argv)
            captured = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "phasestab.cli", *argv],
                capture_output=True, text=True, env={**subprocess_env(), "COLUMNS": "80"},
            )
            assert code == proc.returncode == want
            assert (captured.out, captured.err) == (proc.stdout, proc.stderr)


class TestReproducibility:
    def test_byte_identical_reruns(self, capsys):
        outs = []
        for _ in range(2):
            code, out = run_cli(
                [
                    "simulate", "--fixture", "gauss_4x11", "--x", "1,0,0,0",
                    "--sigma", "0.05", "--trials", "10", "--seed", "42",
                ],
                capsys,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_console_script_matches_main(self, capsys):
        _, inproc = run_cli(["certify", "--fixture", "mb3"], capsys)
        proc = subprocess.run(
            [sys.executable, "-m", "phasestab.cli", "certify", "--fixture", "mb3"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == inproc

    def test_import_leaves_scipy_out(self):
        # scipy is a test dependency only; importing it cost most of the
        # CLI's start-up time
        code = (
            "import phasestab, phasestab.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_floats_survive_json_roundtrip_exactly(self, capsys):
        _, out = run_cli(["certify", "--fixture", "mb3"], capsys)
        doc = json.loads(out)
        # 17 significant digits: parsing and re-serializing is lossless
        assert doc["a0"] == float(repr(doc["a0"]))


# Each recipe of tools/cli_digest.py with its digest: exit code and the
# SHA-256 of stdout, stderr and each written file, as the tool prints them.
# A change that moves an output byte updates its line here on purpose.
PINNED = dict(line.split(": ", 1) for line in """\
certify --fixture mb3: exit=0 stdout=156c565bede0ebfc89c60bdbc59d593061f43a7725f8166ae6840ef1cdefcb0a stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
constants --fixture mb3: exit=0 stdout=8522549494dfdf0c4f09fd42dda1516b503c78d1332927ee0febcee49b0a63cd stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
certify --fixture basis2: exit=0 stdout=f090b592267934cdee1f767afb8f157ce678d2138bd9824a582c058eb68df7bf stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
constants --fixture basis2: exit=0 stdout=9fd2fdf8a1cc7eb00a11020f29399d7e0fc4088832718a10cfb80c5f10bcca47 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
certify --fixture basis3: exit=0 stdout=f7047245e73a40453e45661cb33390dc5dc48f2679f4d4b599fca09ac36efa58 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
constants --fixture basis3: exit=0 stdout=06a1a65b2515f0b6f60b97bd4d53def8f0af6c62b28ff4c0cdf51503bd160367 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
certify --fixture repeated: exit=0 stdout=6955e69482e599d1d9325807dd2d624baecd4b323a22ff29386ae308f6940b6b stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
constants --fixture repeated: exit=0 stdout=00ddcf623d710037b2db53aa684e784690a7fcaa19eed8211d846bd3755655da stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
certify --fixture gauss_4x11: exit=0 stdout=5b4590aed1e0e82542d4d0f15f978d94e247121fd3cd0083c7099c5cc337a567 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
constants --fixture gauss_4x11: exit=0 stdout=67258348516ca38f5d2151ad2ac0892122a6473c5ee0c59631ea75fd334c2d35 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
crlb --fixture mb3 --x=0.6,0.8 --sigma 0.1: exit=0 stdout=8b62791e0f5106a6235663788b2cbe8fdcb33c77124d8e3c3bfed4b35c57e97f stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
crlb --fixture basis2 --x=0.6,0.8 --sigma 0.1: exit=0 stdout=b9b5ed67b1d4921c22a4698af1eb411b9695ceb34605da97f9f89befed05fa7f stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
crlb --fixture basis3 --x=0.6,0.48,0.64 --sigma 0.1: exit=0 stdout=de3849cb4335a1c83138fce6fd17613fb193b6bf7bb94e726a48ada9698f04db stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
crlb --fixture repeated --x=0.6,0.8 --sigma 0.1: exit=0 stdout=f103897e63a90d78e1c13e6e31aef77f6a2862a52a29810a29c6b60bcbefad13 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
crlb --fixture gauss_4x11 --x=0.5,0.5,0.5,0.5 --sigma 0.1: exit=0 stdout=47ab0d75ae75baef5dc2ceb4a0d5846ca2ddc28d5d64a51bf314e59a9b543654 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
stability --fixture mb3 --x=0.6,0.8 --eps 0.07: exit=0 stdout=891c28dc941392604348e6153787845b4efc8af758dcab73487253978e0385ba stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
stability --fixture gauss_4x11 --x=0.5,0.5,0.5,0.5 --eps 0.07: exit=0 stdout=2368084f3bd7e0a074f46f6c3a8cabd4072bea328928f0e2b9f33a74edb23b0b stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
stability --fixture basis2 --x=0.6,0.8 --eps 0.07: exit=0 stdout=93a3b8d0386be35bdd080914a1e2b79e54fc661045bb9dd898d2802f209d3c31 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
stability --fixture basis3 --x=0.6,0.48,0.64 --eps 0.07: exit=0 stdout=91f2b2c4336f3419fd372017aa33c4e11ca26c0e6d001a815c325976a4d8c9e4 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
stability --fixture repeated --x=0.6,0.8 --eps 0.07: exit=0 stdout=18f338168ac75f9be4b99ad578dfded16cf9c8854512990063e428984d32c54a stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
stability --fixture mb3 --x=0.6,0.8 --eps 1e-9: exit=0 stdout=0869c7562e93e4bb497c22ea2879c7ceda92f8379c7f810884f916dbcc2c9b6c stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
stability --fixture mb3 --x=0.6,0.8 --eps 10: exit=0 stdout=568a2642d3806013eb76038e3375109e8b1fd6453387065096b7b53631d40259 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
stability --fixture gauss_4x11 --x=0.5,0.5,0.5,0.5 --eps 1e-9: exit=0 stdout=701728106c8e040b811f62267068b6bd3951125ccf85b46dcbbd6d6d0f4d8ec8 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
stability --fixture gauss_4x11 --x=0.5,0.5,0.5,0.5 --eps 10: exit=0 stdout=96b41aaa9a4a4cb1dea8c86933b1efd5c4d6a7c016887be8c57e96591c1d6b1e stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
certify --fixture mb3 --out {tmp}/cert.json: exit=0 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 cert.json=156c565bede0ebfc89c60bdbc59d593061f43a7725f8166ae6840ef1cdefcb0a
simulate --fixture mb3 --x=0.6,0.8 --sigma 0.01 --trials 20: exit=0 stdout=9263e4bdce0ec4c2a1eba12f3d77c8f4fa41b639d9bec940b8fd51a6e1ca6954 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
simulate --fixture mb3 --x=0.6,0.8 --sigma 0.01 --trials 20 --out {tmp}/sim.json --csv-out {tmp}/sim.csv: exit=0 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 sim.csv=222b14fae078a87486d536306757ef3c0d1c9934c040bb18db42b173631a4afe sim.json=6eaafc81a2c30a18dcc958cd0b1f8cd2126ce30054f0b79ea95ca9efefc48b9a
PHASESTAB_OUTDIR={tmp} simulate --fixture mb3 --x=0.6,0.8 --sigma 0.01 --trials 20: exit=0 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 simulate.csv=222b14fae078a87486d536306757ef3c0d1c9934c040bb18db42b173631a4afe simulate.json=6eaafc81a2c30a18dcc958cd0b1f8cd2126ce30054f0b79ea95ca9efefc48b9a
PHASESTAB_OUTDIR={tmp} simulate --fixture mb3 --x=0.6,0.8 --sigma 0.01 --trials 20 --out {tmp}/explicit.json: exit=0 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 explicit.json=6eaafc81a2c30a18dcc958cd0b1f8cd2126ce30054f0b79ea95ca9efefc48b9a simulate.csv=222b14fae078a87486d536306757ef3c0d1c9934c040bb18db42b173631a4afe
random-study --study minimal --n-list 3,4,5,6 --trials 3 --seed 9: exit=0 stdout=7d9291beb6fa52cc4f554a31e0f6d2c4455f2db497a7bb8692a3f0f9883b4bf7 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
random-study --study tau --n-list 3,4,5 --k 2 --trials 4 --seed 9: exit=0 stdout=3069af1199e37194f8207d3fb8380c5a5af644cf167021c57bdd0a23156a3d08 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
random-study --study redundancy --n-list 2,3,4 --trials 3 --seed 9: exit=0 stdout=183fb62bb08c634655f3871fd7b80e773e620d37af736afcd246538c275a1eab stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
random-study --study redundancy --n-list 3,8 --trials 2 --subset-budget 128 --seed 9: exit=0 stdout=c3ef1175fb801c63a3f48be9bae0b884b3e9b99a80e74942899eaee756e0fe84 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
random-study --study minimal --n-list 3,3 --trials 2 --seed 9: exit=0 stdout=1d93280abc08433acbc92525a826e12143af26e7c4acc582a53125324a4ac110 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
random-study --study minimal --n-list 6 --trials 2 --seed 1660507856: exit=0 stdout=a2cbe7437dba48edbeb5e8c17302f91ab00c3e9ec22b5863abe35733ff1d8608 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
PHASESTAB_OUTDIR={tmp} random-study --study tau --n-list 3 --trials 2: exit=0 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 random_study.csv=59cdec96861d0927f47c1ae2ff80afd3d2f6c4e2cc9e0c37c3df0c302061ca95 random_study.json=1f244030bc1bfe7cff1dc02d5e2eabfda35c31c75dab83ab13a436c0aeafe1b2
certify: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=f08dc00e0b8bc29f795b0003a08adee7e2bc72ace57717d675a9ef70727c8ada
stability --fixture mb3 --x=abc --eps 0.1: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=3e9f6140b86236caf5df9c50688823a2534db7d6e24564b21d4f33d746d76a2b
crlb --fixture mb3 --x=1,2,3 --sigma 0.1: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=70ab8c714d48feeec47bf187c4f5ff0cff3ab461171bb251eecaab043566750e
certify --fixture mb3 --seed 9223372036854775808: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=2612cb77caca87595285e3223c6415c68967f646a74aa533eaa9e8f3ff557b1b
certify --fixture mb3 --out {tmp}: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=f66e21957dd0175ddc8c2a5b7742bd68f666c9a4e4354c37bcc518d14d227278
constants --fixture mb3 --subset-budget 0: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=b967f0524b5eb1810f6deecec6a8993a32093a75d163548ad28bddf4cbc33ae2
random-study --study minimal --n-list 3,x --trials 1: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=18b18203644c2d3f9a7e13002588da53aab6350b231d0f8c4a44348e72be44ea
random-study --study redundancy --n-list 3 --trials 1 --r0 inf: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=3fdf78cc4414447d774fc6ee31762f372f5a4a525d751e77d795487117c02772
crlb --fixture mb3 --x=0.6,0.8 --sigma 0: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=766fc4a9e237238b5e7b44757d05fdba1f569476b5741147783862dc17ebf573
simulate --fixture mb3 --x=0.6,0.8 --sigma -1 --trials 5: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=be2a5772d6a88a788a596c0d9048078373ddbaac14d68083de20a416f77e4ca5
simulate --fixture mb3 --x=0.6,0.8 --sigma 0.1 --trials 0: exit=2 stdout=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 stderr=725ae5a3d942f16a0eab5fc8bbfe24d57cb51c738771b8c91f4d4ca8c6a0dc08
--help: exit=0 stdout=97ecdef93119a180a8902f84c3c237fc534bad7756ba6a505502c4c757de5542 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
certify --help: exit=0 stdout=b6e26f398836b243d6ec67f12c48bffad08169c5da053940d591549b41bcebf0 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
constants --help: exit=0 stdout=d67ac91d489c8bda7a3241666589d3d26b50b0e586a9da2257a0c1b5de59c951 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
stability --help: exit=0 stdout=46cbac918f534a610f10a0157970f0fda6f7ef2248c46b1e7c7f4e121daf9ccf stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
crlb --help: exit=0 stdout=f6e46a5bec629dbbcf82505c649aea2f51ae846f456e625bd7ac3c98d6286e5e stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
simulate --help: exit=0 stdout=16327398df649aad34a99ac5f08d19094cf034dfca2555da10d7c447c4cd38b2 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
random-study --help: exit=0 stdout=b3e0c42ee78c124b5e830822cc74604751f7f9190219f517d1311f729946e990 stderr=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
""".splitlines())


@pytest.mark.parametrize("recipe", cli_digest.RECIPES)
def test_output_pinned(recipe):
    assert cli_digest.digest(recipe) == PINNED[recipe]
