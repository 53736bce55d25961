import hashlib
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

    def test_degenerate_frame(self, capsys):
        code, out = run_cli(["constants", "--fixture", "basis2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["Delta"] == 0.0


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

    @pytest.mark.parametrize(
        "name, x, sha256",
        [
            ("mb3", "0.6,0.8", "5fab386209eeb3f61212860f501ad4472a5ce900ebcc4d1320a4ec3d75a927f6"),
            (
                "gauss_4x11", "0.5,0.5,0.5,0.5",
                "2368084f3bd7e0a074f46f6c3a8cabd4072bea328928f0e2b9f33a74edb23b0b",
            ),
        ],
    )
    def test_retrievable_fixtures_pinned(self, name, x, sha256, capsys):
        # phase-retrievable frames: Q_theory and both bracket fields as before
        # the two bracket rules became one
        code, out = run_cli(["stability", "--fixture", name, f"--x={x}", "--eps", "0.07"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

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
        code, _ = run_cli(
            ["crlb", "--fixture", "basis2", "--x", "1,0", "--sigma", "0.1"], capsys
        )
        assert code == 2


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

    # stdout SHA-256 of each study, taken when each study still ran its own
    # n x trial loop; the shared loop must reproduce them byte for byte
    @pytest.mark.parametrize(
        "argv, sha256",
        [
            ("minimal --n-list 3,4,5,6 --trials 3",
             "7d9291beb6fa52cc4f554a31e0f6d2c4455f2db497a7bb8692a3f0f9883b4bf7"),
            ("tau --n-list 3,4,5 --k 2 --trials 4",
             "3069af1199e37194f8207d3fb8380c5a5af644cf167021c57bdd0a23156a3d08"),
            ("redundancy --n-list 2,3,4 --trials 3",
             "183fb62bb08c634655f3871fd7b80e773e620d37af736afcd246538c275a1eab"),
            ("redundancy --n-list 3,8 --trials 2 --subset-budget 128",
             "c3ef1175fb801c63a3f48be9bae0b884b3e9b99a80e74942899eaee756e0fe84"),
            ("minimal --n-list 3,3 --trials 2",
             "1d93280abc08433acbc92525a826e12143af26e7c4acc582a53125324a4ac110"),
        ],
    )
    def test_stdout_pinned(self, argv, sha256, capsys):
        code, out = run_cli(["random-study", "--study", *argv.split(), "--seed", "9"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

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
        assert captured.err == "error: trials must be >= 1\n"


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
