"""Tests of the benchmark itself: metrics emitted, failures counted, tracing
transparent.  Run with `python -m pytest perfbench/tests -q`."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import phasestab.cli  # noqa: E402
from phasestab import Frame, estimation, injectivity, random_frames, robustness  # noqa: E402
from phasestab import frame_core  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_ONLY = {
    "desk": ("certify_p50_ms", "constants_p50_ms", "stability_p50_ms", "crlb_p50_ms"),
    "montecarlo": ("trials_per_s",),
}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert set(last["metrics"]) == {m["name"] for m in SPEC[section]}
        for m in SPEC[section]:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]
        if trace == 0:
            for name, _ in run.REPORTED:
                assert f"   {name} " in proc.stdout
            report = json.loads(
                (BENCH / "results" / f"{workload}-seed0-trace0.json").read_text()
            )
            for name in WORKLOAD_ONLY.get(workload, ()):
                assert report[name] > 0
            assert report["fail_ratio"] == 0
        else:
            assert "tracing_overhead_s" in proc.stdout


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _corrupt_tau(monkeypatch):
    original = robustness.tau
    monkeypatch.setattr(robustness, "tau", lambda frame: original(frame) * 1.5)
    return "subsets", "tau"


def _corrupt_certify(monkeypatch):
    original = phasestab.cli.phase_retrievable

    def flipped(frame, cfg=None):
        cert = original(frame, cfg)
        cert.retrievable = not cert.retrievable
        return cert

    monkeypatch.setattr(phasestab.cli, "phase_retrievable", flipped)
    return "desk", "certify"


def _corrupt_simulate(monkeypatch):
    original = estimation.ls_estimate
    monkeypatch.setattr(estimation, "ls_estimate", lambda frame, y, cfg=None: 1.1 * original(frame, y, cfg))
    return "montecarlo", "simulate"


@pytest.mark.parametrize("corrupt", [_corrupt_tau, _corrupt_certify, _corrupt_simulate])
def test_corrupted_results_count_in_fail_ratio(corrupt, monkeypatch, tmp_path):
    name, kind = corrupt(monkeypatch)
    wl = workloads.build(name, 0, "tiny", tmp_path)
    runner = worker.Runner(wl)
    runner.run_pass(0)
    failed_kinds = {line.split(" ", 3)[2] for line in runner.failures}
    assert runner.attempted == len(wl.ops)
    assert failed_kinds == {kind}
    assert 0 < len(runner.failures) / runner.attempted <= 1


def test_clean_tiny_passes_have_no_failures(tmp_path):
    for name in workloads.WORKLOADS:
        runner = worker.Runner(workloads.build(name, 1, "tiny", tmp_path))
        runner.run_pass(0)
        assert runner.failures == []


def _outputs():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((3, 5))
    frame = Frame(mat / np.linalg.norm(mat, axis=0))
    cli_out = io.StringIO()
    with contextlib.redirect_stdout(cli_out):
        rc = phasestab.cli.main(["constants", "--fixture", "mb3"])
    y = estimation.simulate_measurements(frame, np.ones(3), estimation.NoiseModel(0.05), 3)
    return {
        "cli": (rc, cli_out.getvalue()),
        "a0": injectivity.a0(frame),
        "delta": robustness.delta(frame, mode="exact"),
        "omega_sampled": robustness.omega(frame, mode="sampled", budget=16),
        "ls": estimation.ls_estimate(frame, y),
        "study": random_frames.minimal_redundancy_study([3], 1, 0).summary,
    }


def _same(a, b):
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_wrappers_leave_return_values_unchanged():
    plain = _outputs()
    originals = {
        "sym_eig": frame_core.sym_eig,
        "delta": robustness.delta,
        "main": phasestab.cli.main,
        "minimize": estimation.minimize,
    }
    tracer = Tracer()
    tracer.install()
    try:
        # every namespace that holds a traced function holds the wrapper
        assert robustness.sym_eig is not originals["sym_eig"]
        assert injectivity.sym_eig is frame_core.sym_eig is estimation.sym_eig
        assert random_frames.delta_op is robustness.delta is not originals["delta"]
        assert robustness.matrix_rank is injectivity.matrix_rank is frame_core.matrix_rank
        assert estimation.minimize.__wrapped__ is originals["minimize"]
        traced = _outputs()
    finally:
        tracer.uninstall()
    assert frame_core.sym_eig is originals["sym_eig"] and robustness.sym_eig is originals["sym_eig"]
    assert robustness.delta is originals["delta"] and phasestab.cli.main is originals["main"]
    for key in plain:
        assert _same(plain[key], traced[key]), key

    table = tracer.summarize()
    assert table["cli.main"]["calls"] == 1
    assert table["robustness.omega"]["sampled_calls"] == 1
    assert table["robustness.delta"]["sampled_calls"] == 0
    assert table["frame_core.sym_eig"]["calls"] > 100
    assert table["estimation.minimize"]["calls"] == estimation.LSConfig().restarts
    for row in table.values():
        assert row["self_s"] >= 0
