"""phasestab benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  Workloads: desk, subsets, montecarlo, or
all (each in turn).  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run; both sets are named, with their units,
in BENCHMARK.json at the root.  Every workload runs in a fresh interpreter
with OMP/OpenBLAS/MKL threads pinned to 1.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("desk", "subsets", "montecarlo")
SETUP_REPEATS = {"full": (4, 3), "tiny": (1, 0)}  # before, after the timed run
TIME_LIMIT_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Shown for every workload; BENCHMARK.json names the ones gated against regressions.
REPORTED = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("fail_ratio", "1"),
    ("peak_rss_mb", "MB"),
    ("certify_p50_ms", "ms"),
    ("constants_p50_ms", "ms"),
    ("stability_p50_ms", "ms"),
    ("crlb_p50_ms", "ms"),
    ("trials_per_s", "1/s"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    env.pop("PHASESTAB_OUTDIR", None)  # the CLI must print to stdout
    return env


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def measure_setup(args, env, workdir: Path, deadline: float, count: int) -> list[float]:
    """Fresh interpreter to ready: import phasestab and build the inputs."""
    times = []
    for k in range(count):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
               "--workdir", str(workdir / f"setup{k}"), "--setup-only"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup process exited with {proc.returncode}")
        times.append(elapsed)
    return times


def run_workload(args, deadline: float) -> dict:
    env = child_env()
    workdir = RESULTS / f"work-{os.getpid()}-{args.workload}"
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    load_start = os.getloadavg()
    try:
        before, after = SETUP_REPEATS[args.size]
        setup_times = measure_setup(args, env, workdir, deadline, before)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--workdir", str(workdir / "run"), "--out", str(out)]
        if args.trace:
            cmd += ["--spans-out", str(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz")]
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        # the rest after the run, so that one burst of load skews fewer samples
        setup_times += measure_setup(args, env, workdir, deadline, after)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.read_text())
    result["setup_s"] = statistics.median(setup_times)
    result["setup_samples_s"] = setup_times
    result["env"] = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "threads": {name: "1" for name in PINNED},
    }
    if args.trace:
        result["calls_repeat_vs_previous_run"] = compare_with_previous(args, result)
    out.write_text(json.dumps(result, indent=1))
    return result


def compare_with_previous(args, result) -> str:
    """Compare .calls counts with the last traced run of this workload and seed."""
    path = RESULTS / f"{args.workload}-seed{args.seed}-calls.json"
    calls = {k: v for k, v in result["layers"].items() if k.endswith("calls")}
    verdict = "no earlier traced run with this seed"
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("size") == args.size:
            diff = sorted(k for k in calls if previous["calls"].get(k) != calls[k])
            verdict = "identical" if not diff else "DIFFERENT: " + ", ".join(diff[:10])
    path.write_text(json.dumps({"size": args.size, "calls": calls}, indent=1))
    return verdict


def print_report(args, r: dict) -> None:
    env = r["env"]
    v = r["versions"]
    print(f"== perfbench {r['workload']}  seed={r['seed']}  size={r['size']}  trace={args.trace}")
    print(f"   git={env['git_sha']}  nproc={env['nproc']}  affinity={env['affinity']}  "
          f"load={env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f}  "
          f"python={v['python']}  numpy={v['numpy']}  scipy={v['scipy']}  BLAS threads=1")
    print(f"   {r['ops_per_pass']} ops/pass, 1 untimed warm-up pass ({r['warmup_wall_s']:.2f} s), "
          f"{r['passes']} timed passes, {r['op_samples']} op samples, "
          f"setup x{len(r['setup_samples_s'])}")
    notes = {
        "setup_s": f"median of {len(r['setup_samples_s'])} fresh interpreters",
        "wall_s": f"median of {r['passes']} passes",
        "op_p50_ms": f"median of {r['ops_per_pass']} per-op medians",
        "op_tail_ms": f"p{r['op_tail_percentile']:.1f}, {r['op_tail_ops_beyond']} ops beyond",
        "fail_ratio": f"{r['failed']} of {r['attempted']} ops",
    }
    for name, unit in REPORTED:
        if name in r:
            print(f"   {name:18s} {r[name]:14.6g} {unit:4s} {notes.get(name, '')}")
        else:
            print(f"   {name:18s} {'n/a':>14s}      not measured on {r['workload']}")
    for group, ratio in r.get("mse_over_crlb", {}).items():
        print(f"   MSE/CRLB {group}: {ratio:.4f}")
    if "subset_max_abs_diff" in r:
        print(f"   subset constants vs SVD enumeration: max |diff| {r['subset_max_abs_diff']:.3g}, "
              f"{r['subset_diffs_over_1e-10']} values beyond 1e-10")
    for line in r["failures"]:
        print(f"   FAIL {line}")
    if args.trace:
        print(f"   traced: {r['traced_passes']} passes, {r['span_count']} spans -> {r['spans_file']}")
        print(f"   .calls counts repeat across the traced passes of this run: "
              f"{'yes' if r['calls_repeat_within_run'] else 'NO'}; "
              f"versus the previous traced run with this seed: {r['calls_repeat_vs_previous_run']}")
        print(f"   {'function':42s} {'calls':>9s} {'self_s':>10s} {'raised':>6s}")
        for name, row in sorted(r["layer_table"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"   {name:42s} {row['calls']:9d} {row['self_s']:10.4f} {row['raised']:6d}")
        print(f"   tracing_overhead_s {r['layers']['tracing_overhead_s']:.4f}")


def pick_metrics(spec: dict, r: dict, trace: int, prefix: str = "") -> dict:
    """The metrics BENCHMARK.json names: end_to_end untraced, per_layer traced."""
    pool = r["layers"] if trace else r
    chosen = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name not in pool:
            raise KeyError(f"metric {name} not measured on {r['workload']}")
        chosen[prefix + name] = {"value": pool[name], "unit": entry["unit"]}
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phasestab" / "__init__.py").is_file():
        print(f"error: no phasestab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    # SIGTERM unwinds like an exception, so the running child is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        r = run_workload(one, time.monotonic() + TIME_LIMIT_S)
        print_report(one, r)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update(pick_metrics(spec, r, args.trace, prefix))
        attempted += r["attempted"]
        failed += r["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
