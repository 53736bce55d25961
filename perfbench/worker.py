"""One workload in one fresh process: set up, warm up, time passes, check.

Started by run.py with BLAS threads pinned to 1 in its environment, so the
pinning is in place before numpy loads.  Writes every measured number to
the JSON file named by --out; run.py turns it into the report.

    python3 perfbench/worker.py --workload desk --seed 1 --seconds 24 \
        --trace 0 --size full --workdir DIR --out FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import phasestab
import phasestab.cli  # not imported by the package itself
import workloads
from tracing import LAYERS, MODE_ARG, Tracer

STABILITY_KERNELS = ("robustness.delta", "robustness.omega", "robustness.tau")


def run_op(op: workloads.Op, wl: workloads.Workload):
    """Run one op; returns (latency_s, exit code, result or None, error)."""
    if op.argv is not None:
        main = workloads.module("cli").main  # looked up per call: may be traced
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(op.argv))
        except Exception as exc:  # an op that raises is a counted failure
            return time.perf_counter() - t0, None, None, f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, rc, out.getvalue(), None
    module, func, key, kwargs = op.call
    fn = getattr(workloads.module(module), func)
    frame = wl.frames[key]
    t0 = time.perf_counter()
    try:
        result = fn(frame, **kwargs)
    except Exception as exc:
        return time.perf_counter() - t0, None, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, 0, result, None


class Runner:
    def __init__(self, wl: workloads.Workload, tracer: Tracer | None = None):
        self.wl = wl
        self.checker = workloads.Checker(wl)
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.ratios: dict[str, float] = {}

    def run_pass(self, pass_id: int, order=None) -> tuple[float, list[float]]:
        """One closed-loop pass over the ops in `order` (default: as listed);
        returns (wall time without checks, latency of each op by index)."""
        ops = self.wl.ops
        latencies, outputs = [0.0] * len(ops), {}
        checking = 0.0
        start = time.perf_counter()
        for i in range(len(ops)) if order is None else order:
            op = ops[i]
            if self.tracer is not None:
                self.tracer.op_id = pass_id * len(ops) + i
            latency, rc, result, error = run_op(op, self.wl)
            latencies[i] = latency
            t0 = time.perf_counter()
            if error is None:
                error = self.checker.check(op, rc, result)
            if error is None and op.group:
                outputs[i] = result
            self.attempted += 1
            if error is not None:
                self.failures.append(f"pass {pass_id} {op.label}: {error}")
            checking += time.perf_counter() - t0
        wall = time.perf_counter() - start - checking
        if self.tracer is not None:
            self.tracer.op_id = -1
        self.ratios, group_failures = self.checker.check_groups(outputs)
        for i, error in group_failures.items():
            self.failures.append(f"pass {pass_id} {self.wl.ops[i].label}: {error}")
        return wall, latencies


def latency_metrics(wl: workloads.Workload, per_pass: list[list[float]]) -> dict:
    """op_p50 and op_tail over the per-op medians, plus per-command medians."""
    per_op = [statistics.median(col) for col in zip(*per_pass)]
    ordered = sorted(per_op)
    n = len(ordered)
    if n > 10:
        tail, pct, beyond = ordered[n - 11], 100.0 * (n - 10) / n, 10
    else:
        tail, pct, beyond = ordered[-1], 100.0, 0
    out = {
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * tail,
        "op_tail_percentile": pct,
        "op_tail_ops_beyond": beyond,
        "ops_per_pass": n,
        "op_samples": n * len(per_pass),
        "per_op_ms": {op.label + f" #{i}": 1e3 * v for i, (op, v) in enumerate(zip(wl.ops, per_op))},
    }
    for kind in ("certify", "constants", "stability", "crlb"):
        values = [v for op, v in zip(wl.ops, per_op) if op.kind == kind]
        if values and wl.name == "desk":
            out[f"{kind}_p50_ms"] = 1e3 * statistics.median(values)
    return out


def layer_metrics(tracer: Tracer, table: dict, wl: workloads.Workload) -> dict:
    """Flat per-layer metrics: every traced function, every module, and the
    ratios named in the benchmark's prediction table."""
    names = sorted({name for name, _ in tracer.targets().values()})
    flat = {}
    for name in names:
        row = table.get(name, {})
        flat[f"{name}.calls"] = row.get("calls", 0)
        flat[f"{name}.self_s"] = row.get("self_s", 0.0)
        flat[f"{name}.raised"] = row.get("raised", 0)
        if name in MODE_ARG:
            flat[f"{name}.sampled_calls"] = row.get("sampled_calls", 0)
    for layer in LAYERS:
        flat[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items() if name.startswith(layer + ".")
        )
    ls = flat["estimation.ls_estimate.calls"]
    flat["estimation.minimize.per_ls_estimate"] = (
        flat["estimation.minimize.calls"] / ls if ls else 0.0
    )
    n_stab = sum(op.kind == "stability" for op in wl.ops)
    for name in STABILITY_KERNELS:
        calls = table.get(name, {}).get("calls_by_op_kind", {}).get("stability", 0)
        flat[f"stability_op.{name}.calls"] = calls / n_stab if n_stab else 0.0
    return flat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.size, workdir)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    import scipy

    runner = Runner(wl)
    warm_wall, _ = runner.run_pass(-1)
    # as many passes as fit in --seconds at the warm-up pace; at least three
    # untraced ones, so that the median can drop a pass hit by a burst of load
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = max(1 if args.trace else 3, round(budget / max(warm_wall, 1e-9)))
    # Each timed pass runs the ops in its own seeded order, so that a burst
    # of load on the machine lands on different ops in different passes.
    shuffle = np.random.default_rng([args.seed, 0x0D]).permutation
    walls, per_pass = [], []
    for p in range(passes):
        wall, lat = runner.run_pass(p, shuffle(len(wl.ops)))
        walls.append(wall)
        per_pass.append(lat)

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "size": args.size,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "phasestab": phasestab.__version__,
        },
        "phasestab_path": str(Path(phasestab.__file__).resolve().parent),
        "warmup_wall_s": warm_wall,
        "passes": passes,
        "pass_walls_s": walls,
        "wall_s": statistics.median(walls),
        **latency_metrics(wl, per_pass),
    }
    if wl.name == "montecarlo":
        trials = sum(op.trials for op in wl.ops)
        result["trials_per_pass"] = trials
        result["trials_per_s"] = trials / result["wall_s"]
        result["mse_over_crlb"] = runner.ratios
    if wl.name == "subsets":
        result["subset_max_abs_diff"] = runner.checker.max_subset_diff
        result["subset_diffs_over_1e-10"] = runner.checker.subset_diffs_over_tol

    if args.trace:
        tracer = Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            traced_walls, bounds = [], []
            for p in range(max(2, passes)):
                lo = tracer.span_count()
                wall, _ = runner.run_pass(passes + p, shuffle(len(wl.ops)))
                traced_walls.append(wall)
                bounds.append((lo, tracer.span_count()))
        finally:
            tracer.uninstall()
        op_kinds = {
            p * len(wl.ops) + i: op.kind
            for p in range(passes, passes + len(traced_walls))
            for i, op in enumerate(wl.ops)
        }
        tables = [tracer.summarize(lo, hi, op_kinds) for lo, hi in bounds]
        counts = [{k: (r["calls"], r["raised"]) for k, r in t.items()} for t in tables]
        table = tables[0]
        for name, row in table.items():
            row["self_s"] = statistics.median(t.get(name, {}).get("self_s", 0.0) for t in tables)
        result["traced_passes"] = len(traced_walls)
        result["traced_pass_walls_s"] = traced_walls
        result["calls_repeat_within_run"] = all(c == counts[0] for c in counts)
        result["layer_table"] = table
        result["layers"] = layer_metrics(tracer, table, wl)
        result["layers"]["tracing_overhead_s"] = statistics.median(traced_walls) - result["wall_s"]
        if args.spans_out:
            tracer.save(args.spans_out)
            result["spans_file"] = args.spans_out
            result["span_count"] = tracer.span_count()

    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures[:50]
    result["fail_ratio"] = result["failed"] / result["attempted"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
