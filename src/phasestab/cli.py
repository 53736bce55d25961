"""Command-line front end: reproducible certificates, constants and studies.

Exit codes: 0 success, 2 parse/validation error, 3 enumeration budget
exceeded.  All numeric output carries 17 significant digits and default
seeds are fixed (0), so re-running a command with identical flags produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from importlib import resources

import numpy as np

from . import estimation, random_frames, robustness
from .errors import BudgetExceededError, PhasestabError, ValidationError
from .frame_core import Frame, load_frame
from .injectivity import A0Config, phase_retrievable
from .serialize import csv_line, to_json

FIXTURES = ("mb3", "basis2", "basis3", "repeated", "gauss_4x11")


def _load_input(args) -> Frame:
    if getattr(args, "fixture", None):
        ref = resources.files("phasestab.fixtures") / f"{args.fixture}.json"
        with resources.as_file(ref) as path:
            return load_frame(str(path))
    if not args.frame:
        raise ValidationError("provide a frame file or --fixture NAME")
    return load_frame(args.frame)


def _parse_vector(text: str, n: int) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"--x: not a comma-separated float list ({exc})") from exc
    if vec.shape != (n,):
        raise ValidationError(f"--x has {vec.size} entries, frame dimension is {n}")
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"--x has non-finite entries: {text}")
    return vec


def _parse_n_list(text: str) -> list[int]:
    try:
        n_list = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--n-list: not a comma-separated integer list ({exc})") from exc
    if min(n_list) < 1:
        raise ValidationError(f"--n-list entries must be >= 1, got {text}")
    return n_list


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _out_path(args, default_name: str, explicit: str | None):
    if explicit:
        return explicit
    outdir = os.environ.get("PHASESTAB_OUTDIR")
    if outdir:
        return os.path.join(outdir, default_name)
    return None


def cmd_certify(args) -> int:
    frame = _load_input(args)
    cert = phase_retrievable(frame, A0Config(seed=args.seed, restarts=args.restarts))
    _emit(to_json(cert.to_json_dict()) + "\n", _out_path(args, "certificate.json", args.out))
    return 0


def cmd_constants(args) -> int:
    frame = _load_input(args)
    constants = robustness.lipschitz_constants(
        frame,
        a0_cfg=A0Config(seed=args.seed, restarts=args.restarts),
        subset_budget=args.subset_budget,
        seed=args.seed,
    )
    _emit(to_json(constants.to_json_dict()) + "\n", _out_path(args, "constants.json", args.out))
    return 0


def cmd_stability(args) -> int:
    frame = _load_input(args)
    x = _parse_vector(args.x, frame.dim)
    # The brackets need exact Delta and omega, so there is no sampled
    # fallback: an over-budget frame fails before the Q_eps search runs.
    analysis = robustness.FrameAnalysis(frame, sample_budget=None)
    cfg = robustness.QepsConfig(seed=args.seed, restarts=args.restarts)
    report = robustness.q_eps_estimate(frame, x, args.eps, cfg, analysis)
    doc = report.to_json_dict()
    doc["brackets"] = robustness.q_eps_brackets(frame, args.eps, analysis)
    _emit(to_json(doc) + "\n", _out_path(args, "stability.json", args.out))
    return 0


def cmd_crlb(args) -> int:
    frame = _load_input(args)
    x = _parse_vector(args.x, frame.dim)
    bound = estimation.crlb(frame, x, args.sigma, A0Config(seed=args.seed))
    doc = {
        "x": x.tolist(),
        "sigma": args.sigma,
        "fisher": bound["fisher"].tolist(),
        "crlb_matrix": bound["matrix"].tolist(),
        "crlb_trace": bound["trace"],
        "mse_upper": bound["mse_upper"],
        "a0": bound["a0"],
        "a0_exact": bound["a0_exact"],
    }
    _emit(to_json(doc) + "\n", _out_path(args, "crlb.json", args.out))
    return 0


def cmd_simulate(args) -> int:
    frame = _load_input(args)
    x = _parse_vector(args.x, frame.dim)
    run = estimation.mse_monte_carlo(
        frame,
        x,
        args.sigma,
        args.trials,
        args.seed,
        ls_cfg=estimation.LSConfig(restarts=args.restarts),
    )
    doc = run.to_json_dict()
    doc["sigma"] = args.sigma
    _emit(to_json(doc) + "\n", _out_path(args, "simulate.json", args.out))
    lines = ["trial,residual,d"]
    lines += [csv_line(row) for row in run.per_trial]
    _emit("\n".join(lines) + "\n", _out_path(args, "simulate.csv", args.csv_out))
    return 0


def cmd_random_study(args) -> int:
    n_list = _parse_n_list(args.n_list)
    if args.study == "minimal":
        result = random_frames.minimal_redundancy_study(n_list, args.trials, args.seed)
    elif args.study == "tau":
        result = random_frames.tau_scaling_study(n_list, args.k, args.trials, args.seed)
    elif args.study == "redundancy":
        result = random_frames.redundancy_stability_study(
            args.r0, n_list, args.trials, args.subset_budget, args.seed
        )
    else:
        raise ValidationError(f"unknown --study {args.study!r}")
    lines = ["n,m,trial,statistic,value,exact"]
    lines += [
        csv_line((r.n, r.m, r.trial, r.statistic, r.value, r.exact)) for r in result.rows
    ]
    _emit("\n".join(lines) + "\n", _out_path(args, "random_study.csv", args.csv_out))
    doc = {"study": args.study, "seed": args.seed, "summary": result.summary}
    _emit(to_json(doc) + "\n", _out_path(args, "random_study.json", args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasestab",
        description="Stability certificates and robustness constants for phaseless reconstruction frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, frame_input=True):
        if frame_input:
            p.add_argument("frame", nargs="?", help="frame file (.json or .csv)")
            p.add_argument("--fixture", choices=FIXTURES, help="bundled fixture frame")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", "-o", help="output JSON path (default stdout)")

    p = sub.add_parser("certify", help="phase retrievability certificate")
    common(p)
    p.add_argument("--restarts", type=int, default=64)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("constants", help="all stability/Lipschitz constants")
    common(p)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--subset-budget", type=int, default=512)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("stability", help="Q_eps(x) estimate with theory brackets")
    common(p)
    p.add_argument("--x", required=True, help="comma-separated vector")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--restarts", type=int, default=64)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("crlb", help="Fisher information and Cramer-Rao bound")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.set_defaults(func=cmd_crlb)

    p = sub.add_parser("simulate", help="Monte Carlo MSE vs CRLB")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument(
        "--restarts", type=int, default=4,
        help="least-squares starts per trial, the spectral start included (>= 1)",
    )
    p.add_argument("--csv-out", help="per-trial CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("random-study", help="random-frame scaling studies")
    common(p, frame_input=False)
    p.add_argument("--study", choices=("minimal", "tau", "redundancy"), required=True)
    p.add_argument("--n-list", required=True, help="comma-separated dimensions")
    p.add_argument("--r0", type=float, default=3.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--subset-budget", type=int, default=512)
    p.add_argument("--csv-out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_random_study)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: a build costs far more than
    a parse and leaves memory behind, and `main` may run many times."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "subset_budget", 1) < 1:
            raise ValidationError(f"--subset-budget must be >= 1, got {args.subset_budget}")
        if not -(2**63) <= args.seed < 2**63:
            raise ValidationError(f"--seed must be in [-2^63, 2^63), got {args.seed}")
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PhasestabError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
