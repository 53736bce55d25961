"""Command-line front end: reproducible certificates, constants and studies.

Exit codes: 0 success, 2 parse/validation error or an input or output
file that cannot be read or written, 3 enumeration budget exceeded.  All
numeric output carries 17 significant digits and default seeds are fixed
(0), so re-running a command with identical flags produces byte-identical
files.
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
    if args.fixture:
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
    return vec


def _parse_n_list(text: str) -> list[int]:
    try:
        n_list = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--n-list: not a comma-separated integer list ({exc})") from exc
    if min(n_list) < 1:
        raise ValidationError(f"--n-list entries must be >= 1, got {text}")
    return n_list


def _write(name: str, doc, explicit: str | None):
    """Write one output: a JSON document, or CSV lines.  The explicit path
    wins, then $PHASESTAB_OUTDIR/name, then stdout."""
    text = (to_json(doc) if isinstance(doc, dict) else "\n".join(doc)) + "\n"
    outdir = os.environ.get("PHASESTAB_OUTDIR")
    path = explicit or (outdir and os.path.join(outdir, name))
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each command gets the loaded frame and the parsed --x (None where the
# subcommand takes neither) and returns its outputs in print order, as
# (default file name, JSON document or CSV lines) pairs.


def cmd_certify(args, frame, x):
    cert = phase_retrievable(frame, A0Config(seed=args.seed, restarts=args.restarts))
    return [("certificate.json", cert.to_json_dict())]


def cmd_constants(args, frame, x):
    constants = robustness.lipschitz_constants(
        frame,
        a0_cfg=A0Config(seed=args.seed, restarts=args.restarts),
        subset_budget=args.subset_budget,
        seed=args.seed,
    )
    return [("constants.json", constants.to_json_dict())]


def cmd_stability(args, frame, x):
    # The brackets need exact Delta and omega, so there is no sampled
    # fallback: an over-budget frame fails before the Q_eps search runs.
    analysis = robustness.FrameAnalysis(frame, sample_budget=None)
    cfg = robustness.QepsConfig(seed=args.seed, restarts=args.restarts)
    report = robustness.q_eps_estimate(frame, x, args.eps, cfg, analysis)
    doc = report.to_json_dict()
    doc["brackets"] = robustness.q_eps_brackets(frame, args.eps, analysis)
    return [("stability.json", doc)]


def cmd_crlb(args, frame, x):
    bound = estimation.crlb(frame, x, args.sigma, A0Config(seed=args.seed))
    return [("crlb.json", {
        "x": x.tolist(),
        "sigma": args.sigma,
        "fisher": bound["fisher"].tolist(),
        "crlb_matrix": bound["matrix"].tolist(),
        "crlb_trace": bound["trace"],
        "mse_upper": bound["mse_upper"],
        "a0": bound["a0"],
        "a0_exact": bound["a0_exact"],
    })]


def cmd_simulate(args, frame, x):
    run = estimation.mse_monte_carlo(frame, x, args.sigma, args.trials, args.seed, args.restarts)
    doc = run.to_json_dict()
    doc["sigma"] = args.sigma
    lines = ["trial,residual,d", *(csv_line(row) for row in run.per_trial)]
    return [("simulate.json", doc), ("simulate.csv", lines)]


def cmd_random_study(args, frame, x):
    n_list = _parse_n_list(args.n_list)
    if args.study == "minimal":
        result = random_frames.minimal_redundancy_study(n_list, args.trials, args.seed)
    elif args.study == "tau":
        result = random_frames.tau_scaling_study(n_list, args.k, args.trials, args.seed)
    else:
        result = random_frames.redundancy_stability_study(
            args.r0, n_list, args.trials, args.subset_budget, args.seed
        )
    lines = ["n,m,trial,statistic,value,exact", *(
        csv_line((r.n, r.m, r.trial, r.statistic, r.value, r.exact)) for r in result.rows
    )]
    doc = {"study": args.study, "seed": args.seed, "summary": result.summary}
    return [("random_study.csv", lines), ("random_study.json", doc)]


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
        frame = _load_input(args) if "frame" in args else None
        x = _parse_vector(args.x, frame.dim) if "x" in args else None
        for name, doc in args.func(args, frame, x):
            _write(name, doc, args.csv_out if name.endswith(".csv") else args.out)
        return 0
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PhasestabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
