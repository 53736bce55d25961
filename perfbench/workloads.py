"""The three workloads: seeded inputs, the ops of one pass, and their checks.

Every workload is a fixed list of ops whose shapes do not depend on the
seed; the seed only draws the frames, vectors, noise levels and simulation
seeds.  A pass runs the list once, closed loop, one op after another.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# Desk: every fixture, then seeded unit-column Gaussian frames with
# n in {3, 4, 5} and m in {2n - 1, ~3n}.  The a0 search dominates every
# certify / constants / crlb op with n >= 3; stability recomputes Delta,
# omega and tau on each call; the n = 2 fixtures take milliseconds.
# The a0 searches run on gauss_4x11 and on 3 x 9 frames: the time of one a0
# search varies with the frame drawn (0.2-1.0 s on 3 x 5, 0.4-1.3 s on 4 x 7,
# 0.27-0.55 s and now and then 2 s on 3 x 9), and a pass time that hinges on
# a few draws would not repeat from seed to seed.  The five slowest ops are
# the a0 searches, so op_p50_ms and op_tail_ms (the eleventh slowest op)
# both fall among the stability ops.
DESK = {
    "full": {
        "fixtures": [
            ("mb3", ("certify", "constants", "stability", "crlb")),
            ("basis2", ("certify", "constants", "stability", "crlb")),
            ("basis3", ("certify", "constants", "stability", "crlb")),
            ("repeated", ("certify", "constants", "stability", "crlb")),
            ("gauss_4x11", ("certify", "constants", "stability", "crlb")),
        ],
        "frames": [
            ("3x5", 3, 5, ("stability",)),
            ("3x9a", 3, 9, ("certify", "stability")),
            ("3x9b", 3, 9, ("crlb",)),
            ("4x7", 4, 7, ("stability",)),
            ("5x9", 5, 9, ("stability",)),
        ],
    },
    "tiny": {
        "fixtures": [
            ("mb3", ("certify", "constants", "stability", "crlb")),
            ("basis2", ("certify", "constants", "stability", "crlb")),
            ("basis3", ("certify", "constants", "stability", "crlb")),
        ],
        "frames": [("3x5", 3, 5, ("certify", "stability"))],
    },
}

# Subsets: full-spark frames at m = 2n - 1, and the same frames with one
# column duplicated (not full spark: omega walks all 2^m subsets and the
# complement check stops early).  No sphere search runs.
SUBSETS = {
    "full": {
        "frames": [(7, True), (7, False), (8, True), (8, False), (9, True)],
        "study": ([4, 5, 6, 7], 2),
    },
    "tiny": {"frames": [(5, True), (5, False)], "study": ([3, 4], 1)},
}
# 9 x 17 runs exact Delta only: its 2^17 x 9 x 9 Gram stack is what moves
# peak_rss_mb; its other kernels would take 6 s per pass.
KERNELS_ONLY = {(9, True): ("delta",)}
KERNELS = (
    ("injectivity", "full_spark", {}),
    ("injectivity", "complement_property", {}),
    ("robustness", "tau", {}),
    ("robustness", "omega", {"mode": "exact"}),
    ("robustness", "delta", {"mode": "exact"}),
)

# Montecarlo: (frame, sigma, ops, trials per op).  The mb3 ops of one sigma
# share x and differ in the simulation seed; the MSE/CRLB corridor is
# checked on the pooled mb3 trials at sigma = 0.01.  Each 3 x 5 op draws a
# frame of its own: a0 runs once per call and its time varies 5x between
# 3 x 5 frames, so the pass time should not hinge on a single draw.
MONTECARLO = {
    "full": [
        ("mb3", 0.01, 5, 100),
        ("mb3", 0.1, 5, 100),
        ("3x5", 0.01, 1, 200),
        ("3x5", 0.1, 1, 200),
    ],
    "tiny": [("mb3", 0.01, 3, 40), ("mb3", 0.1, 1, 20), ("3x5", 0.01, 1, 10)],
}

WORKLOADS = ("desk", "subsets", "montecarlo")
SIZES = ("full", "tiny")


@dataclass
class Op:
    kind: str                       # CLI subcommand or kernel function name
    label: str
    argv: list | None = None        # cli.main arguments, for CLI ops
    call: tuple | None = None       # (module, function, frame key, kwargs)
    expect_rc: int = 0
    frame: str | None = None        # key into Workload.matrices
    x: np.ndarray | None = None
    param: float = 0.0              # eps for stability, sigma for crlb/simulate
    trials: int = 0
    group: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    matrices: dict = field(default_factory=dict)   # frame key -> n x m array
    frames: dict = field(default_factory=dict)     # frame key -> phasestab Frame
    study: tuple | None = None


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def unit_gaussian(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    mat = rng.standard_normal((n, m))
    return mat / np.linalg.norm(mat, axis=0)


def _vec(x: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in x)


def _write_frame(workdir: Path, key: str, mat: np.ndarray) -> str:
    path = workdir / f"{key}.json"
    doc = {"dim": mat.shape[0], "count": mat.shape[1], "columns": mat.T.tolist()}
    path.write_text(json.dumps(doc))
    return str(path)


def _fixture_matrix(name: str) -> np.ndarray:
    from importlib import resources

    doc = json.loads((resources.files("phasestab.fixtures") / f"{name}.json").read_text())
    return np.array(doc["columns"], dtype=float).T


def _frame_ops(source: list, key: str, mat: np.ndarray, commands, rng) -> list[Op]:
    n = mat.shape[0]
    ops = []
    for cmd in commands:
        op = Op(kind=cmd, label=f"{cmd} {key}", argv=[cmd, *source], frame=key)
        if cmd == "stability":
            op.x = rng.standard_normal(n)
            op.param = float(rng.uniform(0.02, 0.2))
            op.argv += ["--x=" + _vec(op.x), "--eps", repr(op.param)]
        elif cmd == "crlb":
            op.x = rng.standard_normal(n)
            if key == "basis2":
                # a coordinate vector makes the Fisher matrix singular: exit 2
                op.x = np.zeros(n)
                op.x[int(rng.integers(n))] = float(rng.uniform(0.5, 2.0))
                op.expect_rc = 2
            op.param = float(rng.uniform(0.02, 0.2))
            op.argv += ["--x=" + _vec(op.x), "--sigma", repr(op.param)]
        ops.append(op)
    return ops


def build_desk(seed: int, size: str, workdir: Path) -> Workload:
    spec = DESK[size]
    wl = Workload("desk", [])
    rng = _rng(seed, 1)
    for name, commands in spec["fixtures"]:
        wl.matrices[name] = _fixture_matrix(name)
        wl.ops += _frame_ops(["--fixture", name], name, wl.matrices[name], commands, rng)
    for key, n, m, commands in spec["frames"]:
        mat = unit_gaussian(rng, n, m)
        wl.matrices[key] = mat
        wl.ops += _frame_ops([_write_frame(workdir, key, mat)], key, mat, commands, rng)
    return wl


def build_subsets(seed: int, size: str, workdir: Path) -> Workload:
    from phasestab import Frame

    spec = SUBSETS[size]
    wl = Workload("subsets", [])
    rng = _rng(seed, 2)
    clean = {}
    for n, is_clean in spec["frames"]:
        m = 2 * n - 1
        if n not in clean:
            clean[n] = unit_gaussian(rng, n, m)
        mat = clean[n].copy()
        key = f"{n}x{m}"
        if not is_clean:
            mat[:, m - 1] = mat[:, int(rng.integers(m - 1))]
            key += "dup"
        wl.matrices[key] = mat
        wl.frames[key] = Frame(mat)
        for module, func, kwargs in KERNELS:
            if func not in KERNELS_ONLY.get((n, is_clean), (func,)):
                continue
            wl.ops.append(
                Op(kind=func, label=f"{func} {key}", call=(module, func, key, kwargs), frame=key)
            )
    n_list, trials = spec["study"]
    wl.study = (n_list, trials)
    argv = ["random-study", "--study", "minimal", "--n-list", ",".join(map(str, n_list)),
            "--trials", str(trials), "--seed", str(int(rng.integers(2**31)))]
    wl.ops.append(Op(kind="random-study", label="random-study minimal", argv=argv))
    return wl


def build_montecarlo(seed: int, size: str, workdir: Path) -> Workload:
    wl = Workload("montecarlo", [])
    rng = _rng(seed, 3)
    wl.matrices["mb3"] = _fixture_matrix("mb3")
    phi = rng.uniform(0.0, math.pi)
    mb3_x = np.array([math.cos(phi), math.sin(phi)])
    for key, sigma, count, trials in MONTECARLO[size]:
        for _ in range(count):
            if key == "mb3":
                frame, source, x = "mb3", ["--fixture", "mb3"], mb3_x
            else:
                frame = f"3x5-{len(wl.ops)}"
                wl.matrices[frame] = unit_gaussian(rng, 3, 5)
                source = [_write_frame(workdir, frame, wl.matrices[frame])]
                x = rng.standard_normal(3)
                x /= np.linalg.norm(x)
            group = f"{frame} sigma={sigma}"
            argv = ["simulate", *source, "--x=" + _vec(x), "--sigma", repr(sigma),
                    "--trials", str(trials), "--seed", str(int(rng.integers(2**31)))]
            wl.ops.append(Op(kind="simulate", label=f"simulate {group}", argv=argv, frame=frame,
                             x=x, param=sigma, trials=trials, group=group))
    return wl


BUILDERS = {"desk": build_desk, "subsets": build_subsets, "montecarlo": build_montecarlo}


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    return BUILDERS[name](seed, size, workdir)


class Checker:
    """Checks op outputs, computing each brute-force reference once."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self._tables: dict[str, checks.SubsetTable] = {}
        self.max_subset_diff = 0.0
        self.subset_diffs_over_tol = 0

    def table(self, key: str) -> checks.SubsetTable:
        if key not in self._tables:
            self._tables[key] = checks.SubsetTable(self.wl.matrices[key])
        return self._tables[key]

    def check(self, op: Op, rc: int, result) -> str | None:
        if rc != op.expect_rc:
            return f"exit code {rc}, expected {op.expect_rc}"
        if op.expect_rc != 0:
            return None
        mat = self.wl.matrices.get(op.frame)
        if op.call is not None:
            table = self.table(op.frame)
            diff = checks.subset_precision(op.kind, result, table)
            if diff is not None:
                self.max_subset_diff = max(self.max_subset_diff, diff)
                self.subset_diffs_over_tol += diff > checks.SUBSET_TOL
            return checks.check_kernel(op.kind, result, table)
        if op.kind == "certify":
            return checks.check_certify(result, mat, self.table(op.frame))
        if op.kind == "constants":
            return checks.check_constants(result, mat)
        if op.kind == "stability":
            return checks.check_stability(result, mat, op.x, op.param)
        if op.kind == "crlb":
            return checks.check_crlb(result, mat, op.x, op.param)
        if op.kind == "simulate":
            return checks.check_simulate(result, mat, op.x, op.param, op.trials)
        if op.kind == "random-study":
            return checks.check_random_study(result, *self.wl.study)
        return f"no check for {op.kind!r}"

    def check_groups(self, outputs: dict[int, str]) -> tuple[dict[str, float], dict[int, str]]:
        """Pooled MSE/CRLB of every simulate group whose ops all passed, and
        the failures of the gated groups: mb3 at sigma = 0.01 outside the
        corridor."""
        groups: dict[str, list[int]] = {}
        for i, op in enumerate(self.wl.ops):
            if op.group:
                groups.setdefault(op.group, []).append(i)
        ratios, failures = {}, {}
        lo, hi = checks.CORRIDOR
        for group, members in groups.items():
            if not all(i in outputs for i in members):
                continue  # a member already failed and is counted
            ratio = ratios[group] = checks.corridor_ratio([outputs[i] for i in members])
            op = self.wl.ops[members[0]]
            if op.frame == "mb3" and op.param == 0.01 and not lo <= ratio <= hi:
                for i in members:
                    failures[i] = f"{group}: pooled MSE/CRLB {ratio:.3f} outside [{lo}, {hi}]"
        return ratios, failures


def module(name: str):
    return sys.modules[f"phasestab.{name}"]
