"""Random Gaussian frame ensembles and the redundancy-scaling studies.

Three studies: minimal redundancy m = 2n-1 (exact omega decay probe), the
tau scaling for n x (n+k) unit-column matrices, and the non-decay corridor
for m = r0 * n with r0 > 2.  Every row is reproducible from (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, inf

import numpy as np

from . import subsets
from .errors import BudgetExceededError, ValidationError
from .frame_core import Frame, _check_count, _philox, null_vector
from .robustness import _with_omega_partition, delta as delta_op, omega as omega_op, tau as tau_op
from .injectivity import full_spark


@dataclass(frozen=True)
class EnsembleSpec:
    n: int
    m: int
    scale: str          # unit_columns | one_over_sqrt_n
    seed: int

    def __post_init__(self):
        if self.m < self.n:
            raise ValidationError(f"need m >= n, got n={self.n}, m={self.m}")
        if self.scale not in ("unit_columns", "one_over_sqrt_n"):
            raise ValidationError(f"unknown scale {self.scale!r}")


@dataclass
class ScalingRow:
    n: int
    m: int
    trial: int
    statistic: str
    value: float
    exact: bool


@dataclass
class StudyResult:
    rows: list[ScalingRow] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def gaussian_frame(spec: EnsembleSpec, trial: int = 0) -> Frame:
    """i.i.d. N(0,1) frame, column-normalized or globally scaled by 1/sqrt(n)."""
    rng = _philox(spec.seed, ((spec.n * 1_000_003 + spec.m) << 32) | trial)
    mat = rng.standard_normal((spec.n, spec.m))
    if spec.scale == "unit_columns":
        norms = np.linalg.norm(mat, axis=0)
        # a zero column has probability zero; redraw defensively
        while np.any(norms == 0.0):
            mat = rng.standard_normal((spec.n, spec.m))
            norms = np.linalg.norm(mat, axis=0)
        mat = mat / norms
    else:
        mat = mat / np.sqrt(spec.n)
    return Frame(mat)


def witness_bound_51(frame: Frame) -> dict:
    """The constructive sigma_n bound from the first n+1 columns.

    A null combination c of the first n+1 columns exists; dropping the column
    with the smallest |c_j| leaves an n x n block G with
    sigma_n(G) <= L / sqrt(n), L the largest norm among the n+1 columns.
    """
    n, m = frame.dim, frame.count
    if m < n + 1:
        raise ValidationError(f"need m >= n+1, got n={n}, m={m}")
    block = frame.matrix[:, : n + 1]
    c = null_vector(block)
    excluded = int(np.argmin(np.abs(c)))
    keep = [j for j in range(n + 1) if j != excluded]
    sigma_n = float(subsets.sigma_n(frame.matrix, np.array([keep]))[0])
    big_l = float(np.max(np.linalg.norm(block, axis=0)))
    bound = big_l / np.sqrt(n)
    return {
        "sigma_n_G": sigma_n,
        "bound": bound,
        "holds": sigma_n <= bound + 1e-12,
        "excluded_index": excluded,
    }


def _run_study(n_list: list[int], trials: int, spec_of, measure) -> tuple[list[ScalingRow], dict]:
    """The loop the studies share: for each n, the spec spec_of(n); for each
    trial, measure(gaussian_frame(spec, trial), spec, trial) gives the
    (statistic, value, exact) triples of that draw.  Returns the rows in
    n-major order and {statistic: {int(n): median}}; a repeated n repeats its
    rows and keeps one median.  trials is checked before any draw: with no
    trials the medians would be NaN."""
    _check_count("trials", trials, 1)
    rows, medians = [], {}
    for n in n_list:
        spec = spec_of(n)
        values = {}
        for trial in range(trials):
            for stat, value, exact in measure(gaussian_frame(spec, trial), spec, trial):
                rows.append(ScalingRow(n, spec.m, trial, stat, value, exact))
                values.setdefault(stat, []).append(value)
        for stat, vals in values.items():
            medians.setdefault(stat, {})[int(n)] = float(np.median(vals))
    return rows, medians


def minimal_redundancy_study(
    n_list: list[int], trials: int, seed: int
) -> StudyResult:
    """Exact omega for unit-column Gaussian frames at minimal redundancy
    m = 2n-1, with exponential and polynomial decay fits on the medians.

    Non-full-spark draws (measure zero) are discarded and redrawn; omega is
    then the full-spark route of `omega(mode="exact")`.  For
    n <= 6 the identity Delta = omega is asserted by exhaustive enumeration.
    FULL_SPARK_BUDGET on C(2n-1, n) caps the full spark pass and so the
    C(2n-1, n-1) = C(2n-1, n) omega rows: n <= 13 runs.
    """
    redraws = 0

    def measure(frame, spec, trial):
        nonlocal redraws
        n, attempt = spec.n, 0
        while not full_spark(frame)[0]:
            redraws += 1
            attempt += 1
            frame = gaussian_frame(spec, trial + (attempt << 20))
        omega_val, _ = subsets.omega_complements(frame.matrix, combinations(range(spec.m), n - 1))
        if n <= 6:
            delta_val, _, _ = delta_op(frame, mode="exact")
            # both come from Grams of F's columns: compare squared, within
            # the Gram route's rounding allowance
            if abs(delta_val**2 - omega_val**2) > subsets.gram_allowance(frame.matrix):
                raise ValidationError(
                    f"Delta != omega at minimal redundancy: {delta_val!r} vs {omega_val!r}"
                )
        return [("omega", omega_val, True)]

    rows, medians = _run_study(
        n_list, trials, lambda n: EnsembleSpec(n, 2 * n - 1, "unit_columns", seed), measure
    )
    medians = dict(sorted(medians.get("omega", {}).items()))
    ns, med = np.array(list(medians), dtype=float), np.array(list(medians.values()))
    summary = {"median_omega": medians, "redraws": redraws}
    if len(ns) >= 2 and np.all(med > 0):
        exp_fit = np.polyfit(ns, np.log(med), 1)
        poly_fit = np.polyfit(np.log(ns), np.log(med), 1)
        exp_resid = float(np.sum((np.polyval(exp_fit, ns) - np.log(med)) ** 2))
        poly_resid = float(np.sum((np.polyval(poly_fit, np.log(ns)) - np.log(med)) ** 2))
        summary["exponential_fit"] = {"slope": float(exp_fit[0]), "residual": exp_resid}
        summary["polynomial_fit"] = {"slope": float(poly_fit[0]), "residual": poly_resid}
        summary["omega_n32_bounded_probe"] = {n: v * float(n) ** 1.5 for n, v in medians.items()}
    return StudyResult(rows, summary)


def tau_scaling_study(n_list: list[int], k: int, trials: int, seed: int) -> StudyResult:
    """Exact tau for n x (n+k) unit-column Gaussian matrices; reports the
    normalized medians tau * n^(k - 1/2) per n (tau's FULL_SPARK_BUDGET cap applies)."""
    _check_count("k", k)
    rows, medians = _run_study(
        n_list,
        trials,
        lambda n: EnsembleSpec(n, n + k, "unit_columns", seed),
        lambda frame, spec, trial: [("tau", tau_op(frame), True)],
    )
    medians = medians.get("tau", {})
    normalized = {n: v * float(n) ** (k - 0.5) for n, v in medians.items()}
    return StudyResult(rows, {"median_tau": medians, "normalized_median": normalized, "k": k})


def redundancy_stability_study(
    r0: float,
    n_list: list[int],
    trials: int,
    subset_budget: int,
    seed: int,
) -> StudyResult:
    """Sampled (and, when feasible, exact) Delta and omega for F = G / sqrt(n)
    with m = round(r0 * n); medians per n feed the non-decay inspection.  A
    sampled Delta also scores the omega witness's partition, as in
    `FrameAnalysis`."""
    if not 2 < r0 < inf:
        raise ValidationError(f"r0 must be finite and exceed 2, got {r0!r}")

    def measure(frame, spec, trial):
        n, m, kw = spec.n, spec.m, {"budget": subset_budget, "seed": seed + trial}
        d = delta_op(frame, mode="exact" if 1 << (m - 1) <= subset_budget else "sampled", **kw)
        try:
            o = omega_op(frame, mode="exact" if comb(m, n - 1) <= subset_budget else "sampled", **kw)
        except BudgetExceededError:
            o = omega_op(frame, mode="sampled", **kw)
        d_val, _, d_exact = _with_omega_partition(frame, d, o)
        return [("Delta", d_val, d_exact), ("omega", o[0], o[2])]

    rows, medians = _run_study(
        n_list,
        trials,
        lambda n: EnsembleSpec(n, int(round(r0 * n)), "one_over_sqrt_n", seed),
        measure,
    )
    return StudyResult(rows, {
        "r0": r0, "median_Delta": medians.get("Delta", {}), "median_omega": medians.get("omega", {})
    })
