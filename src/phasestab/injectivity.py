"""Phase retrievability: complement property, full spark, R(x) and the margin a0.

The three criteria are mathematically equivalent; phase_retrievable runs them
side by side and refuses to return if they disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from . import subsets
from .errors import BudgetExceededError, VerdictConflictError
from .frame_core import (
    Frame,
    SubsetMask,
    _check_vector,
    gram,
    matrix_rank,
    sym_eig,
)

# Positivity threshold for the scale-normalized margin a0 / (sum ||f_j||^4 / m).
# Sits ~1000x above the eigensolver noise floor while classifying genuinely
# near-degenerate frames (true normalized a0 ~ 1e-11 happens in random draws)
# the same way the exact rank-based criteria do.
A0_REL_TOL = 1e-12

COMPLEMENT_BUDGET_M = 24          # 2^(m-1) partitions enumerated up to here
FULL_SPARK_BUDGET = 10_000_000    # cap on C(m, n)


@dataclass
class A0Config:
    """Search configuration for the a0 minimization."""

    restarts: int = 64
    grid_density: float = 1e-3   # angular step for the certified n=2 grid
    max_iters: int = 200
    tol: float = 1e-10
    seed: int = 0
    structured_budget: int = 4096  # subsets probed for null-vector starts


@dataclass
class Certificate:
    """Verdict of phase retrievability with the witnessing data."""

    retrievable: bool
    method: str                        # complement | full_spark | a0_positive
    a0: float
    x_star: np.ndarray
    u_star: np.ndarray
    exact: bool
    witness: SubsetMask | None = field(default=None)

    def to_json_dict(self) -> dict:
        return {
            "retrievable": self.retrievable,
            "method": self.method,
            "witness_bits": None if self.witness is None else self.witness.bits,
            "a0": self.a0,
            "x_star": self.x_star.tolist(),
            "u_star": self.u_star.tolist(),
            "exact": self.exact,
        }


def complement_property(frame: Frame) -> tuple[bool, SubsetMask | None]:
    """Exact check that every partition (S, S^c) leaves one side spanning R^n.

    Enumerates the 2^(m-1) partitions whose S omits the last index (S and S^c
    are interchangeable) in increasing bitmask order, with the batched rank
    verdict of `subsets.spans`; the witness on failure is the smallest
    violating bitmask.
    """
    m = frame.count
    if m > COMPLEMENT_BUDGET_M:
        raise BudgetExceededError(
            f"exact complement check infeasible: m={m} > {COMPLEMENT_BUDGET_M}"
        )
    bits = subsets.first_violating_partition(frame.matrix)
    return (True, None) if bits is None else (False, SubsetMask(bits, m))


def full_spark(frame: Frame) -> tuple[bool, SubsetMask | None]:
    """Exact check that every n-subset of columns is linearly independent.

    The witness is the first deficient n-subset in itertools.combinations
    order (all columns when m < n).
    """
    n, m = frame.dim, frame.count
    if m < n:
        return False, SubsetMask.from_indices(range(m), m)
    if comb(m, n) > FULL_SPARK_BUDGET:
        raise BudgetExceededError(
            f"full spark enumeration infeasible: C({m},{n}) > {FULL_SPARK_BUDGET}"
        )
    idx = subsets.first_deficient(frame.matrix)
    if idx is None:
        return True, None
    return False, SubsetMask.from_indices(idx.tolist(), m)


def r_matrix(frame: Frame, x: np.ndarray) -> np.ndarray:
    """R(x) = sum_j |<x, f_j>|^2 f_j f_j^T, symmetric PSD, quadratic in x."""
    x = _check_vector(frame, x)
    coeffs = (frame.matrix.T @ x) ** 2
    return (frame.matrix * coeffs) @ frame.matrix.T


def _lambda_min_r(frame: Frame, x: np.ndarray) -> tuple[float, np.ndarray]:
    evals, evecs = sym_eig(r_matrix(frame, x))
    return float(max(evals[-1], 0.0)), evecs[:, -1]


def _a0_polar_grid(frame: Frame, cfg: A0Config) -> tuple[float, np.ndarray, np.ndarray]:
    """Certified minimization for n=2: dense angular grid plus local refinement.

    lambda_min(R(x)) on the circle has a closed 2x2 form, so the grid sweep is
    vectorized and the winner is polished by shrinking grids around it.
    """
    mat = frame.matrix

    def lam_min(phis: np.ndarray) -> np.ndarray:
        xs = np.vstack([np.cos(phis), np.sin(phis)])      # (2, k)
        c2 = (mat.T @ xs) ** 2                            # (m, k)
        # R entries: [[r00, r01], [r01, r11]]
        r00 = c2.T @ (mat[0] ** 2)
        r11 = c2.T @ (mat[1] ** 2)
        r01 = c2.T @ (mat[0] * mat[1])
        tr = r00 + r11
        disc = np.sqrt(np.maximum((r00 - r11) ** 2 + 4 * r01**2, 0.0))
        return 0.5 * (tr - disc)

    lo, hi = 0.0, np.pi
    phis = np.arange(lo, hi, cfg.grid_density)
    vals = lam_min(phis)
    best = int(np.argmin(vals))
    center, width = phis[best], cfg.grid_density
    for _ in range(12):  # shrink to ~1e-15 rad around the minimizer
        local = np.linspace(center - width, center + width, 65)
        lvals = lam_min(local)
        k = int(np.argmin(lvals))
        center, width = local[k], width / 16.0
    x_star = np.array([np.cos(center), np.sin(center)])
    val, u_star = _lambda_min_r(frame, x_star)
    return val, x_star, u_star


def _structured_starts(frame: Frame, cfg: A0Config) -> list[np.ndarray]:
    """Null vectors of F_S^T for small subsets S: candidate minimizers where
    lambda_min(R(x)) can vanish exactly."""
    n, m = frame.dim, frame.count
    starts: list[np.ndarray] = []
    if 2**m <= cfg.structured_budget:
        subsets = range(1, 1 << m)
        for bits in subsets:
            cols = [i for i in range(m) if bits >> i & 1]
            sub = frame.matrix[:, cols]
            if matrix_rank(sub) < n:
                # unit vector orthogonal to every column in S
                _, _, vt = np.linalg.svd(sub.T, full_matrices=True)
                starts.append(vt[-1])
    else:
        for subset in combinations(range(m), n - 1):
            sub = frame.matrix[:, list(subset)]
            _, _, vt = np.linalg.svd(sub.T, full_matrices=True)
            starts.append(vt[-1])
    return starts


def _a0_descent(frame: Frame, x0: np.ndarray, cfg: A0Config) -> tuple[float, np.ndarray, np.ndarray]:
    """Alternating eigen minimization then projected gradient polish from x0."""
    x = x0 / np.linalg.norm(x0)
    mat = frame.matrix
    val, u = _lambda_min_r(frame, x)
    # Alternating: u <- argmin_u, then x <- argmin_x of the biquadratic form.
    for _ in range(50):
        w = (mat.T @ u) ** 2
        m_u = (mat * w) @ mat.T
        evals, evecs = sym_eig(m_u)
        x_new = evecs[:, -1]
        new_val, u_new = _lambda_min_r(frame, x_new)
        if new_val > val - cfg.tol:
            break
        x, u, val = x_new, u_new, new_val
    # Projected gradient polish on the sphere with backtracking.
    step = 1.0
    for _ in range(cfg.max_iters):
        coeffs = mat.T @ x
        grad = 2.0 * (mat * (coeffs * (mat.T @ u) ** 2)) @ np.ones(frame.count)
        rgrad = grad - np.dot(grad, x) * x
        gnorm = np.linalg.norm(rgrad)
        if gnorm < cfg.tol:
            break
        t = step
        improved = False
        for _ in range(40):
            cand = x - t * rgrad
            cand /= np.linalg.norm(cand)
            cand_val, cand_u = _lambda_min_r(frame, cand)
            if cand_val < val - 0.25 * t * gnorm**2:
                x, u, val = cand, cand_u, cand_val
                step = min(t * 2.0, 1.0)
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return val, x, u


def a0(frame: Frame, cfg: A0Config | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """The injectivity margin a0 = min over unit x of lambda_min(R(x)).

    For n = 2 the value is certified by a dense polar grid with refinement.
    For n >= 3 a multi-start descent (structured null-vector starts plus
    seeded random starts) returns an upper bound on the true a0.
    """
    cfg = cfg or A0Config()
    if frame.dim == 1:
        val = float(np.sum(frame.matrix[0] ** 4))
        one = np.ones(1)
        return val, one, one
    if frame.dim == 2:
        return _a0_polar_grid(frame, cfg)

    rng = np.random.default_rng(np.random.Philox(key=[cfg.seed, 0x61_30]))
    starts: list[np.ndarray] = list(np.eye(frame.dim))
    starts.extend(_structured_starts(frame, cfg))
    evals, evecs = sym_eig(gram(frame))
    starts.append(evecs[:, -1])
    for _ in range(cfg.restarts):
        starts.append(rng.standard_normal(frame.dim))

    best = None
    for x0 in starts:
        norm = np.linalg.norm(x0)
        if norm == 0:
            continue
        val, x, u = _a0_descent(frame, x0, cfg)
        if best is None or val < best[0]:
            best = (val, x, u)
        if best[0] == 0.0:
            break
    return best


def a0_scale(frame: Frame) -> float:
    """Degree-4 scale normalizer for a0 thresholds: sum ||f_j||^4 / m."""
    norms_sq = np.sum(frame.matrix**2, axis=0)
    return float(np.sum(norms_sq**2) / frame.count)


def a0_is_positive(frame: Frame, a0_value: float) -> bool:
    scale = a0_scale(frame)
    if scale == 0.0:
        return False
    return a0_value / scale > A0_REL_TOL


def phase_retrievable(frame: Frame, cfg: A0Config | None = None) -> Certificate:
    """Decide phase retrievability, cross-checking Theorem-equivalent criteria.

    Runs the exact complement-property enumeration (when feasible) alongside
    the a0 search; for m = 2n-1 the full-spark criterion is cross-checked too.
    Any disagreement raises VerdictConflictError instead of being resolved
    silently.
    """
    cfg = cfg or A0Config()
    n, m = frame.dim, frame.count
    a0_val, x_star, u_star = a0(frame, cfg)
    a0_verdict = a0_is_positive(frame, a0_val)
    exact = frame.dim <= 2

    complement_verdict = None
    witness = None
    try:
        complement_verdict, witness = complement_property(frame)
    except BudgetExceededError:
        pass

    if complement_verdict is not None:
        if complement_verdict != a0_verdict:
            raise VerdictConflictError(
                f"complement property says {complement_verdict} but "
                f"a0={a0_val!r} (normalized {a0_val / max(a0_scale(frame), 1e-300):.3e}) "
                f"says {a0_verdict}; numerical threshold problem"
            )

    if m == 2 * n - 1:
        spark_verdict, spark_witness = full_spark(frame)
        reference = complement_verdict if complement_verdict is not None else a0_verdict
        if spark_verdict != reference:
            raise VerdictConflictError(
                f"full spark says {spark_verdict} but the other criteria say {reference}"
            )
        if witness is None and spark_witness is not None:
            witness = spark_witness

    if complement_verdict is not None:
        retrievable = complement_verdict
        method = "complement"
    else:
        retrievable = a0_verdict
        method = "a0_positive"

    return Certificate(
        retrievable=retrievable,
        method=method,
        a0=a0_val,
        x_star=x_star,
        u_star=u_star,
        exact=exact,
        witness=None if retrievable else witness,
    )
