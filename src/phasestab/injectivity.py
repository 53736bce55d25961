"""Phase retrievability: complement property, full spark, R(x) and the margin a0.

The three criteria are mathematically equivalent; phase_retrievable runs them
side by side and refuses to return if they disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import subsets
from .errors import BudgetExceededError, VerdictConflictError
from .frame_core import (
    Frame,
    SubsetMask,
    _check_vector,
    gram,
    matrix_rank,  # noqa: F401 -- unused; perfbench's tests read the name here
    sym_eig,
)

# Positivity threshold for the scale-normalized margin a0 / (sum ||f_j||^4 / m).
# Sits ~1000x above the eigensolver noise floor while classifying genuinely
# near-degenerate frames (true normalized a0 ~ 1e-11 happens in random draws)
# the same way the exact rank-based criteria do.
A0_REL_TOL = 1e-12

COMPLEMENT_BUDGET_M = 24          # 2^(m-1) partitions enumerated up to here
FULL_SPARK_BUDGET = 10_000_000    # cap on C(m, n)
POLAR_STEP = 1e-3                 # angular step of the n = 2 grid (no error bound)
A0_TOL = 1e-10                    # a0 descent stops below this gradient norm or gain
STRUCTURED_BUDGET = 4096          # 2^m subsets probed for null-vector starts


@dataclass
class A0Config:
    """Search configuration for the a0 minimization."""

    restarts: int = 64
    max_iters: int = 200
    seed: int = 0


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


def _polar_argmin(objective) -> np.ndarray:
    """Unit x = (cos phi, sin phi), phi in [0, pi), minimizing objective(xs)
    over 2 x k arrays of such columns: a POLAR_STEP grid, then 12 rounds of
    65 points over +-width around the winner, width / 16 per round.  A
    minimum narrower than the grid step can be missed: no error bound."""
    phis, width = np.arange(0.0, np.pi, POLAR_STEP), POLAR_STEP
    for _ in range(13):  # the full grid, then 12 refinements
        center = phis[int(np.argmin(objective(np.vstack([np.cos(phis), np.sin(phis)]))))]
        phis, width = np.linspace(center - width, center + width, 65), width / 16.0
    return np.array([np.cos(center), np.sin(center)])


def _sphere_descent(f, grad, x, val, extra, max_iters: int, tol: float):
    """Descent of f on the unit sphere from unit x, (val, extra) = f(x): each
    round backtracks along the projected grad(x, extra) over 40 halvings of
    t until the Armijo test (constant 0.25) holds, then starts the next
    round at min(2t, 1).  Stops after max_iters rounds, below a gradient
    norm of tol, or when no t passes; returns (val, x, extra) there."""
    step = 1.0
    for _ in range(max_iters):
        g = grad(x, extra)
        rgrad = g - np.dot(g, x) * x
        gnorm = np.linalg.norm(rgrad)
        if gnorm < tol:
            break
        t = step
        for _ in range(40):
            cand = x - t * rgrad
            cand /= np.linalg.norm(cand)
            cand_val, cand_extra = f(cand)
            if cand_val < val - 0.25 * t * gnorm**2:
                x, val, extra = cand, cand_val, cand_extra
                step = min(t * 2.0, 1.0)
                break
            t *= 0.5
        else:
            break
    return val, x, extra


def _a0_polar_grid(frame: Frame) -> tuple[float, np.ndarray, np.ndarray]:
    """a0 for n = 2 on the polar grid, which carries no error bound;
    lambda_min(R(x)) has a closed 2x2 form, so each grid is one sweep."""
    mat = frame.matrix

    def lam_min(xs: np.ndarray) -> np.ndarray:
        c2 = (mat.T @ xs) ** 2                            # (m, k)
        # R entries: [[r00, r01], [r01, r11]]
        r00 = c2.T @ (mat[0] ** 2)
        r11 = c2.T @ (mat[1] ** 2)
        r01 = c2.T @ (mat[0] * mat[1])
        tr = r00 + r11
        disc = np.sqrt(np.maximum((r00 - r11) ** 2 + 4 * r01**2, 0.0))
        return 0.5 * (tr - disc)

    x_star = _polar_argmin(lam_min)
    val, u_star = _lambda_min_r(frame, x_star)
    return val, x_star, u_star


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
        if new_val > val - A0_TOL:
            break
        x, u, val = x_new, u_new, new_val
    # Projected gradient polish on the sphere; u is the eigenvector at x.
    ones = np.ones(frame.count)
    return _sphere_descent(
        lambda y: _lambda_min_r(frame, y),
        lambda y, v: 2.0 * (mat * ((mat.T @ y) * (mat.T @ v) ** 2)) @ ones,
        x, val, u, cfg.max_iters, A0_TOL,
    )


def a0(frame: Frame, cfg: A0Config | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """The injectivity margin a0 = min over unit x of lambda_min(R(x)).

    For n = 2 a dense polar grid with refinement gives the value, with no
    error bound.
    For n >= 3 a multi-start descent (structured null-vector starts plus
    seeded random starts) returns an upper bound on the true a0.
    """
    cfg = cfg or A0Config()
    if frame.dim == 1:
        val = float(np.sum(frame.matrix[0] ** 4))
        one = np.ones(1)
        return val, one, one
    if frame.dim == 2:
        return _a0_polar_grid(frame)

    rng = np.random.default_rng(np.random.Philox(key=[cfg.seed, 0x61_30]))
    starts: list[np.ndarray] = list(np.eye(frame.dim))
    # null vectors of F_S^T for small S, where lambda_min(R(x)) can vanish
    starts.extend(subsets.kernel_starts(frame.matrix, 2**frame.count <= STRUCTURED_BUDGET))
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
