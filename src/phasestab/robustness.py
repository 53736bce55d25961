"""Worst-case stability measures and Lipschitz constants of the magnitude maps.

Computes Delta, omega, tau, Lambda_F, the local radii eps0/delta_x, the ratio
families U and V, the stability measure Q_eps(x) with its theory brackets, and
the extremal witnesses that make the bounds tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    NotAFrameError,
    ValidationError,
    VerdictConflictError,
)
from .frame_core import (
    Frame,
    SubsetMask,
    _check_count,
    _check_vector,
    _philox,
    analysis_map,
    analysis_map_sq,
    dist_d,
    dist_d1,
    gram,
    matrix_rank,  # noqa: F401 -- unused; perfbench's tests read the name here
    sym_eig,
    frame_bounds,
)
from . import subsets
from .injectivity import (
    A0Config,
    _check_subset_budget,
    _matvecs,
    _unit_rows,
    a0 as a0_search,
    r_matrix,
)

EXACT_SUBSET_BUDGET = 1 << 18  # cap on 2^(m-1) for exact Delta
DEFAULT_SAMPLE_BUDGET = 512

LAMBDA_RESTARTS = 32           # seeded random starts of the Lambda_F power iteration
LAMBDA_MAX_ITERS = 1000        # rounds per start; a start also stops at its first
                               # round whose quartic sum does not rise
QEPS_REFINE_ROUNDS = 60        # hill-climb rounds on the winning direction, stacked:
                               # one line search per accepted step (`_hill_climb`)


@dataclass
class StabilityConstants:
    Delta: float
    omega: float
    tau: float
    lambdaF: float
    A: float                                        # frame bounds, as computed
    B: float
    a0: float                                       # the a0 search's value
    exact: dict = field(default_factory=dict)       # per-constant exactness flags
    witnesses: dict = field(default_factory=dict)

    @property
    def sqrtA(self) -> float:
        return float(np.sqrt(self.A))

    @property
    def sqrtB(self) -> float:
        return float(np.sqrt(self.B))

    @property
    def mu0(self) -> float:
        return float(np.sqrt(max(self.a0, 0.0)))

    def to_json_dict(self) -> dict:
        wit = {}
        for key, val in self.witnesses.items():
            if isinstance(val, SubsetMask):
                wit[key] = val.bits
            elif isinstance(val, np.ndarray):
                wit[key] = val.tolist()
            else:
                wit[key] = val
        return {
            "A": self.A,
            "B": self.B,
            "a0": self.a0,
            "Delta": self.Delta,
            "omega": self.omega,
            "tau": self.tau,
            "lambdaF": self.lambdaF,
            "mu0": self.mu0,
            "exact_flags": dict(self.exact),
            "witnesses": wit,
        }


@dataclass
class StabilityReport:
    x: np.ndarray
    eps: float
    Q_estimate: float
    bracket: tuple[float, float]
    witness: tuple[np.ndarray, np.ndarray, np.ndarray]  # (w1, w2, y)
    Q_theory: float | None = None

    def to_json_dict(self) -> dict:
        w1, w2, y = self.witness
        return {
            "x": self.x.tolist(),
            "eps": self.eps,
            "Q_estimate": self.Q_estimate,
            "Q_theory": self.Q_theory,
            "bracket": [self.bracket[0], self.bracket[1]],
            "witness": {"w1": w1.tolist(), "w2": w2.tolist(), "y": y.tolist()},
        }


# ---------------------------------------------------------------------------
# Subset-spectral constants: Delta, omega, tau.
# ---------------------------------------------------------------------------

def delta(
    frame: Frame,
    mode: str = "exact",
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
) -> tuple[float, SubsetMask, bool]:
    """Delta = min over partitions (S, S^c) of sqrt(A[S] + A[S^c]).

    Exact mode runs a branch-and-bound over the partitions S < 2^(m-1) in
    bounded memory and returns the first minimum in bitmask order
    (`subsets.delta_exact`).  It runs when the 2^(m-1) partitions number at
    most max(budget, EXACT_SUBSET_BUDGET), whatever the frame: the budget
    counts partitions, not the Grams the search solves or its memory.  Sampled
    mode scores seeded random and thin subsets in one `subsets.partition_bounds`
    call and keeps the first of least value in bitmask order, then descends
    by Hamming-distance-1 flips, scored in blocks, taking a flip only when
    it scores strictly lower; the result is then an upper bound
    (exact=False).
    """
    n, m = frame.dim, frame.count
    full = (1 << m) - 1
    if mode == "exact":
        if 1 << (m - 1) > max(budget, EXACT_SUBSET_BUDGET):
            raise BudgetExceededError(f"exact Delta infeasible for m={m}")
        value, bits = subsets.delta_exact(frame.matrix)
        return value, SubsetMask(bits, m), True
    if mode != "sampled":
        raise ValidationError(f"unknown delta mode {mode!r}")
    _check_count("budget", budget, 1)

    rng = _philox(seed, 0xDE_17A)

    candidates: set[int] = {0}
    # Thin subsets: singletons and complements of (n-1)-subsets of nearby sizes.
    candidates.update(1 << i for i in range(m))
    for _ in range(budget // 4):
        size = int(rng.integers(max(1, n - 1), n + 1))
        idx = rng.choice(m, size=min(size, m), replace=False)
        candidates.add(full ^ sum(1 << int(i) for i in idx))
    for _ in range(2 * budget):
        if len(candidates) >= budget:
            break
        draw = np.nonzero(rng.random(m) < 0.5)[0]
        candidates.add(sum(1 << int(i) for i in draw))

    masks = sorted(candidates)
    values = subsets.partition_bounds(frame.matrix, masks)
    i = int(np.argmin(values))
    value, key = values[i], masks[i]
    # Local descent: flip one index at a time, keeping each flip that
    # scores strictly lower (first improvement, in index order).
    # Flips are scored in blocks of 1, 2, 4, ... per call, back to 1 after
    # a kept flip, so the flips scored past a kept one are at most as many
    # as those scored since the previous kept flip.
    for _ in range(20):
        start, i, size = key, 0, 1
        while i < m:
            flips = [key ^ (1 << j) for j in range(i, min(m, i + size))]
            values = subsets.partition_bounds(frame.matrix, flips)
            hits = np.flatnonzero(values < value)
            if hits.size:
                value, key = values[hits[0]], flips[hits[0]]
                i, size = i + int(hits[0]) + 1, 1
            else:
                i, size = i + len(flips), 2 * size
        if key == start:  # values only fall, so no flip improved
            break
    return float(np.sqrt(value)), SubsetMask(key, m), False


def omega(
    frame: Frame,
    mode: str = "exact",
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
) -> tuple[float, SubsetMask, bool]:
    """omega = min sigma_n(F_S) over S whose complement does not span R^n.

    Exact mode: sigma_n grows with S, so the minimum sits at a least such S,
    an H_T^c (`subsets.hyperplane_complements`), up to FULL_SPARK_BUDGET
    n-subsets; when no n-subset spans, omega = 0 at S = {}.  The witness is
    the first candidate of least value in combinations order of T whose
    complement does not span R^n (`subsets.omega_min`).  Under the rank
    floor an H_T can span; its H_T^c is then skipped, and where one is,
    the value is an upper bound on omega.  VerdictConflictError is raised
    when every candidate is skipped.  Sampled mode draws the T and keeps the
    first of least value in draw order.
    """
    n, m = frame.dim, frame.count
    if mode == "exact":
        _check_subset_budget(frame, "exact omega")
        value, bits = subsets.omega_min(frame.matrix, subsets.hyperplane_complements(frame.matrix))
        return value, SubsetMask(bits, m), True
    if mode != "sampled":
        raise ValidationError(f"unknown omega mode {mode!r}")
    _check_count("budget", budget, 1)

    rng = _philox(seed, 0x03E_6A)
    draws = (rng.choice(m, size=n - 1, replace=False) for _ in range(budget))
    value, bits = subsets.omega_complements(frame.matrix, draws)
    return value, SubsetMask(bits, m), False


def tau(frame: Frame) -> float:
    """tau = min sigma_n(F_S) over rank-n subsets; attained at size-n subsets.
    One pass over the n-subsets, under the FULL_SPARK_BUDGET cap on C(m, n)
    that full spark, the complement check and exact omega share;
    NotAFrameError when no n-subset spans R^n."""
    _check_subset_budget(frame, "tau enumeration")
    best = subsets.tau(frame.matrix)
    if not np.isfinite(best):
        raise NotAFrameError("no rank-n subset exists: the columns do not span R^n")
    return best


def _with_omega_partition(
    frame: Frame,
    d: tuple[float, SubsetMask, bool],
    o: tuple[float, SubsetMask, bool],
) -> tuple[float, SubsetMask, bool]:
    """Delta result d, lowered to the partition (S_omega, S_omega^c) of the
    omega result o when d is sampled and that partition scores lower.  The
    complement of S_omega does not span, so its score is about omega^2 and
    sampled Delta <= omega holds as Delta <= omega does.  Exact Delta is
    returned as is: its Gram sums may differ from the stacked Grams that
    score the partition by rounding."""
    value, _, exact = d
    if exact:
        return d
    score = float(np.sqrt(subsets.partition_bounds(frame.matrix, [o[1].bits])[0]))
    return (score, o[1], False) if score < value else d


@dataclass(eq=False)
class FrameAnalysis:
    """Delta, omega and tau of one frame, each computed once, on first use.

    Over-budget Delta and omega fall back to seeded sampled upper bounds over
    sample_budget subsets (exact flag False), or raise BudgetExceededError
    when sample_budget is None.  A sampled Delta also scores the omega
    witness's partition and keeps it when lower.  The kernels are the module
    functions `delta`, `omega` and `tau`, looked up at call time.
    """

    frame: Frame
    sample_budget: int | None = DEFAULT_SAMPLE_BUDGET
    seed: int = 0

    def _exact_or_sampled(self, kernel) -> tuple[float, SubsetMask, bool]:
        try:
            return kernel(self.frame, mode="exact")
        except BudgetExceededError:
            if self.sample_budget is None:
                raise
        return kernel(self.frame, mode="sampled", budget=self.sample_budget, seed=self.seed)

    @cached_property
    def delta(self) -> tuple[float, SubsetMask, bool]:
        """(Delta, witness partition S, exact flag)."""
        d = self._exact_or_sampled(delta)
        return d if d[2] else _with_omega_partition(self.frame, d, self.omega)

    @cached_property
    def omega(self) -> tuple[float, SubsetMask, bool]:
        """(omega, witness subset S, exact flag)."""
        return self._exact_or_sampled(omega)

    @cached_property
    def tau(self) -> float:
        return tau(self.frame)


# ---------------------------------------------------------------------------
# Lambda_F: operator norm of the analysis map into l^4.
# ---------------------------------------------------------------------------

def _quartic_sums(mat: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_k <x_i, f_k>^4 for each row x_i of xs."""
    return np.sum(_matvecs(mat.T, xs) ** 4, axis=1)


def lambdaF(frame: Frame) -> tuple[float, np.ndarray]:
    """Lambda_F = (max over unit x of sum_k |<x,f_k>|^4)^(1/4).

    For n = 2, x = (cos a, sin a), the sum is evaluated at a = 0 (the
    maximum when it is constant, as on MB3) and at every critical point,
    exact up to the rounding of the roots: with z_k = (f_k1 + i f_k2)^2 the
    sum is const + Re(C1 s^-1) + Re(C2 s^-2) in s = e^(2ia),
    C1 = sum_k |z_k| z_k / 2 and C2 = sum_k z_k^2 / 8, and its critical
    points are roots of -2 conj(C2) s^4 - conj(C1) s^3 + C1 s + 2 C2.
    For n >= 3 the power iteration x <- F (F^T x)^3 / ||F (F^T x)^3|| runs
    from the axes, the frame vectors and LAMBDA_RESTARTS seeded starts, all
    in lockstep.  The sum is convex, so a step never lowers it in exact
    arithmetic (Kolda and Mayo, SIAM J. Matrix Anal. Appl. 32(4), 2011, at
    shift 0); a start keeps the new point only where its sum rises
    strictly, and retires at its first round without a rise or after
    LAMBDA_MAX_ITERS rounds.  Every step is per row (`_matvecs`,
    np.vecdot), so a start in the stack is bit-identical to the start run
    alone, and scaling F by a power of two scales every iterate's sum
    exactly while the sums stay in the float range.  The first largest
    value wins.
    Cross-checked against Lambda_F^2 = max over unit x of lambda_max(R(x));
    the two routes must agree within 1e-6 relative.
    """
    mat, n = frame.matrix, frame.dim
    if n == 2:
        z = (mat[0] + 1j * mat[1]) ** 2
        c1, c2 = 0.5 * np.sum(np.abs(z) * z), 0.125 * np.sum(z * z)
        try:
            roots = np.roots([-2.0 * np.conj(c2), -np.conj(c1), 0.0, c1, 2.0 * c2])
        except np.linalg.LinAlgError as exc:  # coefficients beyond the float range
            raise ConvergenceError(f"Lambda_F critical points not found: {exc}") from exc
        alphas = np.concatenate([[0.0], 0.5 * np.angle(roots)])
        xs = np.column_stack([np.cos(alphas), np.sin(alphas)])
        sums = _quartic_sums(mat, xs)
    else:
        rng = _philox(0, 0x1A_4F)
        xs = _unit_rows(np.vstack([np.eye(n), mat.T, rng.standard_normal((LAMBDA_RESTARTS, n))]))
        sums = _quartic_sums(mat, xs)
        # <x, F (F^T x)^3> is the sum, so only a start at 0 can map to 0
        live = np.flatnonzero(sums > 0)
        for _ in range(LAMBDA_MAX_ITERS):
            if live.size == 0:
                break
            g = _matvecs(mat, _matvecs(mat.T, xs[live]) ** 3)
            g /= np.sqrt(np.vecdot(g, g))[:, None]
            new = _quartic_sums(mat, g)
            up = new > sums[live]
            live = live[up]
            xs[live], sums[live] = g[up], new[up]
    best = int(np.argmax(sums))  # the first largest value
    best_val, x_star = float(sums[best]), xs[best].copy()

    # Cross-route: Lambda_F^2 must equal max lambda_max(R(x)) at the argmax.
    evals, _ = sym_eig(r_matrix(frame, x_star))
    cross = float(evals[0])
    if abs(cross - best_val) > 1e-6 * max(best_val, cross):
        raise VerdictConflictError(
            f"Lambda_F routes disagree: quartic {best_val!r} vs lambda_max(R) {cross!r}"
        )
    return float(best_val ** 0.25), x_star


# ---------------------------------------------------------------------------
# Local radii and ratio families.
# ---------------------------------------------------------------------------

def _active(frame: Frame, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|<f_k,x>|, ||f_k||) over the active set, where the coefficient is not
    negligible against ||f_k|| ||x||."""
    x = _check_vector(frame, x)
    coeffs = np.abs(frame.matrix.T @ x)
    norms = np.linalg.norm(frame.matrix, axis=0)
    active = coeffs > 1e-12 * norms * np.linalg.norm(x)
    if not np.any(active):
        raise ValidationError("all frame coefficients vanish at x")
    return coeffs[active], norms[active]


def eps0(frame: Frame, x: np.ndarray) -> float:
    """eps0(x) = min nonzero |<f_k,x>| / max ||f_k|| over the active set."""
    coeffs, norms = _active(frame, x)
    return float(np.min(coeffs) / np.max(norms))


def delta_x(frame: Frame, x: np.ndarray, analysis: FrameAnalysis | None = None) -> float:
    """delta_x = (2 tau / (max ||f_j|| + tau)) * min nonzero |<f_j,x>|."""
    coeffs, _ = _active(frame, x)
    t = (analysis or FrameAnalysis(frame)).tau
    return float(2.0 * t / (frame.max_column_norm() + t) * np.min(coeffs))


def u_ratio(frame: Frame, x: np.ndarray, y: np.ndarray) -> float:
    """U(x,y) = ||alpha(x) - alpha(y)|| / d(x,y)."""
    d = dist_d(x, y)
    if d == 0.0:
        raise ValidationError("u_ratio undefined: d(x,y) = 0")
    return float(np.linalg.norm(analysis_map(frame, x) - analysis_map(frame, y)) / d)


def v_ratio(frame: Frame, x: np.ndarray, y: np.ndarray) -> float:
    """V(x,y) = ||alpha^2(x) - alpha^2(y)|| / d1(x,y), two routes cross-checked."""
    d1 = dist_d1(x, y)
    if d1 == 0.0:
        raise ValidationError("v_ratio undefined: d1(x,y) = 0")
    direct = float(
        np.linalg.norm(analysis_map_sq(frame, x) - analysis_map_sq(frame, y)) / d1
    )
    w1, w2 = np.asarray(x, float) - np.asarray(y, float), np.asarray(x, float) + np.asarray(y, float)
    coeffs = (frame.matrix.T @ w1) * (frame.matrix.T @ w2)
    via_lemma = float(
        np.sqrt(np.sum(coeffs**2)) / (np.linalg.norm(w1) * np.linalg.norm(w2))
    )
    if abs(direct - via_lemma) > 1e-9 * max(direct, via_lemma, 1.0):
        raise VerdictConflictError(
            f"V routes disagree: {direct!r} vs {via_lemma!r}"
        )
    return direct


def u_ratios_batch(frame: Frame, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized U over rows of xs, ys (pairs with d = 0 yield nan)."""
    ax = np.abs(xs @ frame.matrix)
    ay = np.abs(ys @ frame.matrix)
    num = np.linalg.norm(ax - ay, axis=1)
    d = np.minimum(
        np.linalg.norm(xs - ys, axis=1), np.linalg.norm(xs + ys, axis=1)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d > 0, num / d, np.nan)


def v_ratios_batch(frame: Frame, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized V over rows of xs, ys via the rank-two product form."""
    w1, w2 = xs - ys, xs + ys
    coeffs = (w1 @ frame.matrix) * (w2 @ frame.matrix)
    num = np.linalg.norm(coeffs, axis=1)
    den = np.linalg.norm(w1, axis=1) * np.linalg.norm(w2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / den, np.nan)


# ---------------------------------------------------------------------------
# Q_eps(x): feasible-witness maximization and the theory brackets.
# ---------------------------------------------------------------------------

@dataclass
class QepsConfig:
    restarts: int = 128
    seed: int = 0

    def __post_init__(self):
        _check_count("restarts", self.restarts)


def _check_eps(eps: float) -> None:
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if not np.isfinite(eps):
        raise ValidationError(f"eps must be finite, got {eps!r}")


def _min_eigvec(mat: np.ndarray) -> np.ndarray:
    evals, evecs = sym_eig(mat)
    return evecs[:, -1]


def _structured_directions(frame: Frame, analysis: FrameAnalysis) -> list[np.ndarray]:
    """Eigenvector/kernel directions from the extremal constructions."""
    dirs = [_min_eigvec(gram(frame))]
    s_delta = analysis.delta[1]
    for mask in (s_delta, s_delta.complement()):
        if 0 < mask.size():
            dirs.append(_min_eigvec(gram(frame, mask)))
    s_omega = analysis.omega[1]
    comp = s_omega.complement()
    if comp.size() > 0:
        # kernel of F_{S^c}^T: direction invisible to the deficient block
        dirs.append(subsets.kernel_vectors(frame.matrix, np.array([comp.indices()]))[0])
    dirs.append(_min_eigvec(gram(frame, s_omega)))
    return dirs


def _feasible(mat: np.ndarray, x: np.ndarray, ys: np.ndarray, eps: float) -> np.ndarray:
    """||alpha(x) - alpha(y)|| <= eps per row y of ys: the one feasibility
    test of every Q_eps witness, with one matrix-vector product and one dot
    product per row, stacked."""
    diff = np.abs(np.matmul(mat.T, ys[:, :, None]))[:, :, 0] - np.abs(mat.T @ x)
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]))[:, 0, 0] <= eps


def _line_maxima(
    frame: Frame, x: np.ndarray, dirs: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """(d, t) per unit row u of dirs: the largest d(x, x + t u) over t >= 0
    with ||alpha(x) - alpha(x + t u)|| <= eps, exact up to rounding.

    With c = F^T x and e = F^T u, the squared gap g(t) is one quadratic per
    piece between sign changes t_k = -c_k / e_k > 0 of c + t e, with leading
    coefficient ||e||^2 > 0 on a spanning frame: past t_k the term (e_k t)^2
    becomes (e_k t + 2 c_k)^2.  The roots of g = eps^2 bound the feasible
    intervals, and d(t) = min(t, ||2x + t u||) peaks at an interval end or at
    t = -||x||^2 / <x, u>.  Candidates must pass `_feasible`; an end that
    fails by rounding steps into its interval by 1, 2, 4, ... ulps of
    |t| + ||x|| until it passes or leaves the interval.
    """
    mat = frame.matrix
    # every product with a row of dirs is taken within that row (a stacked
    # matrix-vector product, one dot product per row), so a row gives the
    # same bits in any stack
    c, e = mat.T @ x, np.matmul(mat.T, dirs[:, :, None])[:, :, 0]
    k, m = e.shape
    breaks = np.divide(-c, e, out=np.full_like(e, np.inf), where=c * e < 0)
    order = np.argsort(breaks, axis=1)
    edges, es = np.take_along_axis(breaks, order, 1), np.take_along_axis(e, order, 1)
    flipped = np.where(edges < np.inf, c[order], 0.0)  # c_k of each sign change, in order
    edges = np.hstack([np.zeros((k, 1)), edges, np.full((k, 1), np.inf)])
    a = np.sum(e * e, axis=1)[:, None]
    t0 = -2.0 * np.cumsum(np.hstack([np.zeros((k, 1)), flipped * es]), axis=1) / a
    resid = es[:, None, :] * t0[:, :, None] + np.where(
        np.tri(m + 1, m, -1, dtype=bool), 2.0 * flipped[:, None, :], 0.0
    )
    gmin = np.sum(resid * resid, axis=2)  # lowest value per piece; C - B^2/4A would cancel
    half = np.sqrt(np.where(gmin <= eps * eps, (eps * eps - gmin) / a, np.nan))
    lo, hi = np.maximum(t0 - half, edges[:, :-1]), np.minimum(t0 + half, edges[:, 1:])
    xu = np.vecdot(dirs, x)[:, None]
    tc = np.divide(-np.dot(x, x), xu, out=np.full_like(xu, np.nan), where=xu < 0)

    ts, lo, hi = np.hstack([lo, hi, tc]), np.hstack([lo, lo, tc]), np.hstack([hi, hi, tc])
    rows, cols = np.nonzero(lo <= hi)
    side = np.repeat([1.0, -1.0, 0.0], [m + 1, m + 1, 1])[cols]
    t, lo, hi = ts[rows, cols], lo[rows, cols], hi[rows, cols]

    def passes(idx: np.ndarray) -> np.ndarray:
        return _feasible(mat, x, x + t[idx, None] * dirs[rows[idx]], eps)

    ok = passes(np.arange(t.size))
    step = np.ldexp(np.abs(t) + np.linalg.norm(x), -52)
    # an infinite t never passes the recheck
    while (idx := np.flatnonzero(~ok & (side != 0) & (lo <= t) & (t <= hi) & np.isfinite(t))).size:
        t[idx] += side[idx] * step[idx]
        step[idx] *= 2.0
        ok[idx] = passes(idx)

    ys = x + t[:, None] * dirs[rows]
    dist = np.minimum(np.linalg.norm(ys - x, axis=1), np.linalg.norm(ys + x, axis=1))
    best = np.full(ts.shape, -np.inf)
    best[rows, cols], ts[rows, cols] = np.where(ok, dist, -np.inf), t
    j = np.argmax(best, axis=1)
    return best[np.arange(k), j], ts[np.arange(k), j]


def _hill_climb(
    frame: Frame, x: np.ndarray, eps: float, best_d: float, best_y: np.ndarray, rng
) -> tuple[float, np.ndarray]:
    """QEPS_REFINE_ROUNDS rounds around the line maximum (best_d, best_y):
    round r takes u + step z_r, z_r the r-th normal draw of rng, as the new
    direction u where its line maximum rises above best_d, else shrinks step
    (from 0.5) by 0.9.  One `_line_maxima` call takes every remaining round
    as if each failed, round r + j at the step after j shrinks; the first
    that rises is kept and the next call starts after it.  Its rows are
    lane-local, so this equals the one-call-per-round climb bit for bit."""
    zs = rng.standard_normal((QEPS_REFINE_ROUNDS, frame.dim))
    u = (best_y - x) / np.linalg.norm(best_y - x)
    step, r = 0.5, 0
    while r < QEPS_REFINE_ROUNDS:
        # cumprod multiplies in order: the bits of repeated step *= 0.9
        steps = np.cumprod(np.r_[step, np.full(QEPS_REFINE_ROUNDS - r - 1, 0.9)])
        cands = u + steps[:, None] * zs[r:]
        cands /= np.sqrt(np.vecdot(cands, cands))[:, None]
        ds, ts = _line_maxima(frame, x, cands, eps)
        rises = np.flatnonzero(ds > best_d)
        if not rises.size:
            break
        j = rises[0]
        best_d, best_y, u = float(ds[j]), x + ts[j] * cands[j], cands[j]
        step, r = steps[j], r + j + 1
    return best_d, best_y


def q_eps_estimate(
    frame: Frame,
    x: np.ndarray,
    eps: float,
    cfg: QepsConfig | None = None,
    analysis: FrameAnalysis | None = None,
) -> StabilityReport:
    """Lower bound on Q_eps(x): exact line maxima (`_line_maxima`) along the
    structured directions (lowest-eigenvector and kernel directions of the
    extremal constructions, both signs) and cfg.restarts seeded ones, then
    QEPS_REFINE_ROUNDS hill-climb rounds around the winner (`_hill_climb`,
    stacked, equal bit for bit to one call per round).  Each line is exact;
    the supremum over directions is not, so Q_estimate is a lower bound, and
    every witness passes `_feasible`, the test the lines apply.  Delta, omega
    and tau come from `analysis`; the bracket is `_brackets`', and
    Q_theory = 1/sqrt(A) is reported only where it is bounded and
    eps < delta_x.  Frames whose columns do not span R^n raise
    NotAFrameError: there Q_eps(x) is infinite.
    """
    cfg = cfg or QepsConfig()
    x = _check_vector(frame, x)
    _check_eps(eps)
    if not np.any(x):
        raise ValidationError("x must be nonzero")
    if frame.rank() < frame.dim:
        raise NotAFrameError("the columns do not span R^n: Q_eps(x) is unbounded")

    analysis = analysis or FrameAnalysis(frame, seed=cfg.seed)
    a_lower, _ = frame_bounds(frame)

    rng = _philox(cfg.seed, 0x9E_95)
    dirs = [s * u for u in _structured_directions(frame, analysis) for s in (1.0, -1.0)]
    dirs = np.vstack([dirs, rng.standard_normal((cfg.restarts, frame.dim))])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ds, ts = _line_maxima(frame, x, dirs, eps)
    i = int(np.argmax(ds))  # the first largest value
    best_d, best_y = float(ds[i]), x + ts[i] * dirs[i]

    if best_d > 0:
        best_d, best_y = _hill_climb(frame, x, eps, best_d, best_y, rng)

    # Feasibility recheck (defensive; line candidates were already checked).
    if not _feasible(frame.matrix, x, best_y[None], eps)[0]:
        best_y, best_d = x.copy(), 0.0

    lower, upper = _brackets(eps, analysis)
    q_theory = None
    try:
        if np.isfinite(lower) and eps < delta_x(frame, x, analysis):
            q_theory = 1.0 / np.sqrt(a_lower)
    except (ValidationError, NotAFrameError, BudgetExceededError):
        pass

    w1, w2 = x + best_y, x - best_y
    return StabilityReport(
        x=x,
        eps=eps,
        Q_estimate=best_d / eps,
        bracket=(lower, upper),
        witness=(w1, w2, best_y),
        Q_theory=q_theory,
    )


def _brackets(eps: float, analysis: FrameAnalysis) -> tuple[float, float]:
    """(lower, upper) = (min(1/eps, 1/omega), 1/Delta).  Delta = 0 or
    omega = 0 is an unbounded measure, (inf, inf): Delta <= omega, so a
    nonzero Delta with omega = 0 is the rounding residue of a rank-deficient
    side.  A sampled Delta lies above Delta, so its 1/Delta is no upper
    bracket: upper is inf unless Delta is exact.  A sampled omega lies above
    omega, so lower stays a lower bound."""
    delta_val, _, delta_exact = analysis.delta
    omega_val = analysis.omega[0]
    if delta_val == 0.0 or omega_val == 0.0:
        return np.inf, np.inf
    return min(1.0 / eps, 1.0 / omega_val), 1.0 / delta_val if delta_exact else np.inf


def q_eps_brackets(frame: Frame, eps: float, analysis: FrameAnalysis | None = None) -> dict:
    """Theory brackets for q_eps (`_brackets`): lower min(1/eps, 1/omega),
    upper 1/Delta, exact 1/omega when eps < tau; Delta = 0 or omega = 0
    reports an unbounded measure.  Without exact Delta and omega this raises
    BudgetExceededError."""
    _check_eps(eps)
    analysis = analysis or FrameAnalysis(frame, sample_budget=None)
    if not (analysis.delta[2] and analysis.omega[2]):
        raise BudgetExceededError("Q_eps brackets need exact Delta and omega")
    lower, upper = _brackets(eps, analysis)
    bounded = bool(np.isfinite(lower))
    return {
        "lower": lower,
        "upper": upper,
        "exact": 1.0 / analysis.omega[0] if bounded and eps < analysis.tau else None,
        "q_inf": upper,
        "unbounded": not bounded,
        "exact_enumeration": True,
    }


def omega_witness_point(frame: Frame, eps: float) -> np.ndarray:
    """The x of the small-eps extremal construction: Q_eps(x) >= min(1/eps, 1/omega).

    Builds w1 = t v1 along the lowest singular direction of the omega-achieving
    subset and w2 along a kernel vector of the deficient complement, scaled so
    ||w1 + w2|| = 2.  y = x - w1 is feasible with d(x, y) = t = min(eps/omega, 1)
    on the line along -v1, a structured direction of q_eps_estimate, whose
    line maximum is exact.
    """
    omega_val, s_omega, _ = omega(frame, mode="exact")
    if omega_val == 0.0:
        raise NotAFrameError("omega = 0: the construction needs a retrievable frame")
    v1 = _min_eigvec(gram(frame, s_omega))
    comp = s_omega.complement()
    if comp.size() == 0:
        raise NotAFrameError("omega subset has empty complement")
    v2 = subsets.kernel_vectors(frame.matrix, np.array([comp.indices()]))[0]
    t = min(eps / omega_val, 1.0)
    w1 = t * v1
    # solve ||w1 + s v2|| = 2 for s >= 1
    b = float(np.dot(w1, v2))
    s = -b + np.sqrt(b**2 + 4.0 - t**2)
    return 0.5 * (w1 + s * v2)


def worst_case_witness(frame: Frame) -> tuple[np.ndarray, np.ndarray, float]:
    """Extremal triple (x, y, eps) with d(x,y)/eps >= 1/Delta from the
    Delta-achieving partition; for Delta = 0 the triple demonstrates
    non-injectivity (alpha(x) = alpha(y) with x != ±y)."""
    delta_val, s0, _ = delta(frame, mode="exact")
    # An empty side: any unit vector has ||F_S^T v|| = 0; take e_1.
    e1 = np.eye(frame.dim)[0]
    u = _min_eigvec(gram(frame, s0)) if s0.size() else e1
    comp = s0.complement()
    v = _min_eigvec(gram(frame, comp)) if comp.size() else e1
    x = 0.5 * (u + v)
    y = 0.5 * (u - v)
    return x, y, delta_val


def lipschitz_constants(
    frame: Frame,
    a0_cfg: A0Config | None = None,
    subset_budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
) -> StabilityConstants:
    """Assemble every stability constant and assert the theory chain
    Delta = rho_inf <= omega <= rho_0 = sqrt(A) <= sqrt(B).  Over-budget
    Delta and omega fall back to subset_budget seeded samples.  a0 and
    Lambda_F are exact for n <= 2 (closed forms); for n >= 3 they come from
    searches, a0 an upper and Lambda_F a lower bound (exact flag False)."""
    analysis = FrameAnalysis(frame, subset_budget, seed)
    a_lower, b_upper = frame_bounds(frame)
    delta_val, s_delta, delta_exact = analysis.delta
    omega_val, s_omega, omega_exact = analysis.omega
    try:
        tau_val, tau_exact = analysis.tau, True
    except BudgetExceededError:
        tau_val, tau_exact = np.nan, False
    lam, lam_arg = lambdaF(frame)
    a0_val, a0_x, a0_u = a0_search(frame, a0_cfg)

    # each link compares values from Grams of F's columns, so squared, within
    # the Gram route's rounding allowance
    allowance = subsets.gram_allowance(frame.matrix)
    chain = (delta_val, omega_val, np.sqrt(a_lower), np.sqrt(b_upper))
    for lo, hi, names in zip(chain, chain[1:], ("Delta<=omega", "omega<=sqrtA", "sqrtA<=sqrtB")):
        if lo * lo > hi * hi + allowance:
            raise VerdictConflictError(
                f"stability chain violated ({names}): {float(lo)!r} > {float(hi)!r}"
            )

    return StabilityConstants(
        Delta=delta_val,
        omega=omega_val,
        tau=tau_val,
        lambdaF=lam,
        A=a_lower,
        B=b_upper,
        a0=a0_val,
        exact={
            "Delta": delta_exact,
            "omega": omega_exact,
            "tau": tau_exact,
            "lambdaF": frame.dim <= 2,
            "a0": frame.dim <= 2,
            "A": True,
            "B": True,
        },
        witnesses={
            "Delta_subset": s_delta,
            "omega_subset": s_omega,
            "lambdaF_argmax": lam_arg,
            "a0_x_star": a0_x,
            "a0_u_star": a0_u,
            "rho_inf": delta_val,
            "rho0": float(np.sqrt(a_lower)),
            "mu_inf": float(np.sqrt(max(a0_val, 0.0))),
            "upperU": float(np.sqrt(b_upper)),
            "upperV": lam**2,
        },
    )
