"""Slow, independent reference implementations used to freeze expected values.

Everything here deliberately avoids the library's own code paths: eigenvalues
come from SVD or closed forms, subset constants from exhaustive enumeration,
and optima from dense grids. These are oracles, not production code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def eig_2x2(mat):
    """Closed-form eigenvalues of a symmetric 2x2 matrix, descending."""
    a, b, c = mat[0, 0], mat[0, 1], mat[1, 1]
    tr = a + c
    disc = math.sqrt((a - c) ** 2 + 4.0 * b * b)
    return ((tr + disc) / 2.0, (tr - disc) / 2.0)


def frame_bounds_svd(F):
    """(A, B) from singular values of F, no eigensolver involved."""
    s = np.linalg.svd(F, compute_uv=False)
    n = F.shape[0]
    smin = s[n - 1] if len(s) >= n else 0.0
    return float(smin) ** 2, float(s[0]) ** 2


def r_matrix_naive(F, x):
    n, m = F.shape
    R = np.zeros((n, n))
    for j in range(m):
        f = F[:, j]
        R += (f @ x) ** 2 * np.outer(f, f)
    return R


def a0_grid_2d(F, points=200001):
    """Dense-grid a0 for n=2 via the closed-form 2x2 eigenvalue."""
    thetas = np.linspace(0.0, math.pi, points)
    best = math.inf
    for t in thetas:
        x = np.array([math.cos(t), math.sin(t)])
        lam = eig_2x2(r_matrix_naive(F, x))[1]
        best = min(best, lam)
    return best


def lambda_grid_2d(F, points=200001):
    """Dense-grid max_x lambda_max(R(x))^(1/4) for n=2."""
    thetas = np.linspace(0.0, math.pi, points)
    best = 0.0
    for t in thetas:
        x = np.array([math.cos(t), math.sin(t)])
        best = max(best, eig_2x2(r_matrix_naive(F, x))[0])
    return best ** 0.25


def subset_sigma_n(F, idx):
    """n-th largest singular value of the chosen columns, via SVD only."""
    n = F.shape[0]
    if len(idx) == 0:
        return 0.0
    s = np.linalg.svd(F[:, list(idx)], compute_uv=False)
    return float(s[n - 1]) if len(s) >= n else 0.0


def spans_svd(F, idx, rtol=1e-10):
    """Whether the chosen columns span R^n: sigma_n(F_S) > rtol * sigma_1(F)
    by SVD, the rank rule of the library, with its floor set by the whole
    frame (the empty set never spans)."""
    n = F.shape[0]
    if len(idx) < n:
        return False
    s = np.linalg.svd(F[:, list(idx)], compute_uv=False)
    return bool(s[n - 1] > rtol * np.linalg.svd(F, compute_uv=False)[0])


def gram_tol(F, value, terms=1):
    """1e-10, or where larger the rounding bound of sigma taken as the root
    of a sum of `terms` Gram eigenvalues: m * eps * ||F||^2 per eigenvalue."""
    dlam = terms * F.shape[1] * np.finfo(float).eps * np.linalg.norm(F, 2) ** 2
    bound = math.sqrt(dlam) if value <= 0 else min(math.sqrt(dlam), dlam / value)
    return max(1e-10, bound)


def omega_hyperplanes_svd(F, rtol=1e-10):
    """omega of spanning columns over the hyperplanes: for each (n-1)-subset
    T with some T + j spanning, sigma_n of the columns off span F_T (those j
    with T + j spanning), all by SVD."""
    n, m = F.shape
    best = math.inf
    for T in itertools.combinations(range(m), n - 1):
        off = [j for j in range(m) if j not in T and spans_svd(F, T + (j,), rtol)]
        if off:
            best = min(best, subset_sigma_n(F, off))
    return best


def delta_bruteforce(F):
    """min over all subsets of sqrt(sigma_n(F_S)^2 + sigma_n(F_Sc)^2)."""
    n, m = F.shape
    cols = range(m)
    best = math.inf
    for r in range(m + 1):
        for S in itertools.combinations(cols, r):
            Sc = tuple(j for j in cols if j not in S)
            val = math.sqrt(subset_sigma_n(F, S) ** 2 + subset_sigma_n(F, Sc) ** 2)
            best = min(best, val)
    return best


def omega_bruteforce(F):
    """min sigma_n(F_S) over subsets whose complement is rank deficient."""
    n, m = F.shape
    cols = range(m)
    best = math.inf
    for r in range(m + 1):
        for S in itertools.combinations(cols, r):
            Sc = tuple(j for j in cols if j not in S)
            if subset_sigma_n(F, Sc) > 1e-10:
                continue
            best = min(best, subset_sigma_n(F, S))
    return best


def tau_bruteforce(F):
    """min sigma_n over all subsets of full rank n (monotone, so all sizes)."""
    n, m = F.shape
    cols = range(m)
    best = math.inf
    for r in range(n, m + 1):
        for S in itertools.combinations(cols, r):
            s = subset_sigma_n(F, S)
            if s > 1e-10:
                best = min(best, s)
    return best


def line_max_grid(F, x, u, eps, points=100_001):
    """Dense-grid max of d(x, x + t u) over t >= 0 with
    ||alpha(x) - alpha(x + t u)|| <= eps, for a unit u and spanning columns.

    Feasible steps satisfy t ||F^T u|| - 2 ||F^T x|| <= eps, so the grid
    covers [0, (eps + 2 ||F^T x||) / ||F^T u||] with `points` linear and
    `points` geometric steps, the latter down to 1e-16 of that range.  A step
    counts as feasible only when its gap is below eps by more than a bound
    on the rounding of the gap, so the value never rests on rounding luck.
    """
    x, u = np.asarray(x, float), np.asarray(u, float)
    n, m = F.shape
    ax = np.abs(F.T @ x)
    top = (eps + 2.0 * np.linalg.norm(ax)) / np.linalg.norm(F.T @ u)
    ts = np.concatenate([np.linspace(0.0, top, points), np.geomspace(top * 1e-16, top, points)])
    best = 0.0
    for chunk in np.array_split(ts, max(1, ts.size // 20_000)):
        ys = x + chunk[:, None] * u
        gaps = np.linalg.norm(np.abs(ys @ F) - ax, axis=1)
        rounding = 4 * (n + m + 2) * 2.0**-53 * (
            np.linalg.norm((np.abs(x) + np.abs(ys)) @ np.abs(F), axis=1) + eps
        )
        d = np.minimum(np.linalg.norm(ys - x, axis=1), np.linalg.norm(ys + x, axis=1))
        feasible = gaps <= eps - rounding
        if feasible.any():
            best = max(best, float(d[feasible].max()))
    return best


def dist_d1_nuclear(x, y):
    """Nuclear norm of xx^T - yy^T computed from its SVD."""
    M = np.outer(x, x) - np.outer(y, y)
    return float(np.sum(np.linalg.svd(M, compute_uv=False)))


def dist_d_naive(x, y):
    return min(float(np.linalg.norm(x - y)), float(np.linalg.norm(x + y)))


def full_spark_bruteforce(F):
    n, m = F.shape
    for S in itertools.combinations(range(m), n):
        if abs(np.linalg.det(F[:, list(S)])) < 1e-12:
            return False
    return True


def _rank(M):
    return 0 if M.shape[1] == 0 else int(np.linalg.matrix_rank(M))


def complement_property_bruteforce(F):
    """Every partition (S, Sc) has at least one side spanning R^n."""
    n, m = F.shape
    for bits in range(1 << (m - 1)):
        S = [j for j in range(m) if bits >> j & 1]
        Sc = [j for j in range(m) if not bits >> j & 1]
        if _rank(F[:, S]) < n and _rank(F[:, Sc]) < n:
            return False
    return True


def lbfgs_least_squares(F, y, starts):
    """The estimator's former per-start solver: scipy's L-BFGS-B on
    sum_k (<x, f_k>^2 - y_k)^2 from each start, with the options it ran
    with (500 iterations, ftol 1e-14, gtol 1e-12).  Returns the (x, value)
    of the first start that ends lowest."""
    from scipy.optimize import minimize

    def fun(x):
        c = F.T @ x
        r = c**2 - y
        return float(r @ r), 4.0 * F @ (r * c)

    best_x, best_val = None, math.inf
    for x0 in starts:
        res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12})
        if res.fun < best_val:
            best_x, best_val = res.x, float(res.fun)
    return best_x, best_val


def hill_climb_sequential(frame, x, eps, best_d, best_y, rng):
    """`robustness._hill_climb` as one `_line_maxima` call per round, in
    order: round r draws its normal z_r from rng, tries the unit direction
    along u + step z_r, keeps it where its line maximum rises above best_d,
    else shrinks step by 0.9.  Returns (best_d, best_y)."""
    from phasestab.robustness import QEPS_REFINE_ROUNDS, _line_maxima

    u = (best_y - x) / np.linalg.norm(best_y - x)
    step = 0.5
    for _ in range(QEPS_REFINE_ROUNDS):
        cand = u + step * rng.standard_normal(frame.dim)
        cand /= np.linalg.norm(cand)
        (d,), (t,) = _line_maxima(frame, x, cand[None], eps)
        if d > best_d:
            best_d, best_y, u = float(d), x + t * cand, cand
        else:
            step *= 0.9
    return best_d, best_y
