"""Squared-magnitude AWGN model: Fisher information, CRLB/MSE bounds, and a
Monte Carlo harness with a generic least-squares reconstruction oracle.

Measurements follow y_k = |<x, f_k>|^2 + nu_k with nu_k ~ N(0, sigma^2).
All randomness comes from Philox counter-based streams keyed by
(seed, trial index), so a trial's noise does not depend on the other trials.

The oracle `ls_estimate` runs the in-package solver `minimize` from a
spectral start and from seeded random starts, and keeps the lowest end
point.  `minimize` is a Newton / Gauss-Newton descent on
sum_k (<x, f_k>^2 - y_k)^2 with exact line searches: along a line the
objective is a quartic, minimized in closed form.  A start stops when the
gradient max-abs is at most LS_GTOL, when a step lowers the objective by at
most LS_TOL relative to max(f, 1), or after LS_MAX_ITERS iterations.

Both take a stack of measurement vectors, one per row, and solve every row
in lockstep: `mse_monte_carlo` makes one `ls_estimate` call for all its
trials, and that call one `minimize` call per start.  Each row is solved
in its own lane with per-lane reductions, so its result equals the 1-D
call on that row bit for bit, whatever the other rows and their number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, SingularFisherError, ValidationError
from .frame_core import Frame, _check_count, _check_vector, _philox, analysis_map_sq, sym_eig
from .injectivity import A0Config, a0 as a0_search, r_matrix
from .subsets import CHUNK_BYTES


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian noise on the squared magnitudes."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValidationError(f"sigma must be positive, got {self.sigma!r}")
        if not np.isfinite(self.sigma):
            raise ValidationError(f"sigma must be finite, got {self.sigma!r}")


@dataclass
class EstimationRun:
    trials: int
    seed: int
    x_true: np.ndarray           # canonical representative
    mse: float
    crlb_trace: float
    bias: np.ndarray
    per_trial: list = None       # (trial, residual, d(x_hat, x)) rows

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "x_true": self.x_true.tolist(),
            "mse": self.mse,
            "crlb_trace": self.crlb_trace,
            "bias": self.bias.tolist(),
        }


def canonicalize(x: np.ndarray) -> np.ndarray:
    """Representative of {x, -x} whose first nonzero coordinate is positive,
    for x of shape (n,) or for each row of a stack (T, n)."""
    x = np.asarray(x, dtype=float)
    nonzero = x != 0.0
    first = np.take_along_axis(x, np.argmax(nonzero, axis=-1)[..., None], -1)
    flip = np.any(nonzero, axis=-1, keepdims=True) & ~(first > 0.0)
    return np.where(flip, -x, x)


def simulate_measurements(
    frame: Frame,
    x: np.ndarray,
    noise: NoiseModel | None,
    seed: int,
    trial: int = 0,
) -> np.ndarray:
    """y = alpha^2(x) + nu from the (seed, trial) Philox stream; noise=None is
    the noiseless variant."""
    y = analysis_map_sq(frame, x)
    if noise is None:
        return y
    rng = _philox(seed, trial)
    return y + noise.sigma * rng.standard_normal(frame.count)


def fisher_info(frame: Frame, x: np.ndarray, sigma: float) -> np.ndarray:
    """Fisher information I(x) = (4 / sigma^2) R(x) for the squared model."""
    NoiseModel(sigma)  # the one check of sigma
    x = _check_vector(frame, x)
    if not np.any(x):
        raise ValidationError("Fisher information needs x != 0")
    return (4.0 / sigma**2) * r_matrix(frame, x)


def fisher_empirical(
    frame: Frame, x: np.ndarray, sigma: float, trials: int, seed: int
) -> np.ndarray:
    """Monte Carlo E[score score^T] with the analytic score of the squared
    model; converges to fisher_info at the usual 1/sqrt(trials) rate."""
    NoiseModel(sigma)  # the one check of sigma
    x = _check_vector(frame, x)
    _check_count("trials", trials, 1)
    coeffs = frame.matrix.T @ x                       # <x, f_k>
    rng = _philox(seed, 0)
    nu = sigma * rng.standard_normal((trials, frame.count))
    # score = (1/sigma^2) sum_k (y_k - <x,f_k>^2) * 2 <x,f_k> f_k
    scores = (2.0 / sigma**2) * (nu * coeffs) @ frame.matrix.T   # (trials, n)
    return scores.T @ scores / trials


def _crlb_matrix(frame: Frame, x: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """(I(x), I(x)^-1) for a checked x; raises SingularFisherError."""
    info = fisher_info(frame, x, sigma)
    evals, _ = sym_eig(info)
    if evals[-1] <= 1e-12 * max(evals[0], 1e-300):
        raise SingularFisherError(
            f"Fisher information singular at x={x.tolist()}: lambda_min={float(evals[-1])!r}"
        )
    return info, np.linalg.inv(info)


def crlb(
    frame: Frame, x: np.ndarray, sigma: float, a0_cfg: A0Config | None = None
) -> dict:
    """I(x) ("fisher"), the CRLB matrix (sigma^2/4) R(x)^{-1}, its trace, and
    the MSE upper bound n sigma^2 / (4 a0 ||x||^2) for efficient estimators.
    For n >= 3, a0 is the search value, an upper estimate of the true a0, so
    mse_upper may fall below the true bound: it is not certified."""
    x = _check_vector(frame, x)
    info, matrix = _crlb_matrix(frame, x, sigma)
    a0_val, _, _ = a0_search(frame, a0_cfg)
    xsq = float(np.dot(x, x))
    mse_upper = (
        np.inf
        if a0_val <= 0
        else frame.dim * sigma**2 / (4.0 * a0_val * xsq)
    )
    return {
        "fisher": info,
        "matrix": matrix,
        "trace": float(np.trace(matrix)),
        "mse_upper": float(mse_upper),
        "a0": a0_val,
        "a0_exact": frame.dim <= 2,
    }


LS_MAX_ITERS = 500   # iterations per start
LS_TOL = 1e-14       # relative objective decrease that ends a start
LS_GTOL = 1e-12      # gradient max-abs that ends a start


@dataclass
class LSConfig:
    """`restarts` counts every start of `ls_estimate`, the spectral one
    included, so it must be at least 1."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        _check_count("restarts", self.restarts, 1)


class LSResult(NamedTuple):
    """End point of `minimize`: scalars for 1-D input, per-lane arrays for a
    stack (x of shape (T, n), the others of shape (T,))."""

    x: np.ndarray
    fun: float                   # sum_k (<x, f_k>^2 - y_k)^2 at x
    iterations: int
    gauss_newton_steps: int      # iterations whose Hessian had no Cholesky factor


# The solver works on stacks of lanes, one lane per row.  Every reduction
# runs within one lane in a fixed order: a broadcast product summed over
# its last axis, or a loop over the n coordinates.  A matrix product would
# hand the stack to BLAS, whose blocking makes a lane's rounding depend on
# the lanes around it.  np.add.reduce is np.sum without its Python-level
# dispatch, which costs more than the sum itself on these small stacks.
_sum = np.add.reduce


def _coeffs(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F^T x for x of shape (..., n), as (..., m)."""
    c = x[..., 0, None] * mat[0]
    for i in range(1, len(mat)):
        c = c + x[..., i, None] * mat[i]
    return c


def _weighted_grams(outer: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F diag(w) F^T for each row of w (T, m), from outer[i, j] = f^i f^j, the
    elementwise products of the rows of F.  Symmetric bit for bit."""
    return _sum(outer * w[:, None, None, :], axis=-1)


def _row_chunks(rows: int, row_bytes: int) -> list[slice]:
    """Slices of a stack whose temporaries, row_bytes per row, stay within
    CHUNK_BYTES."""
    step = max(1, CHUNK_BYTES // row_bytes)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _cho_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a^-1 b for a stack of symmetric a (T, n, n) and b (T, n), by Cholesky
    factorization and forward and back substitution, one vectorized step per
    column.  Returns (x, ok): ok is False in the lanes where a is not
    positive definite, and x is meaningless there."""
    n = b.shape[-1]
    low = a.copy()
    ok = np.ones(len(b), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):   # in the failed lanes
        for j in range(n):
            # column j from the diagonal down, less its part in columns < j
            col = low[:, j:, j] - _sum(low[:, j:, :j] * low[:, j, None, :j], axis=-1)
            ok &= col[:, 0] > 0.0
            s = np.sqrt(np.where(ok, col[:, 0], 1.0))
            low[:, j + 1:, j] = col[:, 1:] / s[:, None]
            low[:, j, j] = s
        z = b.copy()
        for i in range(n):
            z[:, i] = (z[:, i] - _sum(low[:, i, :i] * z[:, :i], axis=-1)) / low[:, i, i]
        for i in range(n - 1, -1, -1):
            z[:, i] = (z[:, i] - _sum(low[:, i + 1:, i] * z[:, i + 1:], axis=-1)) / low[:, i, i]
    return z, ok


_THIRDS = np.arange(3) * (2.0 * np.pi / 3.0)


def _cubic_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Real roots of t^3 + a t^2 + b t + c for arrays a, b, c of one shape,
    each polished by one Newton step: shape (..., 3), padded with NaN where
    there is one root.  Both closed forms run in every lane, and np.where
    keeps the one that holds."""
    shift = a / 3.0
    p = b - a * shift
    q = (2.0 * shift * shift - b) * shift + c
    disc = 0.25 * q * q + p * p * p / 27.0
    one = disc >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):   # in the other form
        w = np.cbrt(-0.5 * q - np.copysign(np.sqrt(np.where(one, disc, 0.0)), q))
        amp = 2.0 * np.sqrt(np.where(one, 0.0, p / -3.0))
        theta = np.arccos(np.clip(3.0 * q / (p * amp), -1.0, 1.0)) / 3.0
        t = amp[..., None] * np.cos(theta[..., None] - _THIRDS)
        t[..., 0] = np.where(one, np.where(w != 0.0, w - p / (3.0 * w), 0.0), t[..., 0])
        t[..., 1:][one] = np.nan
        t -= shift[..., None]
        a, b, c = a[..., None], b[..., None], c[..., None]
        slope = (3.0 * t + 2.0 * a) * t + b
        return np.where(slope != 0.0, t - (((t + a) * t + b) * t + c) / slope, t)


def _line_min(
    mat: np.ndarray, c: np.ndarray, r: np.ndarray, dirs: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest point on the lines x + t p, p = dirs[:, j], over all real t, in
    each lane: c = F^T x and r = c^2 - y have shape (T, m), dirs (T, k, n),
    and valid (T, k) marks the lines to search.

    With d = F^T p, the objective on a line is
    phi(t) = sum_k (r_k + 2 t c_k d_k + t^2 d_k^2)^2, a quartic in t whose
    five coefficients are inner products of r, c*d and d^2; its critical
    points are the roots of a cubic.  Returns (t, j), each of shape (T,):
    the first lowest point in (line, root) order, or (0.0, 0) where no t
    lowers the objective."""
    d = _coeffs(mat, dirs)                                  # (T, k, m)
    cd = c[:, None] * d
    dd = d * d
    rr = r[:, None]
    k1 = 4.0 * _sum(rr * cd, axis=-1)
    k2 = 4.0 * _sum(cd * cd, axis=-1) + 2.0 * _sum(rr * dd, axis=-1)
    k3 = 4.0 * _sum(cd * dd, axis=-1)
    k4 = _sum(dd * dd, axis=-1)
    ok = valid & (k4 > 0.0)
    k4 = np.where(ok, k4, 1.0)
    t = _cubic_roots(0.75 * k3 / k4, 0.5 * k2 / k4, 0.25 * k1 / k4)   # (T, k, 3)
    k1, k2, k3, k4 = k1[..., None], k2[..., None], k3[..., None], k4[..., None]
    phi = t * (k1 + t * (k2 + t * (k3 + t * k4)))           # phi(t) - phi(0)
    lanes = np.arange(len(t))
    phi = np.where(ok[..., None] & (phi < 0.0), phi, np.inf).reshape(len(t), -1)
    best = np.argmin(phi, axis=1)                           # first on ties
    found = phi[lanes, best] < 0.0
    return np.where(found, t.reshape(len(t), -1)[lanes, best], 0.0), np.where(found, best // 3, 0)


def minimize(frame: Frame, y: np.ndarray, x0: np.ndarray) -> LSResult:
    """Local minimizer of sum_k (c_k^2 - y_k)^2, c = F^T x, from x0.

    y has shape (m,) or (T, m) and x0 (n,) or (T, n).  A stack runs one
    lane per row, all lanes in lockstep, each by the rules below and frozen
    once it stops; a lane's result equals the 1-D call on its row bit for
    bit.

    Along any line the objective is a quartic polynomial, so each iteration
    moves x to the exact lowest point of a line through x (`_line_min`).
    The first iteration searches the gradient line, g = 4 F (r c) with
    r = c^2 - y.  Every later one searches it and a second-order line and
    takes the lower of the two: the Newton direction H^-1 g when the exact
    Hessian H = 4 F diag(3c^2 - y) F^T has a Cholesky factorization, else
    the Gauss-Newton direction of 8 F diag(c^2) F^T if that matrix has one
    (it is singular when the f_k with c_k != 0 do not span).  A start ends
    when max |g| is at most LS_GTOL, when a step lowers the objective by at
    most LS_TOL * max(f_old, f_new, 1) or not at all, or after LS_MAX_ITERS
    iterations.
    """
    mat = frame.matrix
    n, m = mat.shape
    y = np.asarray(y, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    rows = max(len(v) if v.ndim == 2 else 1 for v in (y, x0))
    ys = np.broadcast_to(y, (rows, m))
    xs = np.broadcast_to(x0, (rows, n))
    outer = mat[:, None, :] * mat[None, :, :]
    out = (np.empty((rows, n)), np.empty(rows), np.zeros(rows, dtype=int), np.zeros(rows, dtype=int))
    # a lane's largest temporaries: the Hessian's products (n n m) and the
    # line search's (about 24 m)
    for part in _row_chunks(rows, 8 * m * (n * n + n + 24)):
        _descend(mat, outer, ys[part], xs[part], [v[part] for v in out])
    if y.ndim == 2 or x0.ndim == 2:
        return LSResult(*out)
    x, fun, iterations, gn_steps = out
    return LSResult(x[0], float(fun[0]), int(iterations[0]), int(gn_steps[0]))


def _descend(mat: np.ndarray, outer: np.ndarray, y: np.ndarray, x: np.ndarray, out: list) -> None:
    """`minimize` on one chunk of lanes.  A lane's end point, objective,
    iterations and Gauss-Newton steps go into the views `out` when it
    stops; the running state keeps only the lanes still moving."""
    out_x, out_f, out_steps, out_gn = out
    lane = np.arange(len(y))
    c = _coeffs(mat, x)
    cc = c * c
    r = cc - y
    f = _sum(r * r, axis=-1)
    steps = np.zeros(len(y), dtype=int)
    gn_steps = np.zeros(len(y), dtype=int)
    while lane.size:
        g = _sum(mat * (r * c)[:, None, :], axis=-1)        # the gradient / 4
        moving = ~(4.0 * np.maximum.reduce(np.abs(g), axis=-1) <= LS_GTOL)
        later = moving & (steps > 0)
        dirs = np.zeros((len(lane), 2, len(mat)))
        dirs[:, 0] = g
        valid = np.zeros((len(lane), 2), dtype=bool)
        valid[:, 0] = True
        if later.any():
            second, ok = _cho_solve(_weighted_grams(outer, 3.0 * cc - y), g)
            fallback = later & ~ok
            if fallback.any():
                gn_steps += fallback
                gauss, gauss_ok = _cho_solve(_weighted_grams(outer, cc), g)
                second = np.where(ok[:, None], second, gauss)
                ok |= gauss_ok
            valid[:, 1] = later & ok
            dirs[:, 1] = np.where(valid[:, 1, None], second, 0.0)
        t, j = _line_min(mat, c, r, dirs, valid)
        x_new = x + t[:, None] * dirs[np.arange(len(j)), j]
        c_new = _coeffs(mat, x_new)
        cc_new = c_new * c_new
        r_new = cc_new - y
        f_new = _sum(r_new * r_new, axis=-1)
        step = moving & (f_new < f)
        done = f - f_new <= LS_TOL * np.maximum(np.maximum(f, f_new), 1.0)
        steps += step
        go = step & ~done & (steps < LS_MAX_ITERS)
        if not go.all():
            stop = ~go
            ids = lane[stop]
            out_x[ids] = np.where(step[stop, None], x_new[stop], x[stop])
            out_f[ids] = np.where(step[stop], f_new[stop], f[stop])
            out_steps[ids], out_gn[ids] = steps[stop], gn_steps[stop]
            lane, y, steps, gn_steps = lane[go], y[go], steps[go], gn_steps[go]
            x_new, c_new, cc_new, r_new, f_new = (v[go] for v in (x_new, c_new, cc_new, r_new, f_new))
        x, c, cc, r, f = x_new, c_new, cc_new, r_new, f_new


def _spectral_init(frame: Frame, y: np.ndarray) -> np.ndarray:
    """Top eigenvector of sum_k y_k f_k f_k^T, scaled by the 1-d least squares
    fit along that direction, for each row of y (T, m); the eigenvectors
    come from one `sym_eig` stack call."""
    mat = frame.matrix
    n, m = mat.shape
    outer = mat[:, None, :] * mat[None, :, :]
    weighted = np.concatenate(
        [_weighted_grams(outer, y[part]) for part in _row_chunks(len(y), 8 * n * n * m)]
    )
    _, evecs = sym_eig(weighted)
    v = evecs[:, :, 0]
    a = _coeffs(mat, v) ** 2
    denom = np.sum(a * a, axis=-1)
    fit = np.sum(a * y, axis=-1) / np.where(denom > 0, denom, 1.0)
    scale_sq = np.where(denom > 0, np.maximum(fit, 0.0), 0.0)
    return np.sqrt(scale_sq)[:, None] * v


def _row_seed(seed: int, row: int) -> int:
    """Seed of row `row`'s random starts: `seed` itself for row 0.  The seed
    meets arithmetic here before `_philox`, so it is checked here too, and
    taken as a Python int (a narrow numpy integer would overflow)."""
    return int(_check_count("seed", seed, None)) ^ (row * 0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF)


def ls_estimate(frame: Frame, y: np.ndarray, cfg: LSConfig | None = None) -> np.ndarray:
    """Canonical least-squares fit of ||y - alpha^2(x)||^2, for one
    measurement vector y of shape (m,) or a stack (T, m); returns x of shape
    (n,) or (T, n).

    `minimize` runs once per start, on every row together: the spectral
    start, then cfg.restarts - 1 Gaussian starts of scale sqrt(mean |y|).
    Row i draws them from the stream of seed
    cfg.seed ^ (i * 0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF), which is
    cfg.seed for row 0, so a row's estimate depends on the row, its index
    and cfg alone.  Each start descends by exact line searches along the
    gradient and the Newton (or Gauss-Newton) direction, and stops when the
    gradient max-abs is at most LS_GTOL, when a step lowers the objective by
    at most LS_TOL * max(f, 1), or after LS_MAX_ITERS iterations.  In each
    row the start that ends lowest wins (the first one on ties).  An
    all-zero row gives x = 0 and takes no start."""
    cfg = cfg or LSConfig()
    y = np.asarray(y, dtype=float)
    ys = y[None] if y.ndim == 1 else y
    if ys.ndim != 2 or ys.shape[1] != frame.count:
        raise DimensionMismatchError(
            f"measurement vector of shape {y.shape} does not match m={frame.count}"
        )
    bad = np.flatnonzero(~np.all(np.isfinite(ys), axis=1))
    if bad.size:
        where = f" (row {bad[0]})" if y.ndim == 2 else ""
        raise ValidationError(f"measurements must be finite{where}")
    x_hat = np.zeros((len(ys), frame.dim))
    live = np.flatnonzero(np.any(ys, axis=1))
    if live.size:
        ys = ys[live]
        scale = np.sqrt(np.maximum(np.mean(np.abs(ys), axis=1), 1e-12))
        draws = np.array([
            _philox(_row_seed(cfg.seed, int(i)), 0x15E).standard_normal((cfg.restarts - 1, frame.dim))
            for i in live
        ])
        best_x = np.zeros((len(live), frame.dim))
        best_f = np.full(len(live), np.inf)
        for start in range(cfg.restarts):
            x0 = _spectral_init(frame, ys) if start == 0 else scale[:, None] * draws[:, start - 1]
            res = minimize(frame, ys, x0)
            lower = res.fun < best_f
            best_x = np.where(lower[:, None], res.x, best_x)
            best_f = np.where(lower, res.fun, best_f)
        x_hat[live] = canonicalize(best_x)
    return x_hat if y.ndim == 2 else x_hat[0]


def mse_monte_carlo(
    frame: Frame,
    x: np.ndarray,
    sigma: float,
    trials: int,
    seed: int,
    restarts: int = 4,
) -> EstimationRun:
    """Monte Carlo MSE of the least-squares oracle against the CRLB trace.

    Each trial draws its noise from the (seed, trial) Philox stream, and all
    trials go to one stacked `ls_estimate` call with
    LSConfig(restarts, seed): trial i's random starts come from the row
    seeds of `ls_estimate`.  The MSE uses the sign-invariant distance
    d(x_hat, x)^2.
    """
    x = _check_vector(frame, x)
    _check_count("trials", trials, 1)
    noise = NoiseModel(sigma)
    ls_cfg = LSConfig(restarts, seed)
    crlb_trace = float(np.trace(_crlb_matrix(frame, x, sigma)[1]))
    x_canon = canonicalize(x)

    y = np.array([simulate_measurements(frame, x, noise, seed, trial) for trial in range(trials)])
    estimates = ls_estimate(frame, y, ls_cfg)
    d = np.sqrt(np.minimum(
        np.sum((estimates - x) ** 2, axis=-1), np.sum((estimates + x) ** 2, axis=-1)
    ))
    residual = np.sqrt(np.sum((y - _coeffs(frame.matrix, estimates) ** 2) ** 2, axis=-1))

    return EstimationRun(
        trials=trials,
        seed=seed,
        x_true=x_canon,
        mse=float(np.mean(d * d)),
        crlb_trace=crlb_trace,
        bias=np.mean(estimates, axis=0) - x_canon,
        per_trial=list(zip(range(trials), residual.tolist(), d.tolist())),
    )
