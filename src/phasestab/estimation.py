"""Squared-magnitude AWGN model: Fisher information, CRLB/MSE bounds, and a
Monte Carlo harness with a generic least-squares reconstruction oracle.

Measurements follow y_k = |<x, f_k>|^2 + nu_k with nu_k ~ N(0, sigma^2).
All randomness comes from Philox counter-based streams keyed by
(seed, trial index), so parallel and serial execution agree bitwise.

The oracle `ls_estimate` runs the in-package solver `minimize` from a
spectral start and from seeded random starts, and keeps the lowest end
point.  `minimize` is a Newton / Gauss-Newton descent on
sum_k (<x, f_k>^2 - y_k)^2 with exact line searches: along a line the
objective is a quartic, minimized in closed form.  A start stops when the
gradient max-abs is at most LS_GTOL, when a step lowers the objective by at
most LS_TOL relative to max(f, 1), or after LS_MAX_ITERS iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, SingularFisherError, ValidationError
from .frame_core import Frame, _check_vector, analysis_map_sq, dist_d, sym_eig
from .injectivity import A0Config, a0 as a0_search, r_matrix


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
    """Representative of {x, -x} whose first nonzero coordinate is positive."""
    x = np.asarray(x, dtype=float)
    for v in x:
        if v != 0.0:
            return x.copy() if v > 0 else -x
    return x.copy()


def _stream(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(key=[seed, trial]))


def simulate_measurements(
    frame: Frame,
    x: np.ndarray,
    noise: NoiseModel | None,
    seed: int,
    trial: int = 0,
) -> np.ndarray:
    """y = alpha^2(x) + nu from the (seed, trial) Philox stream; noise=None is
    the noiseless variant."""
    x = _check_vector(frame, x)
    y = analysis_map_sq(frame, x)
    if noise is None:
        return y
    rng = _stream(seed, trial)
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
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    coeffs = frame.matrix.T @ x                       # <x, f_k>
    rng = _stream(seed, 0)
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
            f"Fisher information singular at x={x.tolist()}: lambda_min={evals[-1]!r}"
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
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")


class LSResult(NamedTuple):
    x: np.ndarray
    fun: float                   # sum_k (<x, f_k>^2 - y_k)^2 at x
    iterations: int
    gauss_newton_steps: int      # iterations whose Hessian had no Cholesky factor


def _cho_solve(a: list, b: list) -> list | None:
    """a^-1 b by Cholesky factorization and forward and back substitution,
    or None when a is not positive definite.  Works on Python floats: for
    the n <= 5 systems of the estimator that costs less than one call into
    numpy.linalg."""
    n = len(b)
    low = [row[:] for row in a]
    for j in range(n):
        lj = low[j]
        s = lj[j]
        for k in range(j):
            s -= lj[k] * lj[k]
        if not s > 0.0:
            return None
        s = math.sqrt(s)
        lj[j] = s
        for i in range(j + 1, n):
            li = low[i]
            v = li[j]
            for k in range(j):
                v -= li[k] * lj[k]
            li[j] = v / s
    z = list(b)
    for i in range(n):
        li, v = low[i], z[i]
        for k in range(i):
            v -= li[k] * z[k]
        z[i] = v / li[i]
    for i in range(n - 1, -1, -1):
        v = z[i]
        for k in range(i + 1, n):
            v -= low[k][i] * z[k]
        z[i] = v / low[i][i]
    return z


def _cubic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of t^3 + a t^2 + b t + c, each polished by one Newton step."""
    shift = a / 3.0
    p = b - a * shift
    q = (2.0 * shift * shift - b) * shift + c
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc >= 0.0:
        w = -0.5 * q - math.copysign(math.sqrt(disc), q)
        w = math.copysign(abs(w) ** (1.0 / 3.0), w)
        roots = [w - p / (3.0 * w) if w else 0.0]
    else:
        amp = 2.0 * math.sqrt(-p / 3.0)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * amp)))) / 3.0
        roots = [amp * math.cos(theta - k * (2.0 * math.pi / 3.0)) for k in range(3)]
    out = []
    for s in roots:
        t = s - shift
        slope = (3.0 * t + 2.0 * a) * t + b
        if slope:
            t -= (((t + a) * t + b) * t + c) / slope
        out.append(t)
    return out


def _line_min(
    mat: np.ndarray, c: np.ndarray, r: np.ndarray, dirs: np.ndarray
) -> tuple[float, int]:
    """Lowest point on the lines x + t p, p a row of dirs, over all real t.

    With c = F^T x, r = c^2 - y and d = F^T p, the objective on a line is
    phi(t) = sum_k (r_k + 2 t c_k d_k + t^2 d_k^2)^2, a quartic in t whose
    five coefficients are inner products of r, c*d and d^2; its critical
    points are the roots of a cubic.  Returns (t, row index), or (0.0, 0)
    when no t lowers the objective."""
    d = dirs @ mat
    k = len(d)
    rows = np.concatenate((r[None], c * d, d * d))
    gram = (rows @ rows.T).tolist()
    r_row = gram[0]
    best = (0.0, 0.0, 0)
    for j in range(k):
        a, b = 1 + j, 1 + k + j
        k1 = 4.0 * r_row[a]
        k2 = 4.0 * gram[a][a] + 2.0 * r_row[b]
        k3 = 4.0 * gram[a][b]
        k4 = gram[b][b]
        if not k4 > 0.0:
            continue
        for t in _cubic_roots(0.75 * k3 / k4, 0.5 * k2 / k4, 0.25 * k1 / k4):
            phi = t * (k1 + t * (k2 + t * (k3 + t * k4)))   # phi(t) - phi(0)
            if phi < best[1]:
                best = (t, phi, j)
    return best[0], best[2]


def minimize(frame: Frame, y: np.ndarray, x0: np.ndarray) -> LSResult:
    """Local minimizer of sum_k (c_k^2 - y_k)^2, c = F^T x, from x0.

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
    x = np.array(x0, dtype=float)
    c = x @ mat
    cc = c * c
    r = cc - y
    f = float(r @ r)
    steps = gn_steps = 0
    while steps < LS_MAX_ITERS:
        g = (mat @ (r * c)).tolist()              # the gradient / 4
        if 4.0 * max(map(abs, g)) <= LS_GTOL:
            break
        dirs = [g]
        if steps:
            second = _cho_solve(((mat * (3.0 * cc - y)) @ mat.T).tolist(), g)
            if second is None:
                gn_steps += 1
                second = _cho_solve(((mat * cc) @ mat.T).tolist(), g)
            if second is not None:
                dirs.append(second)
        dirs = np.array(dirs)
        t, j = _line_min(mat, c, r, dirs)
        x_new = x + t * dirs[j]
        c_new = x_new @ mat
        cc_new = c_new * c_new
        r_new = cc_new - y
        f_new = float(r_new @ r_new)
        if not f_new < f:
            break
        steps += 1
        done = f - f_new <= LS_TOL * max(f, f_new, 1.0)
        x, c, cc, r, f = x_new, c_new, cc_new, r_new, f_new
        if done:
            break
    return LSResult(x, f, steps, gn_steps)


def _spectral_init(frame: Frame, y: np.ndarray) -> np.ndarray:
    """Top eigenvector of sum_k y_k f_k f_k^T, scaled by the 1-d least squares
    fit along that direction."""
    weighted = (frame.matrix * y) @ frame.matrix.T
    _, evecs = sym_eig(weighted)
    v = evecs[:, 0]
    a = (frame.matrix.T @ v) ** 2
    denom = float(np.dot(a, a))
    scale_sq = max(float(np.dot(a, y)) / denom, 0.0) if denom > 0 else 0.0
    return np.sqrt(scale_sq) * v


def ls_estimate(frame: Frame, y: np.ndarray, cfg: LSConfig | None = None) -> np.ndarray:
    """Canonical least-squares fit of ||y - alpha^2(x)||^2.

    `minimize` runs once from each of cfg.restarts starts: the spectral
    start, then cfg.restarts - 1 Gaussian starts of scale sqrt(mean |y|)
    from the cfg.seed stream.  Each start descends by exact line searches
    along the gradient and the Newton (or Gauss-Newton) direction, and
    stops when the gradient max-abs is at most LS_GTOL, when a step lowers
    the objective by at most LS_TOL * max(f, 1), or after LS_MAX_ITERS
    iterations.  The start that ends lowest wins (the first one on ties)."""
    cfg = cfg or LSConfig()
    y = np.asarray(y, dtype=float)
    if y.shape != (frame.count,):
        raise DimensionMismatchError(
            f"measurement vector of shape {y.shape} does not match m={frame.count}"
        )
    if not np.all(np.isfinite(y)):
        raise ValidationError("measurements must be finite")
    if not np.any(y):
        return np.zeros(frame.dim)
    rng = _stream(cfg.seed, 0x15E)
    scale = np.sqrt(max(float(np.mean(np.abs(y))), 1e-12))
    starts = [_spectral_init(frame, y)]
    starts += [scale * rng.standard_normal(frame.dim) for _ in range(cfg.restarts - 1)]

    best_x, best_val = None, np.inf
    for x0 in starts:
        res = minimize(frame, y, x0)
        if res.fun < best_val:
            best_x, best_val = res.x, res.fun
    return canonicalize(best_x)


def mse_monte_carlo(
    frame: Frame,
    x: np.ndarray,
    sigma: float,
    trials: int,
    seed: int,
    ls_cfg: LSConfig | None = None,
) -> EstimationRun:
    """Monte Carlo MSE of the least-squares oracle against the CRLB trace.

    Each trial draws its noise from the (seed, trial) Philox stream; the MSE
    uses the sign-invariant distance d(x_hat, x)^2.
    """
    x = _check_vector(frame, x)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    noise = NoiseModel(sigma)
    ls_cfg = ls_cfg or LSConfig(restarts=4)
    crlb_trace = float(np.trace(_crlb_matrix(frame, x, sigma)[1]))
    x_canon = canonicalize(x)

    errors = np.empty(trials)
    estimates = np.empty((trials, frame.dim))
    rows = []
    for trial in range(trials):
        y = simulate_measurements(frame, x, noise, seed, trial)
        trial_seed = seed ^ (trial * 0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF)
        x_hat = ls_estimate(frame, y, replace(ls_cfg, seed=trial_seed))
        d = dist_d(x_hat, x)
        residual = float(np.linalg.norm(y - analysis_map_sq(frame, x_hat)))
        errors[trial] = d**2
        estimates[trial] = x_hat
        rows.append((trial, residual, d))

    return EstimationRun(
        trials=trials,
        seed=seed,
        x_true=x_canon,
        mse=float(np.mean(errors)),
        crlb_trace=crlb_trace,
        bias=np.mean(estimates, axis=0) - x_canon,
        per_trial=rows,
    )
