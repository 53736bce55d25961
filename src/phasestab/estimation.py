"""Squared-magnitude AWGN model: Fisher information, CRLB/MSE bounds, and a
Monte Carlo harness with a generic least-squares reconstruction oracle.

Measurements follow y_k = |<x, f_k>|^2 + nu_k with nu_k ~ N(0, sigma^2).
All randomness comes from Philox counter-based streams keyed by
(seed, trial index), so parallel and serial execution agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

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
    if not sigma > 0:
        raise ValidationError("sigma must be positive")
    if not np.isfinite(sigma):
        raise ValidationError(f"sigma must be finite, got {sigma!r}")
    x = _check_vector(frame, x)
    if not np.any(x):
        raise ValidationError("Fisher information needs x != 0")
    return (4.0 / sigma**2) * r_matrix(frame, x)


def fisher_empirical(
    frame: Frame, x: np.ndarray, sigma: float, trials: int, seed: int
) -> np.ndarray:
    """Monte Carlo E[score score^T] with the analytic score of the squared
    model; converges to fisher_info at the usual 1/sqrt(trials) rate."""
    if not sigma > 0:
        raise ValidationError("sigma must be positive")
    x = _check_vector(frame, x)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    coeffs = frame.matrix.T @ x                       # <x, f_k>
    rng = _stream(seed, 0)
    nu = sigma * rng.standard_normal((trials, frame.count))
    # score = (1/sigma^2) sum_k (y_k - <x,f_k>^2) * 2 <x,f_k> f_k
    scores = (2.0 / sigma**2) * (nu * coeffs) @ frame.matrix.T   # (trials, n)
    return scores.T @ scores / trials


def crlb(
    frame: Frame, x: np.ndarray, sigma: float, a0_cfg: A0Config | None = None
) -> dict:
    """CRLB matrix (sigma^2/4) R(x)^{-1}, its trace, and the MSE upper bound
    n sigma^2 / (4 a0 ||x||^2) for efficient estimators.  For n >= 3, a0 is
    the search value, an upper estimate of the true a0, so mse_upper may
    fall below the true bound: it is not a certified upper bound."""
    x = _check_vector(frame, x)
    info = fisher_info(frame, x, sigma)
    evals, _ = sym_eig(info)
    if evals[-1] <= 1e-12 * max(evals[0], 1e-300):
        raise SingularFisherError(
            f"Fisher information singular at x={x.tolist()}: lambda_min={evals[-1]!r}"
        )
    matrix = np.linalg.inv(info)
    a0_val, _, _ = a0_search(frame, a0_cfg)
    xsq = float(np.dot(x, x))
    mse_upper = (
        np.inf
        if a0_val <= 0
        else frame.dim * sigma**2 / (4.0 * a0_val * xsq)
    )
    return {
        "matrix": matrix,
        "trace": float(np.trace(matrix)),
        "mse_upper": float(mse_upper),
        "a0": a0_val,
        "a0_exact": frame.dim <= 2,
    }


LS_MAX_ITERS = 500   # L-BFGS iterations per start
LS_TOL = 1e-14       # L-BFGS relative objective tolerance


@dataclass
class LSConfig:
    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0:
            raise ValidationError(f"restarts must be >= 0, got {self.restarts}")


def _ls_objective(frame: Frame, y: np.ndarray):
    mat = frame.matrix

    def fun(x):
        c = mat.T @ x
        r = c**2 - y
        return float(np.dot(r, r)), 4.0 * mat @ (r * c)

    return fun


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
    """Canonical least-squares fit of ||y - alpha^2(x)||^2 by multi-start
    quasi-Newton descent with spectral initialization."""
    cfg = cfg or LSConfig()
    y = np.asarray(y, dtype=float)
    if y.shape != (frame.count,):
        raise DimensionMismatchError(
            f"measurement vector of shape {y.shape} does not match m={frame.count}"
        )
    if not np.any(y):
        return np.zeros(frame.dim)
    fun = _ls_objective(frame, y)
    rng = _stream(cfg.seed, 0x15E)
    scale = np.sqrt(max(float(np.mean(np.abs(y))), 1e-12))
    starts = [_spectral_init(frame, y)]
    starts += [scale * rng.standard_normal(frame.dim) for _ in range(cfg.restarts - 1)]

    best_x, best_val = None, np.inf
    for x0 in starts:
        res = minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": LS_MAX_ITERS, "ftol": LS_TOL, "gtol": 1e-12},
        )
        if res.fun < best_val:
            best_x, best_val = res.x, float(res.fun)
    return canonicalize(best_x)


def mse_monte_carlo(
    frame: Frame,
    x: np.ndarray,
    sigma: float,
    trials: int,
    seed: int,
    ls_cfg: LSConfig | None = None,
    a0_cfg: A0Config | None = None,
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
    bound = crlb(frame, x, sigma, a0_cfg)
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
        crlb_trace=bound["trace"],
        bias=np.mean(estimates, axis=0) - x_canon,
        per_trial=rows,
    )
