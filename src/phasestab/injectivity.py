"""Phase retrievability: complement property, full spark, R(x) and the margin a0.

The three criteria are mathematically equivalent; phase_retrievable runs them
side by side and refuses to return if they disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import subsets
from .errors import BudgetExceededError, VerdictConflictError
from .frame_core import (
    Frame,
    SubsetMask,
    _check_count,
    _check_vector,
    _philox,
    gram,
    matrix_rank,  # noqa: F401 -- unused; perfbench's tests read the name here
    sym_eig,
)

# Positivity threshold for the scale-normalized margin a0 / (sum ||f_j||^4 / m).
# Sits ~1000x above the eigensolver noise floor while classifying genuinely
# near-degenerate frames (true normalized a0 ~ 1e-11 happens in random draws)
# the same way the exact rank-based criteria do.
A0_REL_TOL = 1e-12

FULL_SPARK_BUDGET = 10_000_000    # cap on C(m, n): full spark, complement property, exact omega
A0_TOL = 1e-10                    # a0 descent stops below this gradient norm or gain
A0_MERGE_TOL = 1e-6               # a0 starts share one polish where 1 - |<x_i, x_j>| and
                                  # 1 - |<u_i, u_j>| are both below this; relative, since
                                  # x and u are unit vectors (1e-6: about 1.4e-3 rad)
SPEC_ROWS = 64                    # rows per speculative Armijo call: one call's fixed
                                  # cost is about that of solving this many rows


@dataclass
class A0Config:
    """Search configuration for the a0 minimization."""

    restarts: int = 64
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        _check_count("restarts", self.restarts)
        _check_count("max_iters", self.max_iters)


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


def _check_subset_budget(frame: Frame, what: str) -> None:
    n, m = frame.dim, frame.count
    if math.comb(m, n) > FULL_SPARK_BUDGET:
        raise BudgetExceededError(f"{what} infeasible: C({m},{n}) > {FULL_SPARK_BUDGET}")


def complement_property(frame: Frame) -> tuple[bool, SubsetMask | None]:
    """Exact check that every partition (S, S^c) leaves one side spanning R^n.

    Checks the sets H_T^c of `subsets.first_violating_partition`, polynomial
    in m, up to FULL_SPARK_BUDGET n-subsets.  The witness on failure is the
    smallest violating bitmask S below 2^(m-1) (S and S^c interchange).
    """
    m = frame.count
    _check_subset_budget(frame, "exact complement check")
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
    _check_subset_budget(frame, "full spark enumeration")
    idx = subsets.first_deficient(frame.matrix)
    if idx is None:
        return True, None
    return False, SubsetMask.from_indices(idx.tolist(), m)


def r_matrix(frame: Frame, x: np.ndarray) -> np.ndarray:
    """R(x) = sum_j |<x, f_j>|^2 f_j f_j^T, symmetric PSD, quadratic in x."""
    x = _check_vector(frame, x)
    coeffs = (frame.matrix.T @ x) ** 2
    return (frame.matrix * coeffs) @ frame.matrix.T


def _matvecs(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """a @ x for each row x of xs (k, n), by one gemv per row as a 2-d
    `a @ x` does.  Strided rows (eigenvector columns) would leave BLAS for
    numpy's own loop and change the last bits, hence the copy; `xs @ a.T`,
    `einsum` and `(a @ xs.T).T` round differently too."""
    return np.matmul(a, np.ascontiguousarray(xs)[:, :, None])[:, :, 0]


def _lambda_min_r(mat: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min(R(x)) clamped at 0 and its eigenvector for each row of xs,
    by one batched eigensolve."""
    # the stacked products round as `(mat * coeffs) @ mat.T` does, slice by slice
    stack = (mat[None] * (_matvecs(mat.T, xs) ** 2)[:, None, :]) @ mat.T
    evals, evecs = sym_eig(stack)
    lam = evals[:, -1]
    # not np.maximum: this keeps -0.0 and NaN as max(lam, 0.0) does
    return np.where(0.0 > lam, 0.0, lam), evecs[:, :, -1]


def _unit_rows(xs: np.ndarray) -> np.ndarray:
    """The nonzero rows of xs scaled to unit length, in order."""
    # np.vecdot is the per-row np.dot that np.linalg.norm takes the root of;
    # (xs * xs).sum(1), einsum and norm(axis=1) round differently
    norms = np.sqrt(np.vecdot(xs, xs))
    keep = norms != 0
    return xs[keep] / norms[keep, None]


def _retire_after_zero(vals: np.ndarray, live: np.ndarray) -> None:
    """A start at 0.0 is final, since no accepted step goes below 0, and a
    one-start-at-a-time loop would have stopped there: drop it and every
    later start from the live set.  Earlier starts keep running."""
    zero = np.flatnonzero(vals == 0.0)
    if zero.size:
        live[zero[0]:] = False


def _a0_polish(mat: np.ndarray, xs: np.ndarray, vals: np.ndarray, us: np.ndarray,
               live: np.ndarray, max_iters: int) -> None:
    """a0's projected gradient descent of lambda_min(R(x)) on the unit sphere
    from the live unit rows of xs, all in lockstep, updating xs, vals and us
    (the eigenvector at x) in place.  Each round takes the projected
    gradient of sum_j <x,f_j>^2 <u,f_j>^2 in x at every live row, then
    backtracks along it over 40 halvings of t until the Armijo test
    (constant 0.25) holds, and starts that row's next round at min(2t, 1).
    A row stops after max_iters rounds, below a gradient norm of A0_TOL, or
    when no t passes; a row at 0.0 retires itself and every later row
    (`_retire_after_zero`).

    The first t of a round is one `_lambda_min_r` call on every row.  The
    rows that fail it then try their next k halvings t 2^-j (j < k) in one
    stacked call, k = max(1, SPEC_ROWS // rows still backtracking) capped
    by the halvings left, so a stack never holds more than max(live rows,
    SPEC_ROWS) rows.  Each row takes its first passing t and discards the
    candidates after it.  Row by row this is the same arithmetic as a
    descent of one start: ldexp is the exact repeated halving, np.vecdot
    stands for np.dot and sqrt(vecdot(v, v)) for np.linalg.norm(v).  The
    discarded candidates are unit vectors like the others, since
    ||x - t rgrad|| >= 1 when rgrad is orthogonal to x."""
    ones = np.ones(mat.shape[1])
    step = np.ones(len(xs))
    for _ in range(max_iters):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        x = xs[rows]
        weights = _matvecs(mat.T, x) * _matvecs(mat.T, us[rows]) ** 2
        g = (2.0 * (mat[None] * weights[:, None, :])) @ ones
        rgrad = g - np.vecdot(g, x)[:, None] * x
        gnorm = np.sqrt(np.vecdot(rgrad, rgrad))
        flat = gnorm < A0_TOL
        live[rows[flat]] = False
        rows, x, rgrad, gnorm = rows[~flat], x[~flat], rgrad[~flat], gnorm[~flat]
        t = step[rows]
        todo = np.arange(rows.size)  # rows still backtracking
        tried = 0
        while todo.size and tried < 40:
            k = 1 if tried == 0 else min(40 - tried, max(1, SPEC_ROWS // todo.size))
            ts = np.ldexp(t[todo], -np.arange(k)[:, None])  # (k, rows): halving j of each row
            cand = (x[todo] - ts[:, :, None] * rgrad[todo]).reshape(-1, x.shape[1])
            cand /= np.sqrt(np.vecdot(cand, cand))[:, None]
            cand_vals, cand_us = _lambda_min_r(mat, cand)
            ok = cand_vals.reshape(k, -1) < vals[rows[todo]] - 0.25 * ts * gnorm[todo] ** 2
            hit = ok.any(axis=0)
            first = ok.argmax(axis=0)[hit]
            pick = first * todo.size + np.flatnonzero(hit)
            won = rows[todo[hit]]
            xs[won], vals[won], us[won] = cand[pick], cand_vals[pick], cand_us[pick]
            step[won] = np.minimum(ts[first, hit] * 2.0, 1.0)
            todo = todo[~hit]
            t[todo] = np.ldexp(t[todo], -k)
            tried += k
        live[rows[todo]] = False  # no t passed
        _retire_after_zero(vals, live)


def _a0_2d(frame: Frame) -> tuple[float, np.ndarray, np.ndarray]:
    """a0 for n = 2 in closed form.  With x = (cos a, sin a), u = (cos b, sin b),
    f_k = r_k (cos t_k, sin t_k) and w_k = r_k^4 / 4, sum_k <x,f_k>^2 <u,f_k>^2
    is sum_k w_k (cos p + c_k)^2, p = a - b, c_k = cos(q - 2 t_k), q = a + b.
    The best cos p is minus the w-mean of the c_k, which leaves W Var_w(c) =
    (S + Re(D e^(-2iq))) / 2, least at (S - |D|) / 2: d_k = e^(2i t_k) minus
    its w-mean, S = sum_k w_k |d_k|^2, D = sum_k w_k d_k^2.  The value and u
    come from the eigensolve at x*, which must agree within A0_REL_TOL * a0_scale."""
    mat = frame.matrix
    z = mat[0] + 1j * mat[1]
    z = z[z != 0]
    w = 0.25 * np.abs(z) ** 4
    total = float(np.sum(w))
    closed, x_star = 0.0, np.array([1.0, 0.0])
    if total > 0:  # else every column is 0 (or underflows)
        d = (z / np.abs(z)) ** 2
        mean = np.sum(w * d) / total
        d -= mean
        big_d = np.sum(w * d * d)
        closed = 0.5 * float(np.sum(w * np.abs(d) ** 2) - np.abs(big_d))
        q = 0.5 * (np.angle(big_d) + np.pi)
        cos_p = -(mean * np.exp(-1j * q)).real
        alpha = 0.5 * (q + np.arccos(np.clip(cos_p, -1.0, 1.0)))
        x_star = np.array([np.cos(alpha), np.sin(alpha)])
    val, u_star = _lambda_min_r(mat, x_star[None])
    if abs(closed - val[0]) > A0_REL_TOL * a0_scale(frame):
        raise VerdictConflictError(
            f"a0 routes disagree: closed form {closed!r} vs lambda_min(R(x*)) {float(val[0])!r}"
        )
    return float(val[0]), x_star, u_star[0].copy()


def _merge_basins(xs: np.ndarray, us: np.ndarray, live: np.ndarray, kept: list) -> None:
    """Retire from the polish each live start whose (x, u) lies within
    A0_MERGE_TOL of a kept point, up to the sign of each, in start order:
    a live start that no kept point claims is kept itself (appended to
    kept) and stays live.  Each start meets only the kept points, so the
    work is O(starts x kept)."""
    rows = np.flatnonzero(live)
    k = 0
    while rows.size:
        if k == len(kept):
            kept.append((xs[rows[0]].copy(), us[rows[0]].copy()))
            rows = rows[1:]
        x, u = kept[k]
        near = ((1.0 - np.abs(np.vecdot(xs[rows], x)) < A0_MERGE_TOL)
                & (1.0 - np.abs(np.vecdot(us[rows], u)) < A0_MERGE_TOL))
        live[rows[near]] = False
        rows = rows[~near]
        k += 1


def _a0_lockstep(mat: np.ndarray, xs: np.ndarray, max_iters: int, kept: list):
    """(values, x, u) of a0's descent from each unit row of xs, in lockstep:
    alternating eigen minimization, then a projected gradient polish on the
    sphere of the starts that `_merge_basins` keeps; kept carries the
    polished starts' post-alternation (x, u) across calls.  A merged start
    keeps its alternation value, lambda_min(R(x)) at its own x.  A start
    that reaches 0.0 retires the later ones, whose rows are left
    unfinished."""
    vals, us = _lambda_min_r(mat, xs)
    live = np.ones(len(xs), dtype=bool)
    _retire_after_zero(vals, live)
    # Alternating: u <- argmin_u, then x <- argmin_x of the biquadratic form
    # sum_j <x,f_j>^2 <u,f_j>^2, which is symmetric in x and u: the bottom
    # eigenvector of R(u).
    alternating = live.copy()
    for _ in range(50):
        rows = np.flatnonzero(alternating & live)
        if rows.size == 0:
            break
        x_new = _lambda_min_r(mat, us[rows])[1]
        new_vals, u_new = _lambda_min_r(mat, x_new)
        stop = new_vals > vals[rows] - A0_TOL
        alternating[rows[stop]] = False
        acc = rows[~stop]
        xs[acc], us[acc], vals[acc] = x_new[~stop], u_new[~stop], new_vals[~stop]
        _retire_after_zero(vals, live)
    _merge_basins(xs, us, live, kept)
    _a0_polish(mat, xs, vals, us, live, max_iters)
    return vals, xs, us


def a0(frame: Frame, cfg: A0Config | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """The injectivity margin a0 = min over unit x of lambda_min(R(x)).

    For n = 2 the minimum has a closed form (`_a0_2d`): the value is
    lambda_min(R(x*)) at its minimizer x*, within A0_REL_TOL * a0_scale of
    the closed form, else VerdictConflictError is raised.
    For n >= 3 a multi-start descent returns an upper bound on the true a0.
    Its starts are the axes, the kernel vectors of the (n-1)-subsets of
    columns (one is a zero of lambda_min(R(x)) whenever the complement
    property fails and the columns span R^n), the bottom eigenvector of the
    Gram matrix and cfg.restarts seeded random vectors.  Each runs
    alternating eigen minimization.  A start whose x and u then both lie
    within A0_MERGE_TOL of an earlier polished start's, up to sign, has
    reached that start's point: it is not polished and keeps its own
    alternation value, lambda_min(R(x)) at its own x.  The others take a
    projected gradient polish on the sphere.  All of it runs in
    lockstep (`_a0_lockstep`, `_merge_basins`, `_a0_polish`) and is
    bit-identical to running the starts one at a time under the same merge
    rule, stopping at the first that reaches 0.  The starts run in order in
    chunks whose stacked (n, m) arrays take about subsets.CHUNK_BYTES each;
    the kept points carry across chunks, and a start at 0 skips the later
    chunks.
    """
    cfg = cfg or A0Config()
    if frame.dim == 1:
        val = float(np.sum(frame.matrix[0] ** 4))
        one = np.ones(1)
        return val, one, one
    if frame.dim == 2:
        return _a0_2d(frame)

    mat = frame.matrix
    rng = _philox(cfg.seed, 0x61_30)
    _, gram_vecs = sym_eig(gram(frame))
    xs = _unit_rows(np.vstack([
        np.eye(frame.dim),
        # null vectors of F_S^T, where lambda_min(R(x)) can vanish
        subsets.kernel_starts(mat),
        gram_vecs[:, -1],
        rng.standard_normal((cfg.restarts, frame.dim)),
    ]))
    # The winner is the first least value, as in every search: argmin in a
    # chunk, strictly lower across chunks.  Values are at least 0, so a
    # start at 0.0 wins over the unfinished starts after it and skips later
    # chunks.
    best, kept = None, []
    rows = max(1, subsets.CHUNK_BYTES // (8 * frame.dim * frame.count))
    for lo in range(0, len(xs), rows):
        vals, x, u = _a0_lockstep(mat, xs[lo:lo + rows], cfg.max_iters, kept)
        i = int(np.argmin(vals))
        if best is None or vals[i] < best[0]:
            best = (float(vals[i]), x[i].copy(), u[i].copy())
        if best[0] == 0.0:
            return best
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
    the a0 search; where it ran and m = 2n-1, the full-spark criterion is
    cross-checked too.
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
        # Full spark is enumerated under the complement check's C(m, n)
        # cap, so it is cross-checked only where the complement check ran.
        if m == 2 * n - 1:
            spark_verdict, _ = full_spark(frame)
            if spark_verdict != complement_verdict:
                raise VerdictConflictError(
                    f"full spark says {spark_verdict} but the other criteria say {complement_verdict}"
                )

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
