"""Independent reference computations and the output check of every op.

The references use only numpy: singular values by SVD of each column
subset, never the package's Gram-eigenvalue route.  Each check returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

EPS = np.finfo(float).eps
RANK_RTOL = 1e-10           # sigma_n <= RANK_RTOL * sigma_1: rank deficient
SUBSET_TOL = 1e-10          # agreement with the SVD enumeration
REL_TOL = 1e-9              # closed-form quantities recomputed here
CORRIDOR = (0.8, 3.0)       # MSE / CRLB at sigma = 0.01 on mb3
CHUNK = 4096                # subsets per batched SVD call


class SubsetTable:
    """sigma_n(F_S) for every column subset S of a frame, indexed by bitmask,
    from batched SVDs of the subsets with at least n columns."""

    def __init__(self, mat: np.ndarray):
        n, m = mat.shape
        self.n, self.m = n, m
        self.sigma = np.zeros(1 << m)
        self.deficient = np.ones(1 << m, dtype=bool)
        for k in range(n, m + 1):
            combos = itertools.combinations(range(m), k)
            while True:
                idx = np.array(list(itertools.islice(combos, CHUNK)), dtype=np.int64)
                if idx.size == 0:
                    break
                svals = np.linalg.svd(mat[:, idx].transpose(1, 0, 2), compute_uv=False)
                bits = (np.int64(1) << idx).sum(axis=1)
                self.sigma[bits] = svals[:, n - 1]
                self.deficient[bits] = svals[:, n - 1] <= RANK_RTOL * svals[:, 0]
        # Gram-route rounding: the package takes sigma_n as sqrt(lambda_min(F_S F_S^T));
        # lambda carries an absolute error of about m * eps * ||F||^2.
        self.dlam = m * EPS * float(np.linalg.norm(mat, 2)) ** 2
        full = (1 << m) - 1
        comp = full ^ np.arange(1 << m)
        self.full = full
        self.full_spark = not np.any(self.deficient[_size_mask(m, n)])
        self.complement = not np.any(self.deficient & self.deficient[comp])
        rank_n = _size_mask(m, n) & ~self.deficient
        self.tau = float(self.sigma[rank_n].min()) if np.any(rank_n) else math.nan
        self.omega = float(self.sigma[self.deficient[comp]].min())
        self.delta_sq = self.sigma**2 + self.sigma[comp] ** 2
        self.delta = float(np.sqrt(self.delta_sq.min()))

    def tol(self, value: float, terms: int = 1) -> float:
        """max(SUBSET_TOL, the Gram-route rounding bound on a square root of a
        sum of `terms` smallest eigenvalues that equals value**2)."""
        dlam = terms * self.dlam
        bound = math.sqrt(dlam) if value <= 0 else min(math.sqrt(dlam), dlam / value)
        return max(SUBSET_TOL, bound)


def _size_mask(m: int, k: int) -> np.ndarray:
    bits = np.arange(1 << m)
    counts = np.zeros(1 << m, dtype=np.int64)
    for i in range(m):
        counts += (bits >> i) & 1
    return counts == k


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def _rel_close(a, b, rel: float = REL_TOL, floor: float = 1e-12) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = max(float(np.max(np.abs(b))), floor)
    return bool(np.all(np.abs(a - b) <= rel * scale))


def r_matrix(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    return sum(float(mat[:, j] @ x) ** 2 * np.outer(mat[:, j], mat[:, j]) for j in range(mat.shape[1]))


def magnitudes(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.abs(mat.T @ x)


def sign_distance(x: np.ndarray, y: np.ndarray) -> float:
    return min(float(np.linalg.norm(x - y)), float(np.linalg.norm(x + y)))


# -- CLI commands --------------------------------------------------------


def check_certify(out: str, mat: np.ndarray, table: SubsetTable) -> str | None:
    doc = json.loads(out)
    n, m = mat.shape
    if doc["retrievable"] != table.complement:
        return f"retrievable={doc['retrievable']} but SVD complement check says {table.complement}"
    if m == 2 * n - 1 and doc["retrievable"] != table.full_spark:
        return f"retrievable={doc['retrievable']} but SVD full-spark check says {table.full_spark}"
    bits = doc["witness_bits"]
    if doc["retrievable"] and bits is not None:
        return "retrievable frame reported a witness"
    if not doc["retrievable"] and bits is not None and doc["method"] == "complement":
        if not (table.deficient[bits] and table.deficient[table.full ^ bits]):
            return f"witness {bits} is not a violating partition"
    return None


def check_constants(out: str, mat: np.ndarray) -> str | None:
    doc = json.loads(out)
    svals = np.linalg.svd(mat, compute_uv=False)
    n = mat.shape[0]
    a_ref = float(svals[n - 1]) ** 2 if len(svals) >= n else 0.0
    b_ref = float(svals[0]) ** 2
    if not (_rel_close(doc["A"], a_ref, floor=b_ref) and _rel_close(doc["B"], b_ref)):
        return f"frame bounds ({doc['A']}, {doc['B']}) != SVD ({a_ref}, {b_ref})"
    chain = (doc["Delta"], doc["omega"], math.sqrt(doc["A"]), math.sqrt(doc["B"]))
    tol = 1e-9 * max(1.0, doc["B"])
    for lo, hi in zip(chain, chain[1:]):
        if lo > hi + tol:
            return f"chain Delta <= omega <= sqrtA <= sqrtB broken: {chain}"
    return None


def check_stability(out: str, mat: np.ndarray, x: np.ndarray, eps: float) -> str | None:
    doc = json.loads(out)
    q = doc["Q_estimate"]
    upper = doc["brackets"]["upper"]
    if not q <= upper * (1 + REL_TOL):
        return f"Q_estimate {q} above the upper bracket {upper}"
    y = np.array(doc["witness"]["y"])
    gap = float(np.linalg.norm(magnitudes(mat, x) - magnitudes(mat, y)))
    if gap > eps * (1 + REL_TOL):
        return f"witness infeasible: ||alpha(x) - alpha(y)|| = {gap} > eps = {eps}"
    if not _close(q * eps, sign_distance(x, y), REL_TOL * max(1.0, q * eps)):
        return f"Q_estimate * eps = {q * eps} != d(x, y) = {sign_distance(x, y)}"
    return None


def check_crlb(out: str, mat: np.ndarray, x: np.ndarray, sigma: float) -> str | None:
    doc = json.loads(out)
    fisher = 4.0 / sigma**2 * r_matrix(mat, x)
    if not _rel_close(doc["fisher"], fisher):
        return "Fisher matrix != (4 / sigma^2) R(x)"
    trace = float(np.trace(np.linalg.inv(fisher)))
    if not _rel_close(doc["crlb_trace"], trace, rel=1e-6):
        return f"crlb_trace {doc['crlb_trace']} != trace(I^-1) {trace}"
    return None


def parse_simulate(out: str) -> tuple[dict, np.ndarray]:
    head, _, csv = out.partition("trial,residual,d\n")
    rows = [line.split(",") for line in csv.splitlines() if line]
    return json.loads(head), np.array(rows, dtype=float).reshape(-1, 3)


def check_simulate(out: str, mat: np.ndarray, x: np.ndarray, sigma: float, trials: int) -> str | None:
    doc, rows = parse_simulate(out)
    if doc["trials"] != trials or rows.shape[0] != trials:
        return f"{rows.shape[0]} trial rows for {trials} trials"
    if not np.all(np.isfinite(rows)) or np.any(rows[:, 1:] < 0):
        return "non-finite or negative residual / distance in the per-trial rows"
    if not _rel_close(doc["mse"], float(np.mean(rows[:, 2] ** 2))):
        return f"mse {doc['mse']} != mean of per-trial d^2"
    crlb = sigma**2 / 4.0 * float(np.trace(np.linalg.inv(r_matrix(mat, x))))
    if not _rel_close(doc["crlb_trace"], crlb, rel=1e-6):
        return f"crlb_trace {doc['crlb_trace']} != sigma^2/4 tr(R(x)^-1) = {crlb}"
    return None


def corridor_ratio(outs: list[str]) -> float:
    """Pooled MSE / CRLB over simulate outputs that share frame, x and sigma."""
    docs = [parse_simulate(out)[0] for out in outs]
    trials = sum(d["trials"] for d in docs)
    mse = sum(d["mse"] * d["trials"] for d in docs) / trials
    return mse / docs[0]["crlb_trace"]


def check_random_study(out: str, n_list: list[int], trials: int) -> str | None:
    csv, _, tail = out.partition("\n{")
    doc = json.loads("{" + tail)
    rows = [line.split(",") for line in csv.splitlines()[1:] if line]
    if len(rows) != len(n_list) * trials:
        return f"{len(rows)} rows for {len(n_list)} dimensions x {trials} trials"
    for n in n_list:
        values = [float(r[4]) for r in rows if int(r[0]) == n]
        if not all(v > 0 and math.isfinite(v) for v in values):
            return f"non-positive omega at n={n}"
        if not _close(doc["summary"]["median_omega"][str(n)], float(np.median(values)), 1e-15):
            return f"median_omega at n={n} != median of its rows"
    return None


# -- direct kernel calls -------------------------------------------------


def check_kernel(kind: str, result, table: SubsetTable) -> str | None:
    if kind == "full_spark":
        verdict, witness = result
        if verdict != table.full_spark:
            return f"full_spark {verdict} != SVD enumeration {table.full_spark}"
        if witness is not None and not table.deficient[witness.bits]:
            return f"full_spark witness {witness.bits} is not rank deficient"
        return None
    if kind == "complement_property":
        verdict, witness = result
        if verdict != table.complement:
            return f"complement_property {verdict} != SVD enumeration {table.complement}"
        if witness is not None and not (
            table.deficient[witness.bits] and table.deficient[table.full ^ witness.bits]
        ):
            return f"complement witness {witness.bits} is not a violating partition"
        return None
    if kind == "tau":
        if not _close(result, table.tau, table.tol(table.tau)):
            return f"tau {result!r} != SVD enumeration {table.tau!r}"
        return None
    if kind == "omega":
        value, mask, exact = result
        tol = table.tol(table.omega)
        if not exact or not _close(value, table.omega, tol):
            return f"omega {value!r} (exact={exact}) != SVD enumeration {table.omega!r}"
        if not (table.deficient[table.full ^ mask.bits] and _close(table.sigma[mask.bits], value, tol)):
            return f"omega witness {mask.bits} does not attain omega with a deficient complement"
        return None
    if kind == "delta":
        value, mask, exact = result
        ref = table.delta
        tol = table.tol(ref, terms=2)
        if not exact or not _close(value, ref, tol):
            return f"Delta {value!r} (exact={exact}) != SVD enumeration {ref!r}"
        if not _close(math.sqrt(table.delta_sq[mask.bits]), ref, tol):
            return f"Delta witness {mask.bits} does not attain the minimum"
        return None
    return f"no check for kernel {kind!r}"


def subset_precision(kind: str, result, table: SubsetTable) -> float | None:
    """|value - SVD reference| for the subset constants, to report how far
    the package's values sit from the enumeration."""
    if kind == "tau":
        return abs(result - table.tau)
    if kind == "omega":
        return abs(result[0] - table.omega)
    if kind == "delta":
        return abs(result[0] - table.delta)
    return None
