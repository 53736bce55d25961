"""Frames, the magnitude analysis maps and the two metrics on R^n/±.

A frame is stored as its n x m matrix F = [f_1, ..., f_m] with the frame
vectors as columns.  Everything in this module is a pure function of its
inputs; Frame and SubsetMask are immutable after construction.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    ValidationError,
)

# The rank floor, relative to the frame's own sigma_1: singular values of F
# above RANK_RTOL * sigma_1(F) count toward its rank, and a column subset F_S
# spans R^n when sigma_n(F_S) exceeds that same floor (`subsets`).  A floor
# set by the whole frame keeps the rule monotone: a set that spans keeps
# spanning as columns join it.
RANK_RTOL = 1e-10

# Eigenvalues of PSD Gram matrices in [-EIG_CLAMP_RTOL * ||M||, 0) are
# reported as 0: Gram matrices are PSD by construction, negatives are roundoff.
EIG_CLAMP_RTOL = 1e-12


@dataclass(frozen=True)
class Frame:
    """A spanning set of m column vectors in R^n, kept as an n x m matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise ValidationError(f"frame matrix must be 2-d, got shape {mat.shape}")
        n, m = mat.shape
        if n < 1 or m < 1:
            raise ValidationError(f"frame matrix must be nonempty, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("frame matrix contains non-finite entries")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.matrix[:, j]

    def columns_for(self, mask: "SubsetMask") -> np.ndarray:
        """The n x |S| submatrix F_S."""
        return self.matrix[:, mask.indices()]

    def max_column_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.matrix, axis=0)))

    def rank(self) -> int:
        if "_rank" not in self.__dict__:  # the matrix is read-only: one rank serves
            object.__setattr__(self, "_rank", matrix_rank(self.matrix))
        return self._rank


@dataclass(frozen=True)
class SubsetMask:
    """A subset S of the column indices {0, ..., m-1}, stored as a bitmask."""

    bits: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("subset mask needs m >= 1")
        if self.bits < 0 or self.bits >= (1 << self.m):
            raise ValidationError(f"bitmask {self.bits} out of range for m={self.m}")

    @classmethod
    def from_indices(cls, indices, m: int) -> "SubsetMask":
        bits = 0
        for i in indices:
            if not 0 <= i < m:
                raise ValidationError(f"index {i} out of range for m={m}")
            bits |= 1 << i
        return cls(bits, m)

    @classmethod
    def full(cls, m: int) -> "SubsetMask":
        return cls((1 << m) - 1, m)

    @classmethod
    def empty(cls, m: int) -> "SubsetMask":
        return cls(0, m)

    def complement(self) -> "SubsetMask":
        return SubsetMask(((1 << self.m) - 1) ^ self.bits, self.m)

    def indices(self) -> list[int]:
        return [i for i in range(self.m) if self.bits >> i & 1]

    def size(self) -> int:
        return bin(self.bits).count("1")

    def contains(self, i: int) -> bool:
        return bool(self.bits >> i & 1)


def _check_count(name: str, value, least: int | None = 0):
    """value, when it is a Python or numpy integer (not a bool) of at least
    `least` (any integer when least is None); ValidationError otherwise.
    The one rule for counts, budgets and seeds."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return value


def _philox(seed: int, tag: int) -> np.random.Generator:
    """The Philox stream keyed by the words (seed, tag), each taken modulo
    2^64 as a Python int (a numpy integer cannot hold 2^64, so it is
    converted first).  For int64 seeds and tags this is the stream of
    Philox(key=[seed, tag]); that list key turns into float64 from 2^63 up,
    which merges distinct seeds, and overflows outside [-2^63, 2^64).  The
    seed must be an integer: every seed of the package passes here."""
    _check_count("seed", seed, None)
    key = np.array([int(seed) % 2**64, int(tag) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sym_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix or of a stack (k, n, n).

    Returns eigenvalues sorted non-increasing and the matching orthonormal
    eigenvectors as columns: (n,) and (n, n), or (k, n) and (k, n, n) for a
    stack.  Rejects non-symmetric input, each matrix of a stack against its
    own scale; wraps LAPACK non-convergence in ConvergenceError.  A matrix
    goes through as a stack of one.  A stack goes through one batched
    `eigh` (LAPACK runs on each matrix in turn); rows with strictly
    ascending eigenvalues are reversed, and only rows with ties or NaN are
    argsorted, each alone, so slice i equals sym_eig(mat[i]) bit for bit;
    the a0 search makes one such call per lockstep step.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim not in (2, 3) or mat.shape[-2] != mat.shape[-1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    stack = mat[None] if mat.ndim == 2 else mat
    scale = np.max(np.abs(stack), axis=(-2, -1))
    scale = np.where(scale == 0.0, 1.0, scale)
    asym = np.max(np.abs(stack - np.swapaxes(stack, -2, -1)), axis=(-2, -1))
    bad = np.flatnonzero(asym > 1e-12 * scale)
    if bad.size:
        i = bad[0]
        which = "matrix" if mat.ndim == 2 else f"matrix {i} of the stack"
        raise ValidationError(
            f"{which} is not symmetric: max |M - M^T| = {asym[i]:.3e} "
            f"vs scale {scale[i]:.3e}"
        )
    try:
        evals, evecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc
    # eigh's strictly ascending rows reverse to what argsort gives; only
    # rows with ties or NaN need it
    sort = np.flatnonzero(~np.all(evals[:, 1:] > evals[:, :-1], axis=1))
    out_vals, out_vecs = evals[:, ::-1], evecs[:, :, ::-1]
    if sort.size:
        order = np.argsort(evals[sort], axis=-1)[:, ::-1]
        out_vals, out_vecs = out_vals.copy(), out_vecs.copy()
        out_vals[sort] = np.take_along_axis(evals[sort], order, -1)
        out_vecs[sort] = np.take_along_axis(evecs[sort], order[:, None, :], -1)
    if mat.ndim == 2:
        # laid out as `eigh` lays out a matrix's: contiguous values and
        # columns, so callers' sums and products round as they always have
        return np.ascontiguousarray(out_vals[0]), np.asfortranarray(out_vecs[0])
    return out_vals, out_vecs


def gram(frame: Frame, mask: SubsetMask | None = None) -> np.ndarray:
    """F_S F_S^T (the full FF^T when mask is None)."""
    sub = frame.matrix if mask is None else frame.columns_for(mask)
    return sub @ sub.T


def frame_bounds(frame: Frame) -> tuple[float, float]:
    """Optimal frame bounds (A, B): the extreme eigenvalues of FF^T.

    A = 0 signals a non-frame (the columns do not span); that is reported,
    not raised.
    """
    evals, _ = sym_eig(gram(frame))
    scale = float(evals[0]) if evals[0] > 0 else 1.0
    a = float(evals[-1])
    if -EIG_CLAMP_RTOL * scale <= a < 0.0:
        a = 0.0
    return a, float(evals[0])


def _check_vector(frame: Frame, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (frame.dim,):
        raise DimensionMismatchError(
            f"vector of shape {x.shape} does not match frame dimension {frame.dim}"
        )
    if not np.isfinite(x).all():
        raise ValidationError(f"vector has non-finite entries: {x.tolist()}")
    return x


def analysis_map(frame: Frame, x: np.ndarray) -> np.ndarray:
    """Magnitude analysis map: entry j is |<x, f_j>|."""
    x = _check_vector(frame, x)
    return np.abs(frame.matrix.T @ x)


def analysis_map_sq(frame: Frame, x: np.ndarray) -> np.ndarray:
    """Squared-magnitude analysis map: entry j is |<x, f_j>|^2."""
    x = _check_vector(frame, x)
    return (frame.matrix.T @ x) ** 2


def dist_d(x: np.ndarray, y: np.ndarray) -> float:
    """Sign-invariant Euclidean distance min(||x-y||, ||x+y||)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shapes {x.shape} and {y.shape} differ")
    return float(min(np.linalg.norm(x - y), np.linalg.norm(x + y)))


def dist_d1(x: np.ndarray, y: np.ndarray) -> float:
    """Nuclear-norm distance ||xx^T - yy^T||_1.

    Computed as ||x-y|| * ||x+y|| (the rank-<=2 closed form) and cross-checked
    against the sum of absolute eigenvalues of xx^T - yy^T.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shapes {x.shape} and {y.shape} differ")
    closed = float(np.linalg.norm(x - y) * np.linalg.norm(x + y))
    evals, _ = sym_eig(np.outer(x, x) - np.outer(y, y))
    spectral = float(np.sum(np.abs(evals)))
    scale = max(closed, spectral, 1.0)
    if abs(closed - spectral) > 1e-9 * scale:
        raise ConvergenceError(
            f"nuclear-norm routes disagree: {closed!r} vs {spectral!r}"
        )
    return closed


def null_vector(mat: np.ndarray) -> np.ndarray:
    """A unit vector c with M c = 0 for a matrix with more columns than rows."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[1] <= mat.shape[0]:
        raise ValidationError(
            f"need more columns than rows for a guaranteed null vector, got {mat.shape}"
        )
    _, _, vt = np.linalg.svd(mat, full_matrices=True)
    c = vt[-1]
    return c / np.linalg.norm(c)


def matrix_rank(mat: np.ndarray) -> int:
    """Rank = number of singular values above RANK_RTOL * sigma_1."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 0
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_RTOL * svals[0]))


# ---------------------------------------------------------------------------
# Frame ingestion: CSV (n rows x m columns) and JSON {"dim", "count", "columns"}.
# ---------------------------------------------------------------------------

def frame_from_json_dict(doc: dict) -> Frame:
    """The frame of a {"dim": n, "count": m, "columns": [m lists of n
    numbers]} document; ValidationError for any other shape or entry."""
    try:
        n, m = int(doc["dim"]), int(doc["count"])
        cols = np.array(doc["columns"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad frame JSON: {exc}") from exc
    if cols.shape != (m, n):
        raise ValidationError(
            f"frame JSON declares dim={n}, count={m} but its columns have shape {cols.shape}"
        )
    return Frame(cols.T)


def frame_to_json_dict(frame: Frame) -> dict:
    return {
        "dim": frame.dim,
        "count": frame.count,
        "columns": [frame.matrix[:, j].tolist() for j in range(frame.count)],
    }


def load_frame(path) -> Frame:
    """Load a frame from a UTF-8 .json or .csv file (decided by extension)."""
    path = os.fspath(path)
    if not path.endswith((".json", ".csv")):
        raise ValidationError(f"{path}: unsupported frame file extension (want .json or .csv)")
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 ({exc})") from exc
    if path.endswith(".json"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
        return frame_from_json_dict(doc)
    rows = []
    for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not row:
            continue
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: non-numeric entry ({exc})") from exc
    if not rows:
        raise ValidationError(f"{path}: empty CSV")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError(f"{path}: ragged CSV rows, widths {sorted(widths)}")
    return Frame(np.array(rows))


def dump_frame_csv(frame: Frame) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i in range(frame.dim):
        writer.writerow([f"{v:.17g}" for v in frame.matrix[i]])
    return buf.getvalue()


def mercedes_benz_frame() -> Frame:
    """Three unit vectors in R^2 at angles 90, 210, 330 degrees (tight, A=B=3/2)."""
    angles = np.deg2rad([90.0, 210.0, 330.0])
    return Frame(np.vstack([np.cos(angles), np.sin(angles)]))


def standard_basis_frame(n: int) -> Frame:
    return Frame(np.eye(n))
