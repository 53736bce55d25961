"""Batched subset-spectral engine: the one place that enumerates or factors
column subsets S of a frame F.

It serves full spark, the complement property, tau, omega and Delta (exact
and sampled), the minimal-redundancy study, a0's structured starts and the
kernel directions of Q_eps.  Subsets come in chunks of stacked index or
membership rows, with one batched LAPACK call per chunk:

- Determinant screen: for square blocks, `_det_lower` gives a bound
  L <= sigma_n(F_S) from one batched LU (Hong-Pan), lowered by an
  allowance for the rounding of the LU and of an SVD or eigvalsh.  Four
  users: the rank verdict of square blocks, tau, exact omega, and exact
  Delta, on the side Grams G, where sigma_n(G) = lambda_min(G).  It
  decides what it can; the SVD and eigvalsh run only on the rows it cannot
  decide, and every reported value comes from them.
- Rank verdict: F_S spans R^n when sigma_n(F_S) > RANK_RTOL * sigma_1(F),
  a floor set by the whole frame: `frame_core.matrix_rank` applies it to F
  itself.  Each kernel takes sigma_1(F) once (`_floor`).  The rule is
  monotone, since sigma_n(F_S) <= sigma_n(F_U) whenever S is inside U, so
  a set that spans keeps spanning as columns join it, and F spans when any
  subset does.  A square block with L > 2 * floor passes the screen: the
  SVD's rounding of sigma_n(F_S), about n * eps * ||F||, is far below the
  floor, so the SVD rule would hold too.  Every other block, and every
  block of more than n columns, is decided by a batched SVD of the
  n x |S| blocks.  Rank is never read off Gram eigenvalues: their rounding
  noise is about eps * lambda_max, far above RANK_RTOL**2 * lambda_max.
- Spectrum: tau takes sigma_n(F_S) from that same SVD, accurate to about
  eps * ||F||; once it has an incumbent, rows with L above it skip the SVD,
  since their SVD sigma_n could not be lower.  omega and Delta take
  sigma_n(F_S) = sqrt(max(lambda_min, 0)) from the stacked Grams
  F_S F_S^T, with an absolute error of about m * eps * ||F||^2 / sigma: up
  to 2.5e-10 against the SVD values on seeded 9 x 17 Gaussian frames, where
  sigma ~ 1e-6.  A set of fewer than n columns never spans, so its
  sigma_n and lambda_min are 0 exactly and take no eigensolve, in omega
  and in exact and sampled Delta alike (`_gram_lambda_min`): the lambda_min
  of its Gram is rounding noise.  One function, `gram_allowance`, states
  the Gram route's rounding, _PRUNE_ULPS * k * eps * ||F_S||_F^2 for k
  columns.  Exact omega skips a square row, once it has an incumbent best,
  when L^2 > (best^2 + gram_allowance(F_S)) * (1 + 8 eps): the Gram
  route's lambda_min is within that allowance of sigma_n^2 >= L^2, so the
  row's value would be above best and never taken.  Exact Delta,
  once it has an incumbent, keeps a side Gram's L in place of its
  lambda_min >= L where L already takes the node past the prune limit
  (past the incumbent, at a leaf), and drops the node without eigvalsh.
  One routine, `_lambda_min`, reads every lambda_min, exact or sampled,
  from one batched `eigvalsh` per stack, and raises ConvergenceError where
  eigvalsh fails or below the roundoff floor -EIG_CLAMP_RTOL * lambda_max.
- Kernel vectors (a0's starts, Q_eps's directions): the last right singular
  vector of F_S^T from its full SVD.
- Hyperplane sets: H_T is an (n-1)-subset T with every column j whose
  n-subset T + j fails the rank rule.  The rule is monotone, so a set that
  does not span lies in H_T for each (n-1)-subset T inside it (every such
  T + j lies in the set and fails with it), and a set whose complement
  does not span holds some H_T^c.  So the complement property and exact
  omega need only the sets H_T^c, never the 2^m subsets.  In exact rank H_T
  is the hyperplane span(F_T) and fails too.  Under the floor, columns that
  each fail with T can pass it together, as where column norms differ by
  orders of magnitude: then that H_T^c has a complement that
  spans, and exact omega, the least sigma_n over the H_T^c, can fall below
  omega.  The complement check tests both sides of each row, so its
  witnesses always hold.  One rank pass
  over the n-subsets (`_deficient`) serves full spark, which stops at its
  first deficient row, and the hyperplane sets, which keep its verdicts as
  one bit per n-subset at the subset's colex rank.
- Exact Delta never walks the 2^(m-1) partitions either: `delta_exact` is a
  depth-first branch-and-bound that assigns columns to S or S^c.  A side's
  lambda_min only grows as columns join it, so a node whose A[S] + A[S^c]
  so far exceeds best + gram_allowance(F) holds no minimum and is dropped.
  The allowance covers the Gram and eigvalsh rounding by which a leaf can
  fall below its node's bound; without it, near-ties at Delta ~ 0 can lose
  the first minimum.
  A side of fewer than n columns counts 0 and is never solved.

Enumeration orders and tie-breaks (the witnesses depend on them):

- k-subsets come in `itertools.combinations(range(m), k)` order
  (lexicographic); `first_deficient` returns the first deficient n-subset.
- The H_T^c come in combinations order of T; `first_violating_partition`
  returns the smallest violating bitmask below 2^(m-1).
- Every search keeps the first least value it computes, in its own
  enumeration order, with no slack: `np.argmin` within a chunk, a strict
  `<` across chunks, and in sampled Delta's descent a flip only when it
  scores strictly lower.  So omega, sampled Delta, tau and a0 each report
  the least value among those they computed.
- Exact Delta reports the least bitmask S < 2^(m-1) among the partitions
  of least value, the first minimum in bitmask order: only nodes strictly
  above the incumbent are dropped, so every tie is reached.  Columns are
  assigned from m-1 (always in S^c) down to 0, and each side's Gram adds
  the outer products f_j f_j^T in that order, starting from zero, so every
  leaf has the value of a one-partition-at-a-time loop that sums its Grams
  in that order and counts sides of fewer than n columns 0, bit for bit.

Memory: chunks are sized so that their index arrays, stacked blocks and
Grams take about CHUNK_BYTES whatever m is, and each chunk is stacked once,
for the screen and for the rows it leaves; first-hit kernels start with
small chunks and double them, so an early witness costs little.  The
hyperplane sets' C(m, n)-bit array of rank verdicts, at most
FULL_SPARK_BUDGET / 8 bytes, is the only structure kept outside a chunk;
their rank lookups take a few k x m arrays per chunk of k rows.  Exact
Delta keeps its frontier in one stack of K m nodes, allocated once per
call and written in place: at most CHUNK_BYTES / 2 (2 MiB on a 9 x 17
frame) whether or not nodes are dropped, and at most 2^(m-2) nodes of two
Grams each, so small frames take no more than half the Grams of a walk
over every partition.  Every batched call returns the same floating-point values as the
per-subset call it replaces, so values and witnesses do not depend on the
chunking.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb
from typing import Iterable, Iterator

import numpy as np

from .errors import ConvergenceError
from .frame_core import EIG_CLAMP_RTOL, RANK_RTOL

CHUNK_BYTES = 1 << 22        # working set of one chunk (4 MiB)
FIRST_CHUNK = 64             # subsets in the first chunk of an enumeration
_PRUNE_ULPS = 4              # the Gram route's allowance is _PRUNE_ULPS * k * eps * ||F||_F^2
_SCREEN_RATIO = 8            # exact Delta's screen: least batch, least yield 1 / ratio
_EPS = np.finfo(float).eps


def _chunk_sizes(n: int, cols: int) -> Iterator[int]:
    """FIRST_CHUNK, doubling up to the byte cap for subsets of up to cols
    columns in R^n: an index row, the stacked n x cols block and one copy
    (`_stack`'s gather, or the rows the determinant screen leaves), and an
    n x n Gram per subset.  Batched det and SVD factor one block at a time
    in a scratch buffer of their own, not a copy of the stack."""
    cap = max(1, CHUNK_BYTES // (8 * (cols + 2 * n * cols + n * n + n)))
    size = min(FIRST_CHUNK, cap)
    while True:
        yield size
        size = min(2 * size, cap)


def chunked(rows: Iterable, k: int, n: int, cols: int | None = None) -> Iterator[np.ndarray]:
    """The k-element rows of an iterable, in order, as (N, k) index chunks
    sized for blocks of cols (default k) columns in R^n."""
    it = iter(rows)
    for size in _chunk_sizes(n, k if cols is None else cols):
        block = list(islice(it, size))
        if not block:
            return
        yield np.array(block, dtype=np.intp).reshape(len(block), k)


def _stack(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The blocks F_S for the rows of idx, stacked as (N, n, k)."""
    return np.ascontiguousarray(mat[:, idx].transpose(1, 0, 2))


def _by_rows(member: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(positions, column indices) of the membership rows, one group per
    subset size; each row of column indices is increasing."""
    sizes = member.sum(axis=1)
    for k in np.unique(sizes):
        pos = np.flatnonzero(sizes == k)
        yield pos, np.nonzero(member[pos])[1].reshape(len(pos), int(k))


def _floor(mat: np.ndarray) -> float:
    """The rank floor RANK_RTOL * sigma_1(F): a column set spans R^n when
    its sigma_n exceeds it, the rule of `frame_core.matrix_rank`."""
    return RANK_RTOL * float(np.linalg.norm(mat, 2))


def _det_lower(blocks: np.ndarray) -> np.ndarray:
    """A bound 0 <= lower <= sigma_n(A) per n x n block A of a stack, below
    the sigma_n that an SVD of A returns (the lambda_min that eigvalsh
    returns, for a Gram A).

    Hong-Pan (Linear Algebra Appl. 172, 1992):
    sigma_n(A) >= |det A| ((n-1) / ||A||_F^2)^((n-1)/2), with
    |det A| from one batched LU (`slogdet`; numpy's `det` is its
    exponential), so the product of the pivots never overflows.  The bound
    is lowered by (n^4 2^n + 1024 n^2) eps ||A||_F: partial pivoting factors
    A + E with ||E||_F <= n^3 2^(n-1) eps ||A||_F (pivot growth at most
    2^(n-1)), which moves sigma_n by ||E||_2 and the Frobenius factor by
    (n-1) ||E||_F / ||A||_F relative, and the logarithms add at most about
    750 n^2 eps relative; the rest covers the rounding of an SVD, or of
    eigvalsh when A is a Gram (symmetric positive semidefinite, so
    sigma_n(A) = lambda_min(A)).  A bound that is not finite (||A||_F^2
    overflows), or one whose ||A||_F^2 underflows below the normal range,
    counts as 0."""
    n = blocks.shape[-1]
    logdet = np.linalg.slogdet(blocks)[1]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        fro2 = np.einsum("kij,kij->k", blocks, blocks)
        # (at n = 1 the factor is 1 and the bound is |a|)
        log_hp = logdet + 0.5 * (n - 1) * (np.log(max(n - 1, 1)) - np.log(fro2))
        lower = np.exp(log_hp) - (n**4 * 2.0**n + 1024 * n * n) * _EPS * np.sqrt(fro2)
    usable = np.isfinite(lower) & (fro2 >= np.finfo(float).tiny)
    return np.where(usable, np.maximum(lower, 0.0), 0.0)


def full_rank(mat: np.ndarray, idx: np.ndarray, floor: float) -> np.ndarray:
    """Rank verdict per row of idx: True where sigma_n(F_S) > floor
    (`_floor`).  A square block whose determinant bound exceeds 2 * floor
    passes, since the SVD's rounding is far below the floor; the SVD decides
    every other row."""
    n = mat.shape[0]
    ok = np.zeros(len(idx), dtype=bool)
    if idx.shape[1] < n:
        return ok
    blocks = _stack(mat, idx)
    if idx.shape[1] == n:
        ok = _det_lower(blocks) > 2 * floor
    ok[~ok] = np.linalg.svd(blocks[~ok], compute_uv=False)[:, n - 1] > floor
    return ok


def spans(mat: np.ndarray, member: np.ndarray, floor: float) -> np.ndarray:
    """Rank verdict per membership row, against floor (`_floor`); the empty
    set does not span."""
    out = np.zeros(len(member), dtype=bool)
    for pos, idx in _by_rows(member):
        out[pos] = full_rank(mat, idx, floor)
    return out


def _lambda_min(grams: np.ndarray) -> np.ndarray:
    """max(lambda_min, 0) per Gram of a stack, from one batched eigvalsh;
    ConvergenceError where eigvalsh fails or below the roundoff floor
    -EIG_CLAMP_RTOL * lambda_max."""
    try:
        lam = np.linalg.eigvalsh(grams)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Gram eigensolver did not converge: {exc}") from exc
    low, top = lam[:, 0], lam[:, -1]
    below = low < -EIG_CLAMP_RTOL * np.where(top > 0, top, 1.0)
    if below.any():
        first = float(low[below][0])
        raise ConvergenceError(f"Gram matrix eigenvalue {first!r} below roundoff floor")
    return np.maximum(low, 0.0)


def _gram_lambda_min(blocks: np.ndarray) -> np.ndarray:
    """max(lambda_min(F_S F_S^T), 0) per stacked block F_S, by `_lambda_min`.
    Fewer than n columns never span R^n, so their lambda_min is 0 exactly
    and takes no eigensolve, which would return rounding noise whose root
    can reach 1e-8 ||F_S||."""
    if blocks.shape[2] < blocks.shape[1]:
        return np.zeros(len(blocks))
    return _lambda_min(blocks @ blocks.transpose(0, 2, 1))


def sigma_n(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sigma_n(F_S) = sqrt(max(lambda_min(F_S F_S^T), 0)) per row of idx
    (0 for fewer than n columns)."""
    return np.sqrt(_gram_lambda_min(_stack(mat, idx)))


def kernel_vectors(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per row of idx (at least one column), the last right singular vector
    of F_S^T from its full SVD: a unit vector orthogonal to every column of
    F_S when F_S does not span R^n."""
    return np.linalg.svd(_stack(mat, idx).transpose(0, 2, 1), full_matrices=True)[2][:, -1]


def lower_bounds(mat: np.ndarray, member: np.ndarray) -> np.ndarray:
    """A[S] = max(lambda_min(F_S F_S^T), 0) per membership row (0 for fewer
    than n columns), under `_lambda_min`'s roundoff floor."""
    out = np.zeros(len(member))
    for pos, idx in _by_rows(member):
        out[pos] = _gram_lambda_min(_stack(mat, idx))
    return out


def partition_bounds(mat: np.ndarray, masks: list[int]) -> np.ndarray:
    """A[S] + A[S^c] per bitmask S in masks, in chunks.  The bitmasks are
    Python ints, made into membership rows, so any m works."""
    n, m = mat.shape
    out = [np.empty(0)]
    for rows in chunked(([b >> j & 1 for j in range(m)] for b in masks), m, n):
        rows = rows == 1
        out.append(lower_bounds(mat, rows) + lower_bounds(mat, ~rows))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Kernels.
# ---------------------------------------------------------------------------

def _deficient(mat: np.ndarray) -> Iterator[np.ndarray]:
    """The one n-subset rank pass: per chunk of n-subsets in combinations
    order, the rows whose columns do not span R^n (`full_rank`), in order.
    The chunks start small and double, so a reader that stops at its first
    deficient row costs little."""
    n, m = mat.shape
    floor = _floor(mat)
    for idx in chunked(combinations(range(m), n), n, n):
        yield idx[~full_rank(mat, idx, floor)]


def first_deficient(mat: np.ndarray) -> np.ndarray | None:
    """The first n-subset in combinations order whose columns do not span
    R^n, or None when the frame is full spark (needs m >= n)."""
    return next((bad[0] for bad in _deficient(mat) if len(bad)), None)


def _bits(member: np.ndarray) -> int:
    """The bitmask of one membership row, as a Python int (any m works)."""
    return sum(1 << int(j) for j in np.flatnonzero(member))


def _complements(rows: Iterable, n: int, m: int) -> Iterator[np.ndarray]:
    """Membership rows of the complements of the (n-1)-element rows, in
    chunks sized for their blocks of m - n + 1 columns and for the rank
    lookup of `hyperplane_complements`, about six k x m int64 arrays for k
    rows, counted as ceil(3 m / n) more columns: 8 (2 n + 1) 3 m / n >=
    48 m bytes per row."""
    for comp in chunked(rows, n - 1, n, cols=m - n + 1 + -(-3 * m // n)):
        keep = np.ones((len(comp), m), dtype=bool)
        keep[np.arange(len(comp))[:, None], comp] = False
        yield keep


def hyperplane_complements(mat: np.ndarray) -> Iterator[np.ndarray]:
    """Membership rows of S = H_T^c, in chunks, for the (n-1)-subsets T in
    combinations order (see the module docstring).  The one rank pass over
    the n-subsets marks each deficient n-subset U as one bit at its colex
    rank, sum_i C(u_i, i + 1); H_T^c then drops each j whose T + j is
    marked.  A T whose H_T holds every column (rank below n-1) is left out;
    when no n-subset spans R^n, every H_T holds every column, and the one
    row S = {} comes instead."""
    n, m = mat.shape
    total = comb(m, n)
    # C(a, b) at [b, a] for a < m, b <= n, capped at C(m, n): every term of a
    # rank is below C(m, n), so the cap changes none
    binom = np.array([[min(comb(a, b), total) for a in range(m)] for b in range(n + 1)], dtype=np.int64)
    marks = np.zeros(total // 8 + 1, dtype=np.uint8)
    for bad in _deficient(mat):
        rank = binom[np.arange(1, n + 1), bad].sum(axis=1)
        np.bitwise_or.at(marks, rank >> 3, (1 << (rank & 7)).astype(np.uint8))
    if np.bitwise_count(marks).sum() == total:
        yield np.zeros((1, m), dtype=bool)
        return
    for keep in _complements(combinations(range(m), n - 1), n, m):
        if marks.any():  # else full spark: H_T = T
            # For j not in T, the colex rank of T + j is C(j, e_j + 1) plus,
            # over t in T, C(t, e_t + 1), or C(t, e_t) for t below j, where
            # e_c counts the t <= c.  A j in T gets 0.  Every array is k x m.
            e = np.cumsum(~keep, axis=1)
            up = np.take_along_axis(binom, e + 1, axis=0)
            low = np.where(keep, 0, np.take_along_axis(binom, e, axis=0) - up)
            rank = np.where(keep, up + (up * ~keep).sum(axis=1, keepdims=True) + np.cumsum(low, axis=1), 0)
            keep &= (marks[rank >> 3] >> (rank & 7) & 1) == 0
        yield keep[keep.any(axis=1)]


def _row_bits(member: np.ndarray) -> np.ndarray:
    """The bitmasks of the membership rows: int64 for m <= 62, Python ints
    (object dtype) above."""
    m = member.shape[1]
    if m <= 62:
        return member @ (np.int64(1) << np.arange(m, dtype=np.int64))
    return np.array([_bits(row) for row in member], dtype=object)


def first_violating_partition(mat: np.ndarray) -> int | None:
    """The smallest bitmask S < 2^(m-1) such that neither S nor its
    complement spans R^n, or None when the complement property holds: the
    least violating H_T^c with m-1 in H_T, since S^c lies in some H_T and
    H_T^c, inside S, does not span either.  All rows are read; only those
    below the least violation found so far are rank-checked."""
    m = mat.shape[1]
    floor = _floor(mat)
    none = least = 1 << m  # above every bitmask
    for member in hyperplane_complements(mat):
        member = member[~member[:, m - 1]]
        bits = _row_bits(member)
        below = bits < least
        member, bits = member[below], bits[below]
        bad = ~spans(mat, member, floor)
        # only a side that does not span needs its complement checked
        bad[bad] = ~spans(mat, ~member[bad], floor)
        if bad.any():
            least = min(least, int(bits[bad].min()))
    return None if least == none else least


def tau(mat: np.ndarray) -> float:
    """min sigma_n(F_S) over the n-subsets that span R^n (inf when none do),
    with sigma_n read off the SVD that gives the rank verdict."""
    n, m = mat.shape
    floor = _floor(mat)
    best = np.inf
    for idx in chunked(combinations(range(m), n), n, n):
        blocks = _stack(mat, idx)
        if best < np.inf:  # a row whose screen bound exceeds the incumbent cannot beat it
            blocks = blocks[_det_lower(blocks) <= best]
        low = np.linalg.svd(blocks, compute_uv=False)[:, n - 1]
        low = low[low > floor]
        if low.size:
            best = min(best, float(low.min()))
    return best


def kernel_starts(mat: np.ndarray) -> np.ndarray:
    """(N, n) kernel vectors of F_S^T (see `kernel_vectors`) for every
    (n-1)-subset S, in combinations order."""
    n, m = mat.shape
    rows = chunked(combinations(range(m), n - 1), n - 1, n)
    return np.concatenate([np.empty((0, n))] + [kernel_vectors(mat, idx) for idx in rows])


def omega_min(mat: np.ndarray, chunks: Iterable[np.ndarray]) -> tuple[float, int]:
    """(min, witness bitmask) of sigma_n(F_S) over the membership rows S of
    the chunks: the first least value in their order (exact omega over the
    chunks of `hyperplane_complements`).  Once there is an incumbent, a
    square row whose screen bound keeps its Gram value above it, by more
    than the Gram route's allowance (`gram_allowance` of the row), could
    never be taken, so it is left at inf unsolved."""
    n = mat.shape[0]
    best, best_row = np.inf, None
    for member in chunks:
        values = np.full(len(member), np.inf)
        for pos, idx in _by_rows(member):
            blocks = _stack(mat, idx)
            if best < np.inf and idx.shape[1] == n:
                lower = _det_lower(blocks)
                need = lower * lower <= (best * best + gram_allowance(blocks)) * (1 + 8 * _EPS)
                pos, blocks = pos[need], blocks[need]
            values[pos] = np.sqrt(_gram_lambda_min(blocks))
        if len(values) and values.min() < best:
            i = int(np.argmin(values))
            best, best_row = values[i], member[i]
    return float(best), _bits(best_row)


def omega_complements(mat: np.ndarray, rows: Iterable) -> tuple[float, int]:
    """(min, witness bitmask) of sigma_n(F_S) over the complements S of the
    (n-1)-element index rows: the first least value in their order, omega
    of a full-spark frame when the rows are all (n-1)-subsets."""
    n, m = mat.shape
    return omega_min(mat, _complements(rows, n, m))


def gram_allowance(mat: np.ndarray) -> float | np.ndarray:
    """_PRUNE_ULPS * k * eps * ||F||_F^2 for an n x k matrix F, or per block
    of a stack of them: the rounding allowance, in squared units, of a
    lambda_min taken from a Gram of F's columns (a sum of at most k outer
    products; ||F||_F^2 >= ||F||_2^2 and takes no SVD).  Two such values,
    or their squared roots, that differ by no more than this cannot be told
    apart by the Gram route: exact Delta prunes with it, exact omega's
    square-row screen allows it per row, and the stability chain and the
    minimal-redundancy Delta = omega check compare squared values against
    it."""
    return _PRUNE_ULPS * mat.shape[-1] * _EPS * np.einsum("...ij,...ij->...", mat, mat)


def delta_exact(mat: np.ndarray) -> tuple[float, int]:
    """(Delta, witness bitmask): min over S < 2^(m-1) of
    sqrt(A[S] + A[S^c]), A[S] = max(lambda_min(F_S F_S^T), 0); the first
    minimum in bitmask order.

    Depth-first branch-and-bound over column assignments: columns m-1, ...,
    0 join S or S^c in turn (m-1 always S^c), so each side's Gram is summed
    from the highest index down, as the module docstring fixes.  A side's
    lambda_min only grows as columns join it, so a node whose A[S] + A[S^c]
    so far exceeds the incumbent by more than `gram_allowance` holds no
    minimum and is dropped.  A side of fewer than n columns counts 0 and
    is never solved.  The frontier is one stack of at most K m nodes,
    ordered by depth; the deepest K are expanded together, in place.

    Once there is an incumbent, a side of n columns or more goes through the
    determinant screen before eigvalsh: for a Gram, sigma_n = lambda_min, so
    a side whose bound L takes its node above the prune limit (above the
    incumbent itself at a leaf) keeps L, and the node is dropped unsolved.
    Every kept value and every tie still comes from `_lambda_min`, so values
    and witnesses are those of the unscreened search.  The screen runs on
    batches of at least _SCREEN_RATIO rows, and only while it has decided at
    least one row in _SCREEN_RATIO since the incumbent last fell: per row,
    the screen takes a quarter to an eighth of the time of eigvalsh on 5 x 5
    to 9 x 9 Grams, and a batched call of it has a fixed cost of four to a
    dozen such rows.
    Where the incumbent sits far below most sides' lambda_min the screen
    decides nearly every row it tries; where it does not, the bound is too
    loose to decide many, and the screen stops.
    """
    n, m = mat.shape
    outers = np.einsum("ij,kj->jik", mat, mat)  # (m, n, n)
    # a leaf's value may fall below its nodes' bounds by Gram and eigvalsh
    # rounding
    allowance = gram_allowance(mat)
    # K nodes per chunk: the stack of K m nodes takes at most CHUNK_BYTES / 2
    # and holds at most 2^(m-1) Grams, half of all 2^m partition sides
    K = max(1, min(CHUNK_BYTES // (16 * m * (2 * n * n + 4)), (1 << m) // (4 * m)))
    grams = np.zeros((K * m, 2, n, n))  # per node: the Grams of S and S^c
    flat = grams.reshape(-1, n, n)  # side s of node i is row 2 i + s
    lows = np.full((K * m, 2), np.nan)  # their max(lambda_min, 0), NaN until solved
    bits = np.zeros(K * m, dtype=np.int64 if m <= 64 else object)
    sizes = np.zeros(K * m, dtype=np.intp)  # columns in S
    grams[0, 1] += outers[m - 1]
    counts = [0] * (m + 1)  # nodes per depth (columns assigned)
    counts[1] = top = 1
    best, best_bits = np.inf, 0
    tried = decided = 0  # rows the screen tried and decided since best last fell

    def bound(nodes) -> np.ndarray:
        """A[S] + A[S^c] so far per node; an unsolved side counts 0."""
        return np.fmax(lows[nodes], 0.0).sum(axis=1)

    def solve(rows: np.ndarray, limit: float) -> None:
        """Fill in the sides at flat rows (side s of node i is row 2 i + s)
        with max(lambda_min, 0) from `_lambda_min`, after the screen when
        limit is finite: a side whose bound L already takes its node above
        limit keeps L, and neither it nor the rest of the node is solved."""
        nonlocal tried, decided
        if not rows.size:
            return
        out = lows.reshape(-1)
        if limit < np.inf and len(rows) >= _SCREEN_RATIO and _SCREEN_RATIO * decided >= tried:
            out[rows] = _det_lower(flat[rows])
            left = rows[bound(rows // 2) <= limit]
            tried += len(rows)
            decided += len(rows) - len(left)
            rows = left
        out[rows] = _lambda_min(flat[rows])

    def keep(lo: int, hi: int) -> int:
        """Drop the nodes lo .. hi - 1 that hold no minimum and move the rest
        to lo .. lo + k - 1, highest bound first, so that the lowest are
        expanded first.  Returns k."""
        bounds = bound(slice(lo, hi))
        k = np.count_nonzero(bounds <= best + allowance)
        order = lo + np.argsort(-bounds, kind="stable")[hi - lo - k :]  # the dropped sort first
        if k < hi - lo or (order[1:] < order[:-1]).any():
            for arr in (grams, lows, bits, sizes):
                arr[lo : lo + k] = arr[order]
        return k

    if m == 1:  # S = {}, S^c = {0}
        return float(np.sqrt(_gram_lambda_min(mat[None])[0])), 0
    depth = 1
    while depth:
        if not counts[depth]:
            depth -= 1
            continue
        size = min(K, counts[depth])
        counts[depth] -= size
        lo = top - size
        size = keep(lo, top)
        hi = lo + size
        j = m - 1 - depth
        # Children in place: lo .. hi - 1 put j in S, hi .. top - 1 in S^c.
        top = hi + size
        for arr in (grams, lows, bits, sizes):
            arr[hi:top] = arr[lo:hi]
        grams[lo:hi, 0] += outers[j]
        grams[hi:top, 1] += outers[j]
        bits[lo:hi] |= 1 << j
        sizes[lo:hi] += 1
        lows[lo:hi, 0] = lows[hi:top, 1] = np.nan
        depth += 1
        # Each child solves its unsolved sides of n columns or more; a leaf
        # they put above best (a screened side keeps its bound) is neither
        # the minimum nor a tie.
        wide = sizes[lo:top, None] * [1, -1] >= [n, n - depth]  # |S| >= n, |S^c| >= n
        solve(2 * lo + np.flatnonzero(np.isnan(lows[lo:top]) & wide),
              best if depth == m else best + allowance)
        if depth < m:
            counts[depth] = keep(lo, top)
            top = lo + counts[depth]
            continue
        values = bound(slice(lo, top))
        low = values.min(initial=np.inf)
        if low <= best:
            tied = bits[lo:top][values == low].min()
            if low < best:
                best_bits, tried, decided = tied, 0, 0
            else:
                best_bits = min(best_bits, tied)
            best = low
        top = lo
        depth -= 1
    return float(np.sqrt(best)), int(best_bits)
