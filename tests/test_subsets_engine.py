"""The batched subset engine against SVD brute force, on random,
duplicated-column and near-degenerate frames (m <= 10), and against the
one-subset-at-a-time loops it replaced."""

import itertools
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from phasestab import (
    Frame,
    a0,
    complement_property,
    delta,
    full_spark,
    load_frame,
    omega,
    tau,
)
from phasestab import frame_core, injectivity, robustness, subsets
from phasestab.cli import FIXTURES
from phasestab.errors import ConvergenceError, NotAFrameError, VerdictConflictError

EPS = np.finfo(float).eps


@st.composite
def frames(draw, offsets=(8, 13), scales=None, per_column=True):
    """(kind, matrix): a Gaussian frame, one with a column repeated up to a
    scale, or one with a column 10^-offsets[0] to 10^-offsets[1] off the
    span of n-1 others.  With scales = (lo, hi), the columns of half the
    frames are then scaled by 10^lo to 10^hi: all by one power, or (with
    per_column) each by its own."""
    kind = draw(st.sampled_from(["random", "duplicated", "near_degenerate"]))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n if kind == "random" else n + 1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.standard_normal((n, m))
    if kind == "duplicated":
        i, j = rng.choice(m, size=2, replace=False)
        mat[:, j] = draw(st.sampled_from([1.0, -1.0, 2.5])) * mat[:, i]
    elif kind == "near_degenerate":
        j, *others = rng.choice(m, size=n, replace=False)
        basis = mat[:, others]
        normal = np.linalg.qr(basis, mode="complete")[0][:, -1]
        offset = 10.0 ** -draw(st.integers(*offsets))
        mat[:, j] = basis @ rng.standard_normal(n - 1) + offset * normal
    if scales and draw(st.booleans()):
        size = draw(st.sampled_from([1, m] if per_column else [1]))
        mat *= 10.0 ** rng.integers(scales[0], scales[1] + 1, size=size).astype(float)
    return kind, mat


@st.composite
def tie_frames(draw):
    """A frame rich in exact ties: each column is zero, a coordinate vector,
    or up to sign one of fewer than n small-integer or Gaussian columns.
    m is 11 to 13: on shallower trees a branch-and-bound that drops nodes
    without a rounding allowance rarely shows it."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(11, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = (n, int(rng.integers(1, n)))
    pool = rng.standard_normal(size) if rng.random() < 0.5 else rng.integers(-2, 3, size).astype(float)
    mat = np.zeros((n, m))
    for j, kind in enumerate(rng.integers(5, size=m)):
        if kind == 1:
            mat[int(rng.integers(n)), j] = 1.0
        elif kind > 1:
            mat[:, j] = rng.choice([-1.0, 1.0]) * pool[:, rng.integers(size[1])]
    return mat


def floor(mat):
    """The rank floor of the frame, RANK_RTOL * sigma_1(F), by SVD."""
    return frame_core.RANK_RTOL * np.linalg.svd(mat, compute_uv=False)[0]


def svd_tol(mat):
    """Rounding bound of a singular value taken from an SVD: 10 eps ||F||_2."""
    return 10 * EPS * np.linalg.norm(mat, 2)


def sigma(mat, idx):
    return oracles.subset_sigma_n(mat, idx)


def complement(idx, m):
    return tuple(j for j in range(m) if j not in idx)


def all_subsets(m):
    return itertools.chain.from_iterable(
        itertools.combinations(range(m), r) for r in range(m + 1)
    )


def indices(bits, m):
    return tuple(j for j in range(m) if bits >> j & 1)


SETTINGS = settings(max_examples=40, deadline=None)


class TestVerdicts:
    @given(frames())
    @SETTINGS
    def test_full_spark_witness_is_first_deficient(self, case):
        _, mat = case
        n, m = mat.shape
        first = next(
            (S for S in itertools.combinations(range(m), n) if not oracles.spans_svd(mat, S)),
            None,
        )
        ok, witness = full_spark(Frame(mat))
        assert ok == (first is None)
        assert (witness is None) if ok else tuple(witness.indices()) == first

    @given(frames())
    @SETTINGS
    def test_complement_property(self, case):
        _, mat = case
        m = mat.shape[1]
        violated = [
            bits
            for bits in range(1 << (m - 1))
            if not oracles.spans_svd(mat, indices(bits, m))
            and not oracles.spans_svd(mat, complement(indices(bits, m), m))
        ]
        ok, witness = complement_property(Frame(mat))
        assert ok == (not violated)
        if not ok:
            assert witness.bits == violated[0]
            assert not oracles.spans_svd(mat, witness.indices())
            assert not oracles.spans_svd(mat, witness.complement().indices())

    def test_complement_witness_beyond_int64(self):
        # m = 64: row bitmasks are Python ints.  Column 5 is e2, the others
        # multiples of e1, so S = {5} is the least violating side.
        mat = np.zeros((2, 64))
        mat[0] = np.random.default_rng(64).uniform(1.0, 2.0, 64)
        mat[:, 5] = [0.0, 1.0]
        ok, witness = complement_property(Frame(mat))
        assert not ok and witness.bits == 1 << 5

    @given(frames())
    @SETTINGS
    def test_rank_rule_is_the_frame_floor(self, case):
        _, mat = case
        m = mat.shape[1]
        bits = np.arange(1 << m, dtype=np.int64)
        expect = [oracles.spans_svd(mat, indices(int(b), m)) for b in bits]
        member = (bits[:, None] >> np.arange(m)) & 1 == 1
        assert subsets.spans(mat, member, subsets._floor(mat)).tolist() == expect

    @given(frames(scales=(-8, 8)))
    @SETTINGS
    def test_rank_rule_is_monotone(self, case):
        # a set that spans keeps spanning as a column joins it, also when
        # the columns are scaled one by one by 10^-8 to 10^8
        _, mat = case
        m = mat.shape[1]
        bits = np.arange(1 << m, dtype=np.int64)
        member = (bits[:, None] >> np.arange(m)) & 1 == 1
        ok = subsets.spans(mat, member, subsets._floor(mat))
        for j in range(m):
            grown = ok[bits | 1 << j]
            assert grown[ok].all(), f"a spanning set fails once column {j} joins it"

    def test_spanning_n_subsets_only_on_frames_of_rank_n(self):
        # frames with one column scaled by 10^-8, 1 or 10^8 each, every
        # third with its last column a copy of its first: wherever tau finds
        # a spanning n-subset, F itself has rank n
        rng = np.random.default_rng(36)
        for i in range(750):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n + 1, 12))
            mat = rng.standard_normal((n, m))
            if i % 3 == 0:
                mat[:, -1] = mat[:, 0]
            mat = mat * 10.0 ** (8 * rng.integers(-1, 2, size=m))
            if subsets.tau(mat) < np.inf:
                assert Frame(mat).rank() == n, f"frame {i}"


class TestConstants:
    @given(frames())
    @SETTINGS
    def test_tau(self, case):
        _, mat = case
        n, m = mat.shape
        ranked = [
            sigma(mat, S)
            for S in itertools.combinations(range(m), n)
            if oracles.spans_svd(mat, S)
        ]
        if not ranked:
            with pytest.raises(NotAFrameError):
                tau(Frame(mat))
            return
        ref = min(ranked)
        assert abs(tau(Frame(mat)) - ref) <= svd_tol(mat)

    @pytest.mark.parametrize("seed", range(8))
    def test_tau_resolves_nearly_dependent_columns(self, seed):
        # column 5 lies 1e-9 off the plane of columns 0 and 1: tau ~ 8e-10,
        # below what the square root of a Gram eigenvalue can resolve
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((3, 6))
        mat /= np.linalg.norm(mat, axis=0)
        normal = np.cross(mat[:, 0], mat[:, 1])
        mat[:, 5] = mat[:, :2] @ rng.standard_normal(2) + 1e-9 * normal / np.linalg.norm(normal)
        mat[:, 5] /= np.linalg.norm(mat[:, 5])
        ref = min(
            sigma(mat, S)
            for S in itertools.combinations(range(6), 3)
            if oracles.spans_svd(mat, S)
        )
        assert ref < 1e-8
        assert abs(tau(Frame(mat)) - ref) <= svd_tol(mat)

    @given(frames())
    @SETTINGS
    def test_omega_and_witness(self, case):
        _, mat = case
        m = mat.shape[1]
        ref = min(
            sigma(mat, S)
            for S in all_subsets(m)
            if not oracles.spans_svd(mat, complement(S, m))
        )
        value, witness, exact = omega(Frame(mat), mode="exact")
        tol = oracles.gram_tol(mat, ref)
        assert exact and abs(value - ref) <= tol
        assert not oracles.spans_svd(mat, witness.complement().indices())
        assert abs(sigma(mat, witness.indices()) - value) <= tol

    @given(frames())
    @SETTINGS
    def test_delta_and_witness(self, case):
        _, mat = case
        m = mat.shape[1]
        ref = oracles.delta_bruteforce(mat)
        value, witness, exact = delta(Frame(mat), mode="exact")
        tol = oracles.gram_tol(mat, ref, terms=2)
        assert exact and abs(value - ref) <= tol
        attained = math.hypot(
            sigma(mat, witness.indices()), sigma(mat, witness.complement().indices())
        )
        assert abs(attained - value) <= tol
        assert witness.bits < 1 << (m - 1)

    @given(frames().filter(lambda case: case[0] == "random"))
    @settings(max_examples=15, deadline=None)
    def test_random_frames_match_oracles(self, case):
        _, mat = case
        fr = Frame(mat)
        assert omega(fr)[0] == pytest.approx(oracles.omega_bruteforce(mat), abs=1e-10)
        assert tau(fr) == pytest.approx(oracles.tau_bruteforce(mat), abs=1e-10)


@st.composite
def thin_frames(draw):
    """n = 2..4 and n <= m <= 2n - 2 columns, below the 2n - 1 that phase
    retrieval needs: Gaussian, or with a column repeated up to a scale, and
    scaled as a whole by 1 or 10^+-8."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n, 2 * n - 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.standard_normal((n, m))
    if draw(st.booleans()):
        i, j = rng.choice(m, size=2, replace=False)
        mat[:, j] = draw(st.sampled_from([1.0, -1.0, 2.5])) * mat[:, i]
    return mat * draw(st.sampled_from([1.0, 1e-8, 1e8]))


class TestNarrowSides:
    """A set of fewer than n columns never spans: its sigma_n and lambda_min
    are 0 exactly, and its Gram takes no eigensolve."""

    @given(thin_frames())
    @SETTINGS
    def test_exact_delta_is_zero_below_2n_minus_1(self, mat):
        # some partition has two sides of fewer than n columns
        value, witness, exact = delta(Frame(mat), mode="exact")
        assert exact and value == 0.0
        assert witness.bits < 1 << (mat.shape[1] - 1)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (3, 7), (4, 9)])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_no_narrow_gram_reaches_eigvalsh(self, shape, mode, monkeypatch):
        # on a Gaussian frame every Gram of n or more columns is well
        # conditioned, and every Gram of fewer columns is singular
        mat = np.random.default_rng(sum(shape)).standard_normal(shape)
        spectra = []
        eigvalsh = np.linalg.eigvalsh

        def spy(grams):
            spectra.append(eigvalsh(grams))
            return spectra[-1]

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        delta(Frame(mat), mode=mode, budget=64)
        omega(Frame(mat), mode=mode, budget=64)
        lam = np.concatenate(spectra)
        assert (lam[:, 0] > 1e-6 * lam[:, -1]).all()

    def test_one_column_frames(self, monkeypatch):
        assert delta(Frame(np.array([[-3.0]])), mode="exact")[0] == 3.0
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # any eigensolve fails
        assert delta(Frame(np.array([[3.0], [4.0]])), mode="exact")[0] == 0.0


def _square_blocks(mat):
    """(index rows, stacked n x n blocks) of the n-subsets of a frame."""
    n, m = mat.shape
    idx = np.array(list(itertools.combinations(range(m), n)), dtype=np.intp)
    return idx, np.ascontiguousarray(mat[:, idx].transpose(1, 0, 2))


class TestDeterminantScreen:
    """The Hong-Pan screen of square blocks, on frames 1e-6 to 1e-14 off a
    span and with columns scaled by up to 10^+-150 (10^+-160 where
    ||F_S||_F^2 may leave the normal range)."""

    @given(frames(offsets=(6, 14), scales=(-150, 150)))
    @SETTINGS
    def test_bound_is_below_svd_and_gram_sigma_n(self, case):
        _, mat = case
        n = mat.shape[0]
        _, blocks = _square_blocks(mat)
        lower = subsets._det_lower(blocks)
        fro2 = np.einsum("kij,kij->k", blocks, blocks)
        svals = np.linalg.svd(blocks, compute_uv=False)
        lam = np.linalg.eigvalsh(blocks @ blocks.transpose(0, 2, 1))[:, 0]
        assert (lower >= 0).all()
        assert (lower <= svals[:, n - 1]).all()
        # exact omega's prune: the Gram route stays within its allowance
        assert (lower * lower <= lam + subsets._PRUNE_ULPS * n * EPS * fro2).all()

    @given(frames(offsets=(6, 14), scales=(-160, 160)))
    @SETTINGS
    def test_certified_rows_pass_the_rank_rule(self, case):
        _, mat = case
        n = mat.shape[0]
        idx, blocks = _square_blocks(mat)
        certified = subsets._det_lower(blocks) > 2 * floor(mat)
        svals = np.linalg.svd(blocks, compute_uv=False)
        assert (svals[certified, n - 1] > floor(mat)).all()
        verdicts = subsets.full_rank(mat, idx, subsets._floor(mat))
        assert verdicts.tolist() == [oracles.spans_svd(mat, S) for S in idx]

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_scaled_frames_fall_back_to_the_svd(self, scale):
        # ||F_S||_F^2 overflows at 1e160 and underflows at 1e-160, so the
        # screen decides nothing and the SVD gives every verdict and value
        mat = np.random.default_rng(160).standard_normal((3, 6)) * scale
        mat[:, 5] = -mat[:, 1]
        idx, blocks = _square_blocks(mat)
        assert not subsets._det_lower(blocks).any()
        verdicts = [oracles.spans_svd(mat, S) for S in idx]
        assert subsets.full_rank(mat, idx, subsets._floor(mat)).tolist() == verdicts
        ok, witness = full_spark(Frame(mat))
        assert not ok and tuple(witness.indices()) == tuple(idx[verdicts.index(False)])
        assert tau(Frame(mat)) == _tau_loop(mat)

    @given(frames(offsets=(6, 14), scales=(-150, 150)))
    @SETTINGS
    def test_bound_is_below_gram_lambda_min(self, case):
        # exact Delta screens the Grams of sides of n columns or more
        _, mat = case
        n, m = mat.shape
        sides = [list(S) for k in range(n, m + 1) for S in itertools.combinations(range(m), k)]
        grams = np.array([mat[:, S] @ mat[:, S].T for S in sides])
        lam = np.linalg.eigvalsh(grams)[:, 0]
        assert (subsets._det_lower(grams) <= np.maximum(lam, 0.0)).all()

    @pytest.mark.parametrize("scale", [1e80, 1e-80])
    def test_scaled_frames_fall_back_to_eigvalsh_in_delta(self, scale, monkeypatch):
        # ||G||_F^2 of the side Grams overflows at 1e80 and underflows at
        # 1e-80, so the screen decides nothing and eigvalsh gives every value
        mat = np.random.default_rng(611).standard_normal((6, 11))
        mat *= scale / np.linalg.norm(mat, axis=0)
        bounds = []
        det_lower = subsets._det_lower

        def spy(blocks):
            out = det_lower(blocks)
            bounds.append(out)
            return out

        monkeypatch.setattr(subsets, "_det_lower", spy)
        value, witness, _ = delta(Frame(mat), mode="exact")
        assert bounds and not np.concatenate(bounds).any()
        assert (value, witness.bits) == _delta_one_stack(mat)

    def test_exact_delta_leaves_few_grams_to_eigvalsh(self, monkeypatch):
        """Exact Delta on a unit 9 x 17 frame solved 37,195 side Grams
        before the determinant screen."""
        mat = np.random.default_rng(917).standard_normal((9, 17))
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
        delta(Frame(mat / np.linalg.norm(mat, axis=0)), mode="exact")
        assert sum(solved) <= 2**17 // 32

    def test_screen_leaves_few_rows_to_svd_and_eigvalsh(self, monkeypatch):
        """On a full-spark 8 x 15 frame, full spark, tau and exact omega
        would each factor all C(15, 8) = 6,435 blocks without the screen."""
        mat = np.random.default_rng(815).standard_normal((8, 15))
        mat /= np.linalg.norm(mat, axis=0)
        fr = Frame(mat)
        svd_rows, gram_rows = [], []
        svd, lambda_min = np.linalg.svd, subsets._lambda_min

        def counted_svd(a, *args, **kwargs):
            svd_rows.append(len(a) if np.ndim(a) == 3 else 1)
            return svd(a, *args, **kwargs)

        def counted_lambda_min(grams):
            gram_rows.append(len(grams))
            return lambda_min(grams)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(subsets, "_lambda_min", counted_lambda_min)
        assert full_spark(fr)[0]
        assert sum(svd_rows) <= 6435 // 20
        svd_rows.clear()
        tau(fr)
        assert sum(svd_rows) <= 6435 // 20
        omega(fr, mode="exact")
        assert sum(gram_rows) <= 6435 // 20


def _sigma_loop(mat, bits):
    cols = list(indices(bits, mat.shape[1]))
    if len(cols) < mat.shape[0]:  # fewer than n columns never span
        return 0.0
    sub = mat[:, cols]
    return float(np.sqrt(max(np.linalg.eigvalsh(sub @ sub.T)[0], 0.0)))


def _omega_loop(mat):
    """Exact omega one subset at a time, keeping the first least value:
    (omega, witness bitmask, {bitmask: sigma_n} over every candidate)."""
    n, m = mat.shape
    full = (1 << m) - 1
    if full_spark(Frame(mat))[0]:
        candidates = (
            full ^ sum(1 << i for i in c) for c in itertools.combinations(range(m), n - 1)
        )
    else:
        candidates = (
            b for b in range(1 << m)
            if b == full or not oracles.spans_svd(mat, indices(full ^ b, m))
        )
    values = {bits: _sigma_loop(mat, bits) for bits in candidates}
    best_bits, best_val = None, np.inf
    for bits, v in values.items():
        if v < best_val or best_bits is None:
            best_bits, best_val = bits, v
    return best_val, best_bits, values


def _tau_loop(mat):
    """Exact tau one subset at a time, sigma_n from the SVD of F_S."""
    n, m = mat.shape
    return min(
        (
            float(np.linalg.svd(mat[:, list(S)], compute_uv=False)[n - 1])
            for S in itertools.combinations(range(m), n)
            if oracles.spans_svd(mat, S)
        ),
        default=math.inf,
    )


def _delta_one_stack(mat):
    """Delta from one 2^m stack of Grams built by adding each bitmask's
    lowest column last, sides of fewer than n columns counting 0: the
    per-subset reference the chunks must reproduce."""
    n, m = mat.shape
    outers = np.einsum("ij,kj->jik", mat, mat)
    grams = np.zeros((1 << m, n, n))
    for bits in range(1, 1 << m):
        low = bits & -bits
        grams[bits] = grams[bits ^ low] + outers[low.bit_length() - 1]
    lows = np.maximum(np.linalg.eigvalsh(grams)[:, 0], 0.0)
    lows[[bin(bits).count("1") < n for bits in range(1 << m)]] = 0.0
    half = 1 << (m - 1)
    sums = lows[:half] + lows[((1 << m) - 1) ^ np.arange(half)]
    best = int(np.argmin(sums))
    return float(np.sqrt(sums[best])), best


def _column_scaled(power, count):
    """count frames from default_rng(36): n 2 to 4, m n + 1 to 11, every
    third with its last column a copy of its first, and each column scaled
    by 10^-power, 1 or 10^power."""
    rng = np.random.default_rng(36)
    for k in range(count):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 1, 12))
        mat = rng.standard_normal((n, m))
        if k % 3 == 0:
            mat[:, -1] = mat[:, 0]
        yield mat * 10.0 ** (power * rng.integers(-1, 2, size=m))


class TestAgainstLoops:
    @given(frames(offsets=(6, 14), scales=(-8, 8)))
    @settings(max_examples=30, deadline=None)
    def test_results_do_not_depend_on_chunk_size(self, case):
        _, mat = case
        fr = Frame(mat)

        def run():
            out = [full_spark(fr), complement_property(fr), delta(fr), omega(fr)]
            try:
                out.append(tau(fr))
            except NotAFrameError:
                out.append(None)
            return out

        big = run()
        saved = subsets.CHUNK_BYTES
        try:
            subsets.CHUNK_BYTES = 512  # a few subsets per chunk
            small = run()
        finally:
            subsets.CHUNK_BYTES = saved
        assert small == big

    # Whole frames are scaled here, not single columns.  The loops apply the
    # relative rank rule to every subset, the engine only to n-subsets; the
    # rule is not monotone, so where columns differ in scale by many orders
    # the two can pick different sets.
    @given(frames(offsets=(6, 14), scales=(-8, 8), per_column=False))
    @example(("duplicated", np.array([
        [-8.019314252534474e-09, -2.4836162209524855e-09, -2.4836162209524855e-09],
        [4.2044523806552145e-09, 1.097063993218082e-09, 1.097063993218082e-09],
    ])))  # sigma_n({1, 2}) ~ 2e-17 here, above {0}'s 0
    @settings(max_examples=30, deadline=None)
    def test_omega_and_tau_bit_identical_to_loops(self, case):
        _, mat = case
        n = mat.shape[0]
        value, witness, _ = omega(Frame(mat))
        ref_value, ref_bits, values = _omega_loop(mat)
        assert value == ref_value
        low = min(values.values())
        ties = [bits for bits, v in values.items() if v == low]
        if full_spark(Frame(mat))[0] or len(ties) == 1:
            assert witness.bits == ref_bits
        else:
            # a tie the loop broke by bitmask order
            assert not oracles.spans_svd(mat, witness.complement().indices())
            assert _sigma_loop(mat, witness.bits) == value
        try:
            assert tau(Frame(mat)) == _tau_loop(mat)
        except NotAFrameError:
            assert _tau_loop(mat) == math.inf

    @pytest.mark.parametrize("power", [8, 150])
    def test_omega_is_the_first_least_row_on_column_scaled_frames(self, power):
        # Column norms that span many orders: a row below an earlier one
        # wins however small the gap, and an equal one never does.  A row
        # whose complement spans under the frame's floor is no candidate.
        for mat in _column_scaled(power, 60):
            n = mat.shape[0]
            floor = frame_core.RANK_RTOL * np.linalg.norm(mat, 2)
            least, first = np.inf, None
            for member in subsets.hyperplane_complements(mat):
                for row in member:
                    value = subsets.sigma_n(mat, np.flatnonzero(row)[None])[0]
                    rest = mat[:, ~row]
                    if rest.shape[1] >= n and np.linalg.svd(rest, compute_uv=False)[n - 1] > floor:
                        continue
                    if value < least:
                        least, first = value, row
            value, witness, _ = omega(Frame(mat))
            assert (value, witness.bits) == (least, subsets._bits(first))

    def test_omega_witness_complement_never_spans_on_column_scaled_frames(self):
        # On 5 of these 750 frames a hyperplane set H_T passes the floor,
        # and its complement, once exact omega's witness, set omega below
        # Delta (frame 572: 0.0 against 8.03e5)
        for k, mat in enumerate(_column_scaled(8, 750)):
            n = mat.shape[0]
            frame = Frame(mat)
            rest = mat[:, omega(frame)[1].complement().indices()]
            floor = frame_core.RANK_RTOL * np.linalg.norm(mat, 2)
            assert rest.shape[1] < n or np.linalg.svd(rest, compute_uv=False)[n - 1] <= floor, k
            try:
                robustness.lipschitz_constants(frame, injectivity.A0Config(restarts=1))
            except NotAFrameError:  # no n-subset spans, so tau has no value
                pass

    def test_omega_raises_when_every_complement_spans(self):
        # Every pair of columns fails the floor 1e-10 ||F||, while F with
        # its 16 columns of 5e-11 along e_2 passes it: the one candidate,
        # S = {}, has a complement that spans
        mat = np.zeros((2, 17))
        mat[0, 0], mat[1, 1:] = 1.0, 5e-11
        assert Frame(mat).rank() == 2
        with pytest.raises(VerdictConflictError, match="every candidate set spans"):
            omega(Frame(mat))

    @given(frames(offsets=(6, 14), scales=(-150, 150)))
    @settings(max_examples=30, deadline=None)
    def test_delta_bit_identical_to_one_stack(self, case):
        _, mat = case
        value, witness, _ = delta(Frame(mat))
        assert (value, witness.bits) == _delta_one_stack(mat)

    def test_exact_delta_memory_is_capped(self):
        mat = np.random.default_rng(917).standard_normal((9, 17))
        tracemalloc.start()
        try:
            delta(Frame(mat), mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2^17 x 9 x 9 stack alone would take 85 MB
        assert peak < subsets.CHUNK_BYTES

    @given(tie_frames())
    @settings(max_examples=100, deadline=None)
    def test_delta_bit_identical_to_one_stack_on_ties(self, mat):
        value, witness, _ = delta(Frame(mat))
        assert (value, witness.bits) == _delta_one_stack(mat)

    @pytest.mark.parametrize(
        "mat",
        [
            np.random.default_rng(918).standard_normal((9, 8))
            @ np.random.default_rng(919).standard_normal((8, 17)),
            np.repeat(np.random.default_rng(920).standard_normal((9, 1)), 17, axis=1),
        ],
        ids=["rank_8", "equal_columns"],
    )
    def test_exact_delta_memory_is_capped_when_nothing_prunes(self, mat):
        """Delta = 0 on these frames, so no node is ever dropped."""
        tracemalloc.start()
        try:
            value, _, _ = delta(Frame(mat), mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value < 1e-6
        assert peak < subsets.CHUNK_BYTES

    def test_exact_delta_solves_few_grams(self, monkeypatch):
        """Branch-and-bound solves a fraction of the 2^m Grams a walk over
        every partition solves."""
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
        delta(Frame(np.random.default_rng(519).standard_normal((5, 19))), mode="exact")
        assert sum(solved) < 2**19 / 20
        solved.clear()
        unit = np.random.default_rng(917).standard_normal((9, 17))
        delta(Frame(unit / np.linalg.norm(unit, axis=0)), mode="exact")
        assert sum(solved) <= 0.4 * 2**17


def _hyperplane_rows_dict(mat):
    """The H_T^c membership rows, in combinations order of T, from a dict
    that maps each (n-1)-subset inside a deficient n-subset to the columns
    that complete it: the (n-1)-tuple map the bit array replaced, with the
    same rank verdicts."""
    n, m = mat.shape
    extra = {}
    for idx in subsets.chunked(itertools.combinations(range(m), n), n, n):
        for row in idx[~subsets.full_rank(mat, idx, subsets._floor(mat))].tolist():
            for p, j in enumerate(row):
                extra.setdefault(tuple(row[:p] + row[p + 1:]), []).append(j)
    rows = []
    for t in itertools.combinations(range(m), n - 1):
        keep = np.ones(m, dtype=bool)
        keep[list(t) + extra.get(t, [])] = False
        if keep.any():
            rows.append(keep)
    return np.array(rows or [np.zeros(m, dtype=bool)]).reshape(-1, m)


@st.composite
def hyperplane_frames(draw):
    """n in 1..5, m from n - 1 to 2n + 4: Gaussian, a column repeated, a
    column the sum of two others, all columns but one in a hyperplane, or
    rank below n, where no n-subset spans."""
    kind = draw(st.sampled_from(["random", "duplicated", "sum_of_two", "coplanar", "low_rank"]))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(max(1, n - 1), 2 * n + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.standard_normal((n, m))
    if kind == "duplicated" and m >= 2:
        i, j = rng.choice(m, size=2, replace=False)
        mat[:, j] = mat[:, i]
    elif kind == "sum_of_two" and m >= 3:
        i, j, k = rng.choice(m, size=3, replace=False)
        mat[:, k] = mat[:, i] + mat[:, j]
    elif kind == "coplanar":
        mat[-1, : m - 1] = 0.0
    elif kind == "low_rank":
        mat = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, m))
    return mat


_WIDE = np.random.default_rng(270).standard_normal((2, 70))
_WIDE[:, 41] = _WIDE[:, 12]


class TestHyperplaneSets:
    @given(hyperplane_frames())
    @example(_WIDE)
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_tuple_map(self, mat):
        rows = np.concatenate(list(subsets.hyperplane_complements(mat)))
        assert _same_bits(rows, _hyperplane_rows_dict(mat))

    def test_exact_omega_memory_is_capped(self):
        """20 columns, 19 in one hyperplane: the rank verdicts of all
        C(20, 7) n-subsets stay one bit each, and only chunks come on top."""
        mat = np.random.default_rng(720).standard_normal((7, 20))
        mat[-1, :19] = 0.0
        mat /= np.linalg.norm(mat, axis=0)
        tracemalloc.start()
        try:
            value, witness, _ = omega(Frame(mat), mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (value, witness.bits) == (0.0, 1 << 19)
        assert peak < 2 * subsets.CHUNK_BYTES

    def test_one_rank_pass(self, monkeypatch):
        """Columns 2, 10 and 11 lie in a plane, so the first deficient
        4-subset is (0, 2, 10, 11), the 81st in combinations order: full
        spark stops after the second chunk, and the hyperplane sets rank
        each of the C(12, 4) = 495 n-subsets once, in one pass."""
        mat = np.random.default_rng(412).standard_normal((4, 12))
        mat[:, 11] = mat[:, 2] - 0.5 * mat[:, 10]
        passes, ranked = [], []
        deficient, full_rank = subsets._deficient, subsets.full_rank
        monkeypatch.setattr(subsets, "_deficient", lambda a: passes.append(1) or deficient(a))
        monkeypatch.setattr(subsets, "full_rank",
                            lambda a, idx, floor: ranked.append(len(idx)) or full_rank(a, idx, floor))
        ok, witness = full_spark(Frame(mat))
        assert not ok and tuple(witness.indices()) == (0, 2, 10, 11)
        assert (len(passes), ranked) == (1, [subsets.FIRST_CHUNK, 2 * subsets.FIRST_CHUNK])
        passes.clear()
        ranked.clear()
        for _ in subsets.hyperplane_complements(mat):
            pass
        assert len(passes) == 1 and sum(ranked) == math.comb(12, 4)


def _fixture(name):
    with resources.as_file(resources.files("phasestab.fixtures") / f"{name}.json") as path:
        return load_frame(str(path)).matrix


def _starts_loop(mat):
    """a0's structured starts one (n-1)-subset at a time: the last right
    singular vector of the full SVD of F_S^T."""
    n, m = mat.shape
    rows = (list(S) for S in itertools.combinations(range(m), n - 1))
    starts = [np.linalg.svd(mat[:, cols].T, full_matrices=True)[2][-1] for cols in rows]
    return np.array(starts).reshape(-1, n)


def _lower_bound_loop(mat, bits):
    """A[S] = lambda_min(F_S F_S^T) of one subset by `eigvalsh`, clamped at 0
    above the roundoff floor -EIG_CLAMP_RTOL * lambda_max; 0 for fewer than
    n columns, which never span."""
    cols = list(indices(bits, mat.shape[1]))
    if len(cols) < mat.shape[0]:
        return 0.0
    evals = np.linalg.eigvalsh(mat[:, cols] @ mat[:, cols].T)
    scale = float(evals[-1]) if evals[-1] > 0 else 1.0
    lower = float(evals[0])
    if lower < 0:
        if lower < -frame_core.EIG_CLAMP_RTOL * scale:
            raise ConvergenceError("Gram matrix eigenvalue below roundoff floor")
        lower = 0.0
    return lower


def _eigvalsh_below_floor(monkeypatch):
    """Patch eigvalsh to shift each spectrum down by 1e-9 lambda_max, which
    takes a rank-deficient Gram's lambda_min below the roundoff floor."""
    eigvalsh = np.linalg.eigvalsh

    def shifted(grams):
        lam = eigvalsh(grams)
        return lam - 1e-9 * lam[..., -1:]

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)


def _delta_sampled_loop(mat, budget, seed):
    """Sampled Delta scoring one candidate and one flip at a time."""
    n, m = mat.shape
    full = (1 << m) - 1
    rng = np.random.default_rng(np.random.Philox(key=[seed, 0xDE_17A]))

    def value(bits):
        return _lower_bound_loop(mat, bits) + _lower_bound_loop(mat, full ^ bits)

    candidates = {0}
    candidates.update(1 << i for i in range(m))
    for _ in range(budget // 4):
        size = int(rng.integers(max(1, n - 1), n + 1))
        idx = rng.choice(m, size=min(size, m), replace=False)
        bits = 0
        for i in idx:
            bits |= 1 << int(i)
        candidates.add(full ^ bits)
    for _ in range(2 * budget):
        if len(candidates) >= budget:
            break
        bits = 0
        for i in np.nonzero(rng.random(m) < 0.5)[0]:
            bits |= 1 << int(i)
        candidates.add(bits)

    best_bits, best_val = None, np.inf
    for bits in sorted(candidates):
        v = value(bits)
        if v < best_val or best_bits is None:
            best_bits, best_val = bits, v
    for _ in range(20):
        improved = False
        for i in range(m):
            cand = best_bits ^ (1 << i)
            v = value(cand)
            if v < best_val:
                best_bits, best_val, improved = cand, v, True
        if not improved:
            break
    return float(np.sqrt(best_val)), best_bits


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def start_frames(draw):
    """n in 2..4, m from n + 1 to 15, Gaussian or with one to three columns
    repeated up to a scale."""
    n = draw(st.integers(2, 4))
    m = draw(st.sampled_from([n + 1, 7, 11, 12, 13, 15]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.standard_normal((n, m))
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.choice(m, size=2, replace=False)
        mat[:, j] = draw(st.sampled_from([1.0, -1.0, 2.5])) * mat[:, i]
    return mat


class TestEngineAgainstLoops:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_structured_starts_on_fixtures(self, name):
        mat = _fixture(name)
        assert _same_bits(subsets.kernel_starts(mat), _starts_loop(mat))

    @given(start_frames())
    @settings(max_examples=25, deadline=None)
    def test_structured_starts_bit_identical(self, mat):
        assert _same_bits(subsets.kernel_starts(mat), _starts_loop(mat))

    def test_a0_makes_no_rank_call(self, monkeypatch):
        calls = []
        original = frame_core.matrix_rank

        def counted(mat):
            calls.append(1)
            return original(mat)

        for module in (frame_core, injectivity, robustness):
            monkeypatch.setattr(module, "matrix_rank", counted)
        a0(Frame(_fixture("gauss_4x11")))
        assert calls == []

    @pytest.mark.parametrize("name", FIXTURES)
    def test_sampled_delta_on_fixtures(self, name):
        mat = _fixture(name)
        value, witness, exact = delta(Frame(mat), mode="sampled", budget=32, seed=1)
        assert not exact
        assert (value, witness.bits) == _delta_sampled_loop(mat, 32, 1)

    @given(frames(), st.sampled_from([8, 40, 128]), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_sampled_delta_bit_identical(self, case, budget, seed):
        _, mat = case
        value, witness, _ = delta(Frame(mat), mode="sampled", budget=budget, seed=seed)
        assert (value, witness.bits) == _delta_sampled_loop(mat, budget, seed)

    def test_sampled_delta_wide_frame(self):
        # m = 72: bitmasks beyond int64, scored as membership rows
        mat = np.random.default_rng(72).standard_normal((8, 72)) / math.sqrt(8)
        value, witness, _ = delta(Frame(mat), mode="sampled", budget=64, seed=2)
        assert (value, witness.bits) == _delta_sampled_loop(mat, 64, 2)

    def test_roundoff_floor_raises(self, monkeypatch):
        # columns e1, e1: the side {0, 1} has a rank-one Gram
        _eigvalsh_below_floor(monkeypatch)
        with pytest.raises(ConvergenceError):
            subsets.partition_bounds(np.array([[1.0, 1.0], [0.0, 0.0]]), [0])

    @pytest.mark.parametrize("kernel", [omega, delta])
    def test_exact_kernels_share_the_roundoff_floor(self, kernel, monkeypatch):
        # columns e1, e1, e2: omega's candidate {0, 1} and Delta's side
        # {0, 1} have rank-one Grams
        _eigvalsh_below_floor(monkeypatch)
        with pytest.raises(ConvergenceError):
            kernel(Frame(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])), mode="exact")
