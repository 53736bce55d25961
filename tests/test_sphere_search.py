"""The lockstep multi-start searches of a0 and Lambda_F against the
one-start-at-a-time loops they replaced, which are kept here as references
(a0's under the same merge rule for starts that reach one point): values
and argmins must be bit-identical."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasestab import (
    A0Config, Frame, a0, gram, injectivity, lambdaF, load_frame, r_matrix, subsets, sym_eig,
)
from phasestab.cli import FIXTURES
from phasestab.injectivity import A0_MERGE_TOL, A0_TOL, SPEC_ROWS
from phasestab.robustness import LAMBDA_MAX_ITERS, LAMBDA_RESTARTS

CONFIGS = [A0Config(), A0Config(restarts=8, max_iters=60), A0Config(seed=7)]


def _fixture(name):
    return load_frame(str(resources.files("phasestab.fixtures") / f"{name}.json"))


def _lambda_min_r_loop(frame, x):
    evals, evecs = sym_eig(r_matrix(frame, x))
    return float(max(evals[-1], 0.0)), evecs[:, -1]


def _a0_polish_loop(frame, x, val, u, max_iters, log):
    """One start's projected gradient polish; log gets each backtracking
    round's passing halving (0 for the first t) or 40 when no t passed."""
    mat, ones = frame.matrix, np.ones(frame.count)
    step = 1.0
    for _ in range(max_iters):
        g = 2.0 * (mat * ((mat.T @ x) * (mat.T @ u) ** 2)) @ ones
        rgrad = g - np.dot(g, x) * x
        gnorm = np.linalg.norm(rgrad)
        if gnorm < A0_TOL:
            break
        t = step
        for j in range(40):
            cand = x - t * rgrad
            cand /= np.linalg.norm(cand)
            cand_val, cand_u = _lambda_min_r_loop(frame, cand)
            if cand_val < val - 0.25 * t * gnorm**2:
                x, val, u = cand, cand_val, cand_u
                step = min(t * 2.0, 1.0)
                break
            t *= 0.5
        else:
            j = 40
        log.append(j)
        if j == 40:
            break
    return val, x, u


def _a0_descent_loop(frame, x0, cfg, kept, logs=None):
    """One start's alternation, then its polish unless its (x, u) lies
    within A0_MERGE_TOL of a point in kept, up to sign; a polished start
    appends its post-alternation (x, u) to kept, and its halving log to
    logs when given."""
    x = x0 / np.linalg.norm(x0)
    mat = frame.matrix
    val, u = _lambda_min_r_loop(frame, x)
    for _ in range(50):
        w = (mat.T @ u) ** 2
        evals, evecs = sym_eig((mat * w) @ mat.T)
        x_new = evecs[:, -1]
        new_val, u_new = _lambda_min_r_loop(frame, x_new)
        if new_val > val - A0_TOL:
            break
        x, u, val = x_new, u_new, new_val
    for kept_x, kept_u in kept:
        if 1.0 - abs(np.dot(x, kept_x)) < A0_MERGE_TOL and 1.0 - abs(np.dot(u, kept_u)) < A0_MERGE_TOL:
            return val, x, u
    kept.append((x, u))
    log = []
    if logs is not None:
        logs.append(log)
    return _a0_polish_loop(frame, x, val, u, cfg.max_iters, log)


def _a0_loop(frame, cfg, logs=None):
    """a0 for n >= 3 one start at a time; also returns the final value of
    every start it ran.  logs, when given, gets each polished start's
    halving log."""
    rng = np.random.default_rng(np.random.Philox(key=[cfg.seed, 0x61_30]))
    starts = list(np.eye(frame.dim))
    starts.extend(subsets.kernel_starts(frame.matrix))
    evals, evecs = sym_eig(gram(frame))
    starts.append(evecs[:, -1])
    for _ in range(cfg.restarts):
        starts.append(rng.standard_normal(frame.dim))
    best, ran, kept = None, [], []
    for x0 in starts:
        if np.linalg.norm(x0) == 0:
            continue
        val, x, u = _a0_descent_loop(frame, x0, cfg, kept, logs)
        ran.append(val)
        if best is None or val < best[0]:
            best = (val, x, u)
        if best[0] == 0.0:
            break
    return best, ran


def _quartic_sum(frame, x):
    return float(np.sum((frame.matrix.T @ x) ** 4))


def _lambdaF_loop(frame):
    """Lambda_F one start at a time: each start's power iteration keeps a
    step only where the quartic sum rises strictly."""
    mat, n = frame.matrix, frame.dim
    rng = np.random.default_rng(np.random.Philox(key=[0, 0x1A_4F]))
    starts = list(np.eye(n)) + [mat[:, j] for j in range(frame.count)]
    starts += [rng.standard_normal(n) for _ in range(LAMBDA_RESTARTS)]
    best_val, x_star = -np.inf, None
    for x0 in starts:
        norm = np.linalg.norm(x0)
        if norm == 0:
            continue
        x = x0 / norm
        val = _quartic_sum(frame, x)
        for _ in range(LAMBDA_MAX_ITERS):
            if val == 0:
                break
            g = mat @ ((mat.T @ x) ** 3)
            cand = g / np.linalg.norm(g)
            cand_val = _quartic_sum(frame, cand)
            if not cand_val > val:
                break
            x, val = cand, cand_val
        if val > best_val:
            best_val, x_star = val, x
    return float(best_val ** 0.25), x_star


def _assert_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        else:
            assert type(g) is type(w) and np.float64(g).tobytes() == np.float64(w).tobytes()


def _assert_same_as_loops(frame, cfg):
    if frame.dim >= 3:
        _assert_bits(a0(frame, cfg), _a0_loop(frame, cfg)[0])
        _assert_bits(lambdaF(frame), _lambdaF_loop(frame))
    else:
        # n = 2: the closed forms pick x; a0's value and u come from one
        # stacked solve, Lambda_F's value from the quartic sum at x
        val, x_star, u_star = a0(frame, cfg)
        _assert_bits((val, u_star), _lambda_min_r_loop(frame, x_star))
        lam, x_lam = lambdaF(frame)
        _assert_bits((lam,), (_quartic_sum(frame, x_lam) ** 0.25,))


@st.composite
def frames(draw):
    """n = 3..5 frames with unit or plain Gaussian columns, a repeated
    column, or m < 2n - 1 columns (a0 = 0)."""
    kind = draw(st.sampled_from(["unit", "plain", "duplicated", "short"]))
    n = draw(st.integers(3, 5))
    if kind == "short":
        m = draw(st.integers(n, 2 * n - 2))
    else:
        m = draw(st.integers(2 * n - 1, 2 * n - 1 if n == 5 else 2 * n + 1))
    mat = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, m))
    if kind == "unit":
        mat /= np.linalg.norm(mat, axis=0)
    elif kind == "duplicated":
        mat[:, -1] = draw(st.sampled_from([1.0, -1.0, 2.5])) * mat[:, 0]
    return Frame(mat)


class TestLockstepMatchesLoops:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "small", "seed7"])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name, cfg):
        _assert_same_as_loops(_fixture(name), cfg)

    @given(frames(), st.sampled_from(CONFIGS))
    @settings(max_examples=12, deadline=None)
    def test_random_frames(self, frame, cfg):
        _assert_same_as_loops(frame, cfg)

    def test_lambdaF_start_with_zero_sum_stays(self):
        # e_3 is orthogonal to every column: its quartic sum is 0 and
        # F (F^T e_3)^3 = 0, so it takes no step
        mat = np.random.default_rng(3).standard_normal((3, 5))
        mat[2] = 0.0
        frame = Frame(mat)
        _assert_bits(lambdaF(frame), _lambdaF_loop(frame))

    def test_later_start_at_zero_retires_the_rest(self):
        # start 1 (a kernel vector) descends to 0 while start 0 ends at
        # 1.8e-15: start 0 must run to its end, and the starts after 1, which
        # the loop never ran, must not count
        frame = Frame(np.random.default_rng(4).standard_normal((3, 4)))
        cfg = CONFIGS[1]
        best, ran = _a0_loop(frame, cfg)
        assert len(ran) == 2 and ran[0] > 0.0 and ran[1] == 0.0
        _assert_bits(a0(frame, cfg), best)


def _passes_inside_later_blocks(logs):
    """How many passes the lockstep finds inside a speculative block after
    the first one of its round, past the block's first t, given every
    start's halving log: round r backtracks the starts with more than r
    logged rounds, first over one t, then in blocks of
    max(1, SPEC_ROWS // rows left) halvings."""
    count = 0
    for r in range(max(map(len, logs))):
        todo = [log[r] for log in logs if len(log) > r]
        tried, block = 0, 0
        while todo and tried < 40:
            k = 1 if tried == 0 else min(40 - tried, max(1, SPEC_ROWS // len(todo)))
            if block >= 2:
                count += sum(tried < j < tried + k for j in todo)
            todo = [j for j in todo if j >= tried + k]
            tried, block = tried + k, block + 1
    return count


class TestSpeculativeHalvings:
    """After a round's first t, the rows of a0's polish still backtracking
    try several halvings per call; each row must still take its first
    passing t."""

    def test_start_that_fails_every_halving(self):
        frame = _fixture("gauss_4x11")
        logs = []
        _a0_loop(frame, CONFIGS[0], logs)
        assert any(40 in log for log in logs)
        _assert_same_as_loops(frame, CONFIGS[0])

    def test_pass_inside_a_later_speculative_block(self):
        frame = Frame(np.random.default_rng(1).standard_normal((3, 5)))
        logs = []
        _a0_loop(frame, CONFIGS[0], logs)
        assert _passes_inside_later_blocks(logs) > 0
        _assert_same_as_loops(frame, CONFIGS[0])

    @pytest.mark.parametrize("spec_rows", [1, 3, 10_000])
    def test_any_row_cap(self, spec_rows, monkeypatch):
        # one halving per call (the serial schedule), small blocks, and every
        # halving left in one block
        monkeypatch.setattr(injectivity, "SPEC_ROWS", spec_rows)
        _assert_same_as_loops(_fixture("gauss_4x11"), CONFIGS[1])


class TestChunkedStarts:
    """a0 runs its starts in chunks of about subsets.CHUNK_BYTES of stacked
    (n, m) arrays, in order; shrunk chunks must not change any bit."""

    @pytest.mark.parametrize("name, starts_per_chunk", [("basis3", 1), ("gauss_4x11", 7)])
    def test_fixtures(self, name, starts_per_chunk, monkeypatch):
        frame = _fixture(name)
        want = _a0_loop(frame, CONFIGS[1])[0]
        monkeypatch.setattr(subsets, "CHUNK_BYTES", 8 * frame.dim * frame.count * starts_per_chunk)
        _assert_bits(a0(frame, CONFIGS[1]), want)

    @given(frames())
    @settings(max_examples=5, deadline=None)
    def test_random_frames(self, frame):
        want = _a0_loop(frame, CONFIGS[1])[0]
        saved = subsets.CHUNK_BYTES
        subsets.CHUNK_BYTES = 8 * frame.dim * frame.count * 2
        try:
            _assert_bits(a0(frame, CONFIGS[1]), want)
        finally:
            subsets.CHUNK_BYTES = saved

    def test_stacks_stay_within_chunk_or_row_cap(self, monkeypatch):
        frame = _fixture("gauss_4x11")
        chunk_rows = 7
        monkeypatch.setattr(subsets, "CHUNK_BYTES", 8 * frame.dim * frame.count * chunk_rows)
        sizes = []
        solve = injectivity._lambda_min_r

        def spy(mat, xs):
            sizes.append(len(xs))
            return solve(mat, xs)

        monkeypatch.setattr(injectivity, "_lambda_min_r", spy)
        _assert_bits(a0(frame, CONFIGS[1]), _a0_loop(frame, CONFIGS[1])[0])
        assert chunk_rows < max(sizes) <= max(chunk_rows, SPEC_ROWS)

    def test_zero_skips_later_chunks(self, monkeypatch):
        # one start per chunk: start 1 reaches 0, so no chunk after it runs
        frame = Frame(np.random.default_rng(4).standard_normal((3, 4)))
        monkeypatch.setattr(subsets, "CHUNK_BYTES", 8 * frame.dim * frame.count)
        chunks = []
        lockstep = injectivity._a0_lockstep

        def spy(mat, xs, max_iters, kept):
            chunks.append(len(xs))
            return lockstep(mat, xs, max_iters, kept)

        monkeypatch.setattr(injectivity, "_a0_lockstep", spy)
        _assert_bits(a0(frame, CONFIGS[1]), _a0_loop(frame, CONFIGS[1])[0])
        assert chunks == [1, 1]


def _polished_starts(monkeypatch):
    """Spy on a0's polish: the list it returns gets the number of live
    starts at the start of each `_a0_polish` call."""
    counts = []
    polish = injectivity._a0_polish

    def spy(mat, xs, vals, us, live, max_iters):
        counts.append(int(live.sum()))
        return polish(mat, xs, vals, us, live, max_iters)

    monkeypatch.setattr(injectivity, "_a0_polish", spy)
    return counts


class TestMergedBasins:
    """Starts that the alternation brings to one (x, u), up to sign, share
    one polish; the others keep their alternation value."""

    def test_polish_runs_one_start_per_basin(self, monkeypatch):
        # 234 starts on gauss_4x11, which the alternation brings to 6 points
        counts = _polished_starts(monkeypatch)
        a0(_fixture("gauss_4x11"), A0Config())
        assert len(counts) == 1 and 0 < counts[0] <= 6

    def test_merge_crosses_chunks(self, monkeypatch):
        frame = _fixture("gauss_4x11")
        counts = _polished_starts(monkeypatch)
        want = a0(frame, CONFIGS[1])
        polished = counts.pop()
        monkeypatch.setattr(subsets, "CHUNK_BYTES", 8 * frame.dim * frame.count)
        _assert_bits(a0(frame, CONFIGS[1]), want)
        # one start per chunk: the chunks whose start reaches an earlier
        # chunk's point polish nothing, and the same starts are polished
        assert len(counts) > sum(counts) == polished

    def test_repeated_start_in_a_later_chunk_keeps_its_value(self):
        frame = _fixture("gauss_4x11")
        x0 = np.random.default_rng(3).standard_normal((1, frame.dim))
        x0 /= np.linalg.norm(x0)
        kept = []
        first = injectivity._a0_lockstep(frame.matrix, x0.copy(), 60, kept)
        again = injectivity._a0_lockstep(frame.matrix, x0.copy(), 60, kept)
        assert len(kept) == 1
        # the repeat stops at the kept post-alternation point, with
        # lambda_min(R(x)) there, which the first run's polish lowered
        np.testing.assert_array_equal(again[1][0], kept[0][0])
        np.testing.assert_array_equal(again[2][0], kept[0][1])
        assert again[0][0] == _lambda_min_r_loop(frame, kept[0][0])[0] >= first[0][0]
