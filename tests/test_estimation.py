import json
import math
from importlib import resources

import numpy as np
import pytest

import oracles
from phasestab import (
    DimensionMismatchError,
    Frame,
    LSConfig,
    NoiseModel,
    SingularFisherError,
    ValidationError,
    analysis_map_sq,
    canonicalize,
    crlb,
    dist_d,
    estimation,
    fisher_empirical,
    fisher_info,
    ls_estimate,
    mercedes_benz_frame,
    mse_monte_carlo,
    simulate_measurements,
    standard_basis_frame,
)
from phasestab.cli import main
from phasestab.frame_core import load_frame

MB3 = mercedes_benz_frame()


def fixture_frame(name):
    return load_frame(str(resources.files("phasestab.fixtures") / f"{name}.json"))


def unit_frame(rng, n, m):
    mat = rng.standard_normal((n, m))
    return Frame(mat / np.linalg.norm(mat, axis=0))


def objective(frame, x, y):
    r = analysis_map_sq(frame, x) - y
    return float(r @ r)


class TestCanonicalize:
    def test_first_nonzero_positive(self):
        x = np.array([-0.3, 0.5])
        np.testing.assert_allclose(canonicalize(x), -x)
        np.testing.assert_allclose(canonicalize(-x), -x)
        y = np.array([0.0, -2.0, 1.0])
        assert canonicalize(y)[1] > 0

    def test_idempotent_and_sign_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(4)
            c = canonicalize(x)
            np.testing.assert_allclose(canonicalize(c), c)
            np.testing.assert_allclose(canonicalize(-x), c)


class TestSimulate:
    def test_noiseless_matches_map(self):
        x = np.array([0.6, 0.8])
        y = simulate_measurements(MB3, x, None, seed=0)
        np.testing.assert_allclose(y, analysis_map_sq(MB3, x), atol=1e-15)

    def test_reproducible_by_seed_and_trial(self):
        x = np.array([0.6, 0.8])
        nm = NoiseModel(sigma=0.1)
        y1 = simulate_measurements(MB3, x, nm, seed=3, trial=5)
        y2 = simulate_measurements(MB3, x, nm, seed=3, trial=5)
        y3 = simulate_measurements(MB3, x, nm, seed=3, trial=6)
        np.testing.assert_array_equal(y1, y2)
        assert not np.array_equal(y1, y3)

    def test_noise_scale(self):
        x = np.array([1.0, 0.0])
        nm = NoiseModel(sigma=0.05)
        devs = [
            simulate_measurements(MB3, x, nm, seed=s) - analysis_map_sq(MB3, x)
            for s in range(400)
        ]
        sd = np.std(np.concatenate(devs))
        assert sd == pytest.approx(0.05, rel=0.15)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValidationError):
            NoiseModel(sigma=0.0)


class TestFisher:
    def test_closed_form_mercedes_benz(self):
        # I(x) = (4/sigma^2) R(x); R(e1) = diag(9/8, 3/8), so 400 R has
        # eigenvalues 150 and 450
        info = fisher_info(MB3, np.array([1.0, 0.0]), sigma=0.1)
        np.testing.assert_allclose(
            info, 400.0 * oracles.r_matrix_naive(MB3.matrix, np.array([1.0, 0.0])),
            atol=1e-9,
        )
        vals = sorted(np.linalg.eigvalsh(info))
        assert vals[0] == pytest.approx(150.0, rel=1e-12)
        assert vals[1] == pytest.approx(450.0, rel=1e-12)

    def test_empirical_matches_analytic(self):
        x = np.array([0.6, 0.8])
        sigma = 0.1
        analytic = fisher_info(MB3, x, sigma)
        empirical = fisher_empirical(MB3, x, sigma, trials=200_000, seed=4)
        err = np.linalg.norm(empirical - analytic) / np.linalg.norm(analytic)
        assert err < 0.02

    def test_crlb_values(self):
        x = np.array([0.6, 0.8])
        out = crlb(MB3, x, sigma=0.1)
        # R(x) has eigenvalues {0.375, 1.125} on the unit circle for MB3
        assert out["trace"] == pytest.approx(
            (0.01 / 4.0) * (1.0 / 0.375 + 1.0 / 1.125), rel=1e-9
        )
        assert out["mse_upper"] == pytest.approx(
            2 * 0.01 / (4.0 * 0.375), rel=1e-6
        )
        assert out["trace"] <= out["mse_upper"] + 1e-12

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_checked_alike(self, sigma):
        x = np.array([0.6, 0.8])
        calls = (
            lambda: NoiseModel(sigma),
            lambda: fisher_info(MB3, x, sigma),
            lambda: fisher_empirical(MB3, x, sigma, trials=10, seed=0),
        )
        for call in calls:
            with pytest.raises(ValidationError, match=f"sigma must be .*, got {sigma!r}"):
                call()

    def test_singular_fisher_raises(self):
        # standard basis in R^2: R(e1) is rank one
        with pytest.raises(SingularFisherError):
            crlb(standard_basis_frame(2), np.array([1.0, 0.0]), sigma=0.1)


class TestLSEstimate:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(12)
        fr = Frame(rng.standard_normal((3, 7)))
        for _ in range(5):
            x = canonicalize(rng.standard_normal(3))
            y = simulate_measurements(fr, x, None, seed=0)
            xhat = ls_estimate(fr, y)
            assert dist_d(xhat, x) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurements_rejected(self, bad):
        with pytest.raises(ValidationError, match="measurements must be finite"):
            ls_estimate(MB3, np.array([1.0, bad, 0.5]))

    def test_seed_is_an_integer(self):
        # row seeds are built from the seed before any stream is keyed
        y = simulate_measurements(MB3, np.array([0.6, 0.8]), None, seed=0)
        with pytest.raises(ValidationError, match="seed must be an integer, got 2.5"):
            ls_estimate(MB3, np.stack([y, y]), LSConfig(restarts=2, seed=2.5))
        narrow = ls_estimate(MB3, np.stack([y, y]), LSConfig(restarts=2, seed=np.int8(3)))
        assert np.array_equal(narrow, ls_estimate(MB3, np.stack([y, y]), LSConfig(restarts=2, seed=3)))

    def test_returns_canonical_representative(self):
        y = simulate_measurements(MB3, np.array([0.6, 0.8]), None, seed=0)
        xhat = ls_estimate(MB3, y)
        np.testing.assert_allclose(canonicalize(xhat), xhat, atol=0)


class TestLSSolver:
    """`estimation.minimize` against the estimator's former scipy L-BFGS-B
    solver (`oracles.lbfgs_least_squares`), run from the same starts."""

    @staticmethod
    def run_both(frame, y, cfg, monkeypatch):
        starts = []
        solver = estimation.minimize

        def recording(frame, y, x0):
            # ls_estimate passes a 1-D y on as a one-row stack
            starts.append(np.array(x0).reshape(frame.dim))
            return solver(frame, y, x0)

        monkeypatch.setattr(estimation, "minimize", recording)
        xhat = ls_estimate(frame, y, cfg)
        monkeypatch.setattr(estimation, "minimize", solver)
        assert len(starts) == cfg.restarts
        ref, ref_val = oracles.lbfgs_least_squares(frame.matrix, y, starts)
        return xhat, objective(frame, xhat, y), ref, ref_val

    def test_matches_lbfgs_on_well_posed_frames(self, monkeypatch):
        # with the default 32 starts both find the global minimum; with the
        # 4 of `simulate` either may miss it, on these frames too
        rng = np.random.default_rng(31)
        frames = [MB3, fixture_frame("gauss_4x11")]
        frames += [unit_frame(rng, n, m) for n, m in [(2, 4), (3, 6), (3, 8), (4, 8), (5, 10)]]
        worst = 0.0
        for frame in frames:
            for sigma in (None, 0.01):
                for trial in range(5):
                    x = rng.standard_normal(frame.dim)
                    x /= np.linalg.norm(x)
                    noise = sigma and NoiseModel(sigma)
                    y = simulate_measurements(frame, x, noise, seed=4, trial=trial)
                    cfg = LSConfig(seed=trial)
                    xhat, _, ref, _ = self.run_both(frame, y, cfg, monkeypatch)
                    worst = max(worst, dist_d(xhat, ref))
        assert worst <= 1e-7

    def test_objective_no_worse_than_lbfgs_on_minimal_frames(self, monkeypatch):
        # 3 x 5 frames (m = 2n - 1) at sigma = 0.1 have several local minima
        # of similar height, and the two solvers often end in different ones
        lower = higher = 0
        for k in range(10):
            rng = np.random.default_rng([2013, k])
            frame = unit_frame(rng, 3, 5)
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            for trial in range(100):
                y = simulate_measurements(frame, x, NoiseModel(0.1), seed=k, trial=trial)
                cfg = LSConfig(restarts=4, seed=trial)
                _, val, _, ref_val = self.run_both(frame, y, cfg, monkeypatch)
                lower += val < ref_val - 1e-10
                higher += val > ref_val + 1e-10
        assert lower >= higher

    def test_one_minimize_call_per_start(self, monkeypatch):
        calls = []
        solver = estimation.minimize
        monkeypatch.setattr(
            estimation, "minimize", lambda *args: calls.append(1) or solver(*args)
        )
        y = simulate_measurements(MB3, np.array([0.6, 0.8]), NoiseModel(0.1), seed=1)
        for restarts in (1, 4, 32):
            calls.clear()
            ls_estimate(MB3, y, LSConfig(restarts=restarts))
            assert len(calls) == restarts
        calls.clear()
        ls_estimate(MB3, y)
        assert len(calls) == LSConfig().restarts

    def test_gauss_newton_fallback(self):
        # some random starts reach a point whose Hessian 4 F diag(3c^2 - y) F^T
        # is not positive definite; there the Gauss-Newton line stands in
        # for the Newton line, and the start still recovers x
        rng = np.random.default_rng(8)
        frame = unit_frame(rng, 3, 7)
        x = canonicalize(rng.standard_normal(3))
        y = simulate_measurements(frame, x, None, seed=0)
        scale = math.sqrt(float(np.mean(y)))
        fallbacks = 0
        for _ in range(40):
            x_end, fun, iterations, gn_steps = (
                v[0] for v in estimation.minimize(frame, y[None], scale * rng.standard_normal((1, 3))))
            fallbacks += gn_steps > 0
            assert 0 < iterations < estimation.LS_MAX_ITERS
            # at f ~ 1e-30, f is rounding noise of F^T x: evaluate it in the
            # solver's order, a fixed-order sum over the n coordinates
            r = estimation._coeffs(frame.matrix, x_end) ** 2 - y
            assert fun == pytest.approx(float(np.sum(r * r)), rel=1e-9, abs=1e-30)
            assert fun < 1e-20
            assert dist_d(x_end, x) < 1e-10
        assert fallbacks >= 1

    def test_stationary_start_returns_at_once(self):
        y = simulate_measurements(MB3, np.array([0.6, 0.8]), None, seed=0)
        res = estimation.minimize(MB3, y[None], np.zeros((1, 2)))
        assert res.iterations.tolist() == [0]
        assert res.fun.tolist() == [float(y @ y)]

    @pytest.mark.parametrize("y_shape, x0_shape", [
        ((3,), (2,)), ((1, 3), (2,)), ((2, 3), (1, 2)), ((1, 4), (1, 2)), ((1, 3), (1, 3)),
    ])
    def test_minimize_takes_stacks_only(self, y_shape, x0_shape):
        with pytest.raises(DimensionMismatchError, match="minimize takes stacks"):
            estimation.minimize(MB3, np.ones(y_shape), np.ones(x0_shape))

    def test_line_min_is_lowest_point_on_each_line(self):
        rng = np.random.default_rng(9)
        frame = unit_frame(rng, 3, 6)
        y = np.abs(rng.standard_normal(6))
        grid = np.linspace(-6.0, 6.0, 24001)
        x = rng.standard_normal((50, 3))
        dirs = rng.standard_normal((50, 2, 3))
        c = x @ frame.matrix
        t, j = estimation._line_min(frame.matrix, c, c * c - y, dirs, np.ones((50, 2), bool))
        for i in range(50):
            best = objective(frame, x[i] + t[i] * dirs[i, j[i]], y)
            points = x[i] + grid[:, None, None] * dirs[i]    # (grid, line, n)
            resid = (points @ frame.matrix) ** 2 - y
            dense = float(np.min(np.sum(resid**2, axis=-1)))
            assert best <= dense + 1e-12 * max(dense, 1.0)

    def test_line_min_skips_invalid_lines(self):
        # a lane whose second line is masked searches the gradient line alone
        rng = np.random.default_rng(19)
        frame = unit_frame(rng, 3, 6)
        y = np.abs(rng.standard_normal(6))
        x = rng.standard_normal((20, 3))
        dirs = rng.standard_normal((20, 2, 3))
        c = x @ frame.matrix
        valid = np.ones((20, 2), bool)
        valid[::2, 1] = False
        t, j = estimation._line_min(frame.matrix, c, c * c - y, dirs, valid)
        alone, j_alone = estimation._line_min(
            frame.matrix, c[::2], (c * c - y)[::2], dirs[::2, :1], valid[::2, :1]
        )
        assert np.all(j[::2] == 0) and np.all(j_alone == 0)
        np.testing.assert_array_equal(t[::2], alone)

    def test_cubic_roots_match_numpy(self):
        rng = np.random.default_rng(10)
        coeffs = rng.standard_normal((2000, 3)) * 10.0 ** rng.uniform(-3, 3, (2000, 3))
        roots = estimation._cubic_roots(*coeffs.T)
        for (a, b, c), row in zip(coeffs, roots):
            ref = np.roots([1.0, a, b, c])
            ref = np.sort(ref[np.abs(ref.imag) < 1e-6 * np.maximum(1.0, np.abs(ref))].real)
            got = np.sort(row[~np.isnan(row)])
            if len(got) != len(ref):   # a near-double root, split differently
                continue
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(ref).max()))

    def test_cubic_roots_mixed_batch(self):
        # (t - 1)(t - 2)(t - 3) has three roots, t^3 + t + 1 one; in a mixed
        # batch each lane equals its own one-lane call
        coeffs = np.array([[-6.0, 11.0, -6.0], [1.0, 1.0, 1.0]] * 4)
        roots = estimation._cubic_roots(*coeffs.T)
        assert [int(np.sum(~np.isnan(row))) for row in roots] == [3, 1] * 4
        np.testing.assert_allclose(np.sort(roots[0]), [1.0, 2.0, 3.0], rtol=1e-14)
        for (a, b, c), row in zip(coeffs, roots):
            np.testing.assert_array_equal(estimation._cubic_roots(a, b, c), row)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_cubic_roots_near_convergence(self, eps):
        # the line-search cubic of a short Newton step: one root near t = 1,
        # the others of size 1/eps, where the closed form loses the small one
        k1, k2, k3, k4 = -2.0, 1.0, eps, eps**2
        coeffs = np.array([0.75 * k3 / k4, 0.5 * k2 / k4, 0.25 * k1 / k4])
        roots = estimation._cubic_roots(*coeffs)
        small = min(roots[~np.isnan(roots)], key=abs)
        assert abs(small - 1.0) < 10 * eps
        assert abs(((4 * k4 * small + 3 * k3) * small + 2 * k2) * small + k1) < 1e-13

    def test_cho_solve_rejects_indefinite(self):
        h = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        b = np.array([1.0, -2.0, 0.5])
        got, ok = estimation._cho_solve(h[None], b[None])
        assert ok[0]
        np.testing.assert_allclose(got[0], np.linalg.solve(h, b), rtol=1e-14)
        assert not estimation._cho_solve((-h)[None], b[None])[1][0]
        assert not estimation._cho_solve(np.array([[[1.0, 2.0], [2.0, 1.0]]]), np.ones((1, 2)))[1][0]

    def test_cho_solve_mixed_batch(self):
        # positive definite and indefinite lanes side by side: the flags
        # match eigvalsh, and each definite lane solves its own system
        rng = np.random.default_rng(11)
        a = rng.standard_normal((40, 4, 4))
        a = a @ np.swapaxes(a, 1, 2) - rng.uniform(0.0, 3.0, (40, 1, 1)) * np.eye(4)
        b = rng.standard_normal((40, 4))
        got, ok = estimation._cho_solve(a, b)
        definite = np.linalg.eigvalsh(a)[:, 0] > 0
        assert 0 < definite.sum() < 40
        np.testing.assert_array_equal(ok, definite)
        for i in np.flatnonzero(ok):
            np.testing.assert_allclose(got[i], np.linalg.solve(a[i], b[i]), rtol=1e-9)
            np.testing.assert_array_equal(got[i], estimation._cho_solve(a[i:i + 1], b[i:i + 1])[0][0])


class TestMSE:
    def test_matches_crlb_order(self):
        x = np.array([0.6, 0.8])
        run = mse_monte_carlo(MB3, x, sigma=0.01, trials=300, seed=7)
        ratio = run.mse / run.crlb_trace
        assert 0.7 <= ratio <= 3.0
        assert run.mse <= crlb(MB3, x, 0.01)["mse_upper"] * 3.0

    def test_reproducible(self):
        x = np.array([0.6, 0.8])
        r1 = mse_monte_carlo(MB3, x, sigma=0.01, trials=50, seed=9)
        r2 = mse_monte_carlo(MB3, x, sigma=0.01, trials=50, seed=9)
        assert r1.mse == r2.mse
        assert np.array_equal(r1.bias, r2.bias)

    @pytest.mark.parametrize("call, value", [
        (mse_monte_carlo, lambda run: run.mse), (fisher_empirical, lambda info: info),
    ], ids=["mse", "fisher"])
    def test_counts_and_seeds_are_integers(self, call, value):
        x = np.array([0.6, 0.8])
        for trials, seed, message in [
            (2.5, 0, "trials must be an integer, got 2.5"),
            (0, 0, "trials must be >= 1, got 0"),
            (5, 2.5, "seed must be an integer, got 2.5"),
        ]:
            with pytest.raises(ValidationError, match=message):
                call(MB3, x, 0.01, trials=trials, seed=seed)
        got = call(MB3, x, 0.01, trials=np.int64(5), seed=np.uint32(9))
        want = call(MB3, x, 0.01, trials=5, seed=9)
        assert np.array_equal(value(got), value(want))

    def test_per_trial_rows(self):
        run = mse_monte_carlo(MB3, np.array([1.0, 0.0]), sigma=0.01, trials=20, seed=2)
        assert len(run.per_trial) == 20
        ds = [row[2] for row in run.per_trial]
        assert run.mse == pytest.approx(np.mean(np.square(ds)), rel=1e-12)


def noisy_stack(frame, rows, sigma=0.05, seed=5):
    rng = np.random.default_rng([seed, frame.count])
    x = rng.standard_normal(frame.dim)
    x /= np.linalg.norm(x)
    return x, np.array([
        simulate_measurements(frame, x, NoiseModel(sigma), seed=seed, trial=t)
        for t in range(rows)
    ])


def same_result(a, b):
    return all(np.array_equal(u, v) for u, v in zip(a, b))


class TestBatched:
    """Stacked `minimize` and `ls_estimate` calls: one lockstep call per start,
    and every row solved as if alone."""

    FRAMES = {"mb3": lambda: MB3, "gauss_4x11": lambda: fixture_frame("gauss_4x11"),
              "unit_3x5": lambda: unit_frame(np.random.default_rng(35), 3, 5)}

    @pytest.mark.parametrize("trials", [1, 7, 200])
    def test_one_ls_estimate_call_and_one_minimize_call_per_start(self, trials, monkeypatch):
        calls = {"ls_estimate": 0, "minimize": 0}
        for name in calls:
            original = getattr(estimation, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(estimation, name, counting)
        for restarts in (4, 7):
            calls.update(ls_estimate=0, minimize=0)
            run = mse_monte_carlo(MB3, np.array([0.6, 0.8]), 0.05, trials, seed=3, restarts=restarts)
            assert len(run.per_trial) == trials
            assert calls == {"ls_estimate": 1, "minimize": restarts}

    def test_patched_ls_estimate_reaches_simulate_output(self, monkeypatch, capsys, tmp_path):
        # an estimator that always answers 0 puts d = ||x|| in every row
        monkeypatch.setattr(estimation, "ls_estimate",
                            lambda frame, y, cfg=None: np.zeros(np.shape(y)[:-1] + (frame.dim,)))
        csv = tmp_path / "t.csv"
        argv = ["simulate", "--fixture", "mb3", "--x", "0.6,0.8", "--sigma", "0.01",
                "--trials", "6", "--csv-out", str(csv)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mse"] == pytest.approx(1.0, rel=1e-15)
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert [float(r[2]) for r in rows] == pytest.approx([1.0] * 6, rel=1e-15)

    @pytest.mark.parametrize("name", sorted(FRAMES))
    @pytest.mark.parametrize("rows", [1, 7, 200])
    def test_minimize_lanes_equal_one_row_calls(self, name, rows):
        frame = self.FRAMES[name]()
        _, y = noisy_stack(frame, rows)
        x0 = np.random.default_rng(rows).standard_normal((rows, frame.dim))
        stacked = estimation.minimize(frame, y, x0)
        assert stacked.x.shape == (rows, frame.dim) and stacked.fun.shape == (rows,)
        for i in range(rows):
            alone = estimation.minimize(frame, y[i:i + 1], x0[i:i + 1])
            assert same_result(alone, [v[i:i + 1] for v in stacked]), i
        perm = np.random.default_rng(1).permutation(rows)
        shuffled = estimation.minimize(frame, y[perm], x0[perm])
        assert same_result(shuffled, [v[perm] for v in stacked])

    @pytest.mark.parametrize("name", sorted(FRAMES))
    @pytest.mark.parametrize("rows", [1, 7, 200])
    def test_ls_estimate_rows_equal_one_row_calls(self, name, rows):
        frame = self.FRAMES[name]()
        _, y = noisy_stack(frame, rows)
        cfg = LSConfig(restarts=4, seed=11)
        perm = np.random.default_rng(2).permutation(rows)
        for stack in (y, y[perm]):
            got = ls_estimate(frame, stack, cfg)
            assert got.shape == (rows, frame.dim)
            for i in range(rows):
                row_cfg = LSConfig(restarts=4, seed=estimation._row_seed(cfg.seed, i))
                np.testing.assert_array_equal(got[i], ls_estimate(frame, stack[i], row_cfg))

    def test_stack_spanning_several_chunks(self, monkeypatch):
        frame = fixture_frame("gauss_4x11")
        _, y = noisy_stack(frame, 40)
        cfg = LSConfig(restarts=3, seed=4)
        whole = ls_estimate(frame, y, cfg)
        x0 = np.random.default_rng(0).standard_normal((40, 4))
        whole_min = estimation.minimize(frame, y, x0)
        chunks = []
        row_chunks = estimation._row_chunks
        monkeypatch.setattr(estimation, "CHUNK_BYTES", 8 * 11 * 16 * 6)
        monkeypatch.setattr(estimation, "_row_chunks",
                            lambda *args: chunks.append(row_chunks(*args)) or chunks[-1])
        np.testing.assert_array_equal(ls_estimate(frame, y, cfg), whole)
        assert same_result(estimation.minimize(frame, y, x0), whole_min)
        assert min(len(c) for c in chunks) >= 5

    def test_simulate_rows_do_not_depend_on_trial_count(self, capsys, tmp_path):
        def rows(trials):
            csv = tmp_path / f"{trials}.csv"
            assert main(["simulate", "--fixture", "gauss_4x11", "--x", "1,0,0,0", "--sigma",
                         "0.05", "--trials", str(trials), "--seed", "3",
                         "--csv-out", str(csv)]) == 0
            capsys.readouterr()
            return csv.read_text().splitlines()

        assert rows(10) == rows(25)[:11]

    def test_zero_row_gives_zeros_for_that_row_only(self, monkeypatch):
        _, y = noisy_stack(MB3, 5)
        y[2] = 0.0
        cfg = LSConfig(restarts=4, seed=6)
        lanes = []
        solver = estimation.minimize
        monkeypatch.setattr(estimation, "minimize",
                            lambda frame, y, x0: lanes.append(len(y)) or solver(frame, y, x0))
        got = ls_estimate(MB3, y, cfg)
        assert lanes == [4] * 4
        assert np.array_equal(got[2], np.zeros(2))
        for i in (0, 1, 3, 4):
            row_cfg = LSConfig(restarts=4, seed=estimation._row_seed(cfg.seed, i))
            np.testing.assert_array_equal(got[i], ls_estimate(MB3, y[i], row_cfg))
        assert np.array_equal(ls_estimate(MB3, np.zeros((3, 3))), np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named(self, bad):
        _, y = noisy_stack(MB3, 6)
        y[3, 1] = bad
        with pytest.raises(ValidationError, match=r"measurements must be finite \(row 3\)"):
            ls_estimate(MB3, y)

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,) * 3, ()])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            ls_estimate(MB3, np.ones(shape))

    def test_canonicalize_rows(self):
        x = np.array([[0.0, -1.0, 2.0], [0.0, 0.0, 0.0], [3.0, -1.0, 0.0], [-0.0, 2.0, -1.0]])
        got = canonicalize(x)
        for row, want in zip(got, x):
            np.testing.assert_array_equal(row, canonicalize(want))
        np.testing.assert_array_equal(got[0], [0.0, 1.0, -2.0])
