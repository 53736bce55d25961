import math
from importlib import resources

import numpy as np
import pytest

import oracles
from phasestab import (
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
            starts.append(np.array(x0))
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
            res = estimation.minimize(frame, y, scale * rng.standard_normal(3))
            fallbacks += res.gauss_newton_steps > 0
            assert 0 < res.iterations < estimation.LS_MAX_ITERS
            assert res.fun == pytest.approx(objective(frame, res.x, y), rel=1e-9, abs=1e-30)
            assert res.fun < 1e-20
            assert dist_d(res.x, x) < 1e-10
        assert fallbacks >= 1

    def test_stationary_start_returns_at_once(self):
        y = simulate_measurements(MB3, np.array([0.6, 0.8]), None, seed=0)
        res = estimation.minimize(MB3, y, np.zeros(2))
        assert res.iterations == 0
        assert res.fun == float(y @ y)

    def test_line_min_is_lowest_point_on_each_line(self):
        rng = np.random.default_rng(9)
        frame = unit_frame(rng, 3, 6)
        y = np.abs(rng.standard_normal(6))
        grid = np.linspace(-6.0, 6.0, 24001)
        for _ in range(50):
            x = rng.standard_normal(3)
            dirs = rng.standard_normal((2, 3))
            c = x @ frame.matrix
            t, j = estimation._line_min(frame.matrix, c, c * c - y, dirs)
            best = objective(frame, x + t * dirs[j], y)
            points = x + grid[:, None, None] * dirs          # (grid, line, n)
            resid = (points @ frame.matrix) ** 2 - y
            dense = float(np.min(np.sum(resid**2, axis=-1)))
            assert best <= dense + 1e-12 * max(dense, 1.0)

    def test_cubic_roots_match_numpy(self):
        rng = np.random.default_rng(10)
        for _ in range(2000):
            a, b, c = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 3, 3)
            ref = np.roots([1.0, a, b, c])
            ref = np.sort(ref[np.abs(ref.imag) < 1e-6 * np.maximum(1.0, np.abs(ref))].real)
            got = np.sort(estimation._cubic_roots(a, b, c))
            if len(got) != len(ref):   # a near-double root, split differently
                continue
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_cubic_roots_near_convergence(self, eps):
        # the line-search cubic of a short Newton step: one root near t = 1,
        # the others of size 1/eps, where the closed form loses the small one
        k1, k2, k3, k4 = -2.0, 1.0, eps, eps**2
        roots = estimation._cubic_roots(0.75 * k3 / k4, 0.5 * k2 / k4, 0.25 * k1 / k4)
        small = min(roots, key=abs)
        assert abs(small - 1.0) < 10 * eps
        assert abs(((4 * k4 * small + 3 * k3) * small + 2 * k2) * small + k1) < 1e-13

    def test_cho_solve_rejects_indefinite(self):
        h = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        b = [1.0, -2.0, 0.5]
        got = estimation._cho_solve(h.tolist(), b)
        np.testing.assert_allclose(got, np.linalg.solve(h, b), rtol=1e-14)
        assert estimation._cho_solve((-h).tolist(), b) is None
        assert estimation._cho_solve([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0]) is None


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

    def test_per_trial_rows(self):
        run = mse_monte_carlo(MB3, np.array([1.0, 0.0]), sigma=0.01, trials=20, seed=2)
        assert len(run.per_trial) == 20
        ds = [row[2] for row in run.per_trial]
        assert run.mse == pytest.approx(np.mean(np.square(ds)), rel=1e-12)
