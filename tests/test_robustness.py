import math
from importlib import resources

import numpy as np
import pytest

import oracles
from phasestab import (
    A0Config,
    BudgetExceededError,
    EnsembleSpec,
    Frame,
    FrameAnalysis,
    NotAFrameError,
    QepsConfig,
    SubsetMask,
    ValidationError,
    VerdictConflictError,
    analysis_map,
    complement_property,
    delta,
    delta_x,
    dist_d,
    eps0,
    frame_bounds,
    full_spark,
    gaussian_frame,
    lambdaF,
    lipschitz_constants,
    load_frame,
    mercedes_benz_frame,
    omega,
    omega_witness_point,
    q_eps_brackets,
    q_eps_estimate,
    standard_basis_frame,
    tau,
    u_ratio,
    u_ratios_batch,
    v_ratio,
    v_ratios_batch,
    worst_case_witness,
)
from phasestab import cli, injectivity, robustness, subsets
from phasestab.robustness import _line_maxima

MB3 = mercedes_benz_frame()
SQ2INV = math.sqrt(0.5)


def random_frame(n, m, seed):
    return Frame(np.random.default_rng(seed).standard_normal((n, m)))


def unit_frame(rng, n, m):
    mat = rng.standard_normal((n, m))
    return Frame(mat / np.linalg.norm(mat, axis=0))


def fixture(name):
    return load_frame(str(resources.files("phasestab.fixtures") / f"{name}.json"))


def gap(frame, x, y):
    """||alpha(x) - alpha(y)|| by `analysis_map`, independent of `robustness._feasible`."""
    return float(np.linalg.norm(analysis_map(frame, x) - analysis_map(frame, y)))


class TestSubsetConstants:
    def test_mercedes_benz_values(self):
        d, _, d_exact = delta(MB3)
        w, _, w_exact = omega(MB3)
        assert d == pytest.approx(SQ2INV, abs=1e-12)
        assert w == pytest.approx(SQ2INV, abs=1e-12)
        assert tau(MB3) == pytest.approx(SQ2INV, abs=1e-12)
        assert d_exact and w_exact

    def test_bruteforce_agreement(self):
        for seed in range(8):
            fr = random_frame(3, 6, seed + 300)
            d, mask, _ = delta(fr)
            assert d == pytest.approx(oracles.delta_bruteforce(fr.matrix), abs=1e-9)
            w, _, _ = omega(fr)
            assert w == pytest.approx(oracles.omega_bruteforce(fr.matrix), abs=1e-9)
            assert tau(fr) == pytest.approx(oracles.tau_bruteforce(fr.matrix), abs=1e-9)
            # the returned mask actually achieves the minimum
            sc = mask.complement()
            achieved = math.sqrt(
                oracles.subset_sigma_n(fr.matrix, mask.indices()) ** 2
                + oracles.subset_sigma_n(fr.matrix, sc.indices()) ** 2
            )
            assert achieved == pytest.approx(d, abs=1e-9)

    def test_degenerate_frame_delta_zero(self):
        d, mask, _ = delta(standard_basis_frame(2))
        assert d == 0.0

    def test_sampled_is_upper_bound(self):
        fr = random_frame(3, 10, 17)
        d_exact, _, _ = delta(fr)
        d_sampled, _, exact_flag = delta(fr, mode="sampled", budget=64, seed=1)
        assert not exact_flag
        assert d_sampled >= d_exact - 1e-12

    def test_omega_budget(self):
        # a repeated column kills full spark; the hyperplane sets still
        # number only C(40, 2), far from the 2^40 subsets
        mat = np.random.default_rng(9).standard_normal((3, 40))
        mat[:, 1] = mat[:, 0]
        value, witness, exact = omega(Frame(mat), mode="exact")
        ref = oracles.omega_hyperplanes_svd(mat)
        assert exact and abs(value - ref) <= oracles.gram_tol(mat, ref)
        assert not oracles.spans_svd(mat, witness.complement().indices())
        # C(40, 10) n-subsets exceed FULL_SPARK_BUDGET
        wide = Frame(np.random.default_rng(9).standard_normal((10, 40)))
        with pytest.raises(BudgetExceededError):
            omega(wide, mode="exact")
        with pytest.raises(BudgetExceededError):
            complement_property(wide)

    def test_sampled_omega_needs_budget(self):
        with pytest.raises(ValidationError):
            omega(MB3, mode="sampled", budget=0)

    def test_sampled_delta_needs_budget(self):
        with pytest.raises(ValidationError, match="budget must be >= 1, got 0"):
            delta(MB3, mode="sampled", budget=0)

    @pytest.mark.parametrize("kernel", [delta, omega])
    def test_sampled_budget_is_an_integer(self, kernel):
        with pytest.raises(ValidationError, match="budget must be an integer, got 2.5"):
            kernel(MB3, mode="sampled", budget=2.5)
        assert kernel(MB3, mode="sampled", budget=np.int64(8)) == kernel(MB3, mode="sampled", budget=8)

    def test_tau_needs_rank_n_subset(self):
        with pytest.raises(NotAFrameError):
            tau(Frame(np.array([[1.0, 2.0], [0.0, 0.0]])))

    def test_one_rank_under_a_huge_column(self):
        # sigma_1 = 1e12 sets the floor at 100: sigma_2 = 1 of F, and of
        # the pair {1, 2}, is below it, so every rank verdict reads rank 1
        fr = Frame(np.array([[1e12, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        assert fr.rank() == 1
        with pytest.raises(NotAFrameError):
            tau(fr)
        with pytest.raises(NotAFrameError):
            q_eps_estimate(fr, np.array([0.6, 0.8]), 0.1)
        assert full_spark(fr) == (False, SubsetMask(0b011, 3))
        assert complement_property(fr) == (False, SubsetMask(0, 3))

    def test_tau_shares_the_full_spark_budget(self):
        # C(118, 3) = 266,916 n-subsets: under FULL_SPARK_BUDGET
        mat = np.random.default_rng(118).standard_normal((3, 118))
        value = tau(Frame(mat))
        assert 0.0 < value <= np.linalg.svd(mat[:, :3], compute_uv=False)[-1]
        with pytest.raises(BudgetExceededError):
            tau(Frame(np.random.default_rng(9).standard_normal((10, 40))))


class TestLambdaF:
    def test_mercedes_benz(self):
        val, x_star = lambdaF(MB3)
        assert val == pytest.approx((9.0 / 8.0) ** 0.25, abs=1e-9)

    def test_grid_oracle_2d(self):
        for seed in range(4):
            fr = random_frame(2, 4, seed + 40)
            val, _ = lambdaF(fr)
            assert val == pytest.approx(
                oracles.lambda_grid_2d(fr.matrix, 20001), rel=1e-5
            )

    def test_is_max_over_probes(self):
        fr = random_frame(3, 6, 77)
        val, x_star = lambdaF(fr)
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            lam = np.linalg.eigvalsh(oracles.r_matrix_naive(fr.matrix, x)).max()
            assert lam ** 0.25 <= val + 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_power_of_two_scale(self, seed):
        # 2^k F scales every power iterate's quartic sum by 2^(4k) exactly
        mat = np.random.default_rng(seed).standard_normal((3 + seed % 3, 7 + seed % 4))
        val, x_star = lambdaF(Frame(mat))
        for k in range(-60, 61, 4):
            scaled, x_k = lambdaF(Frame(np.ldexp(mat, k)))
            want = np.ldexp(val, k)
            np.testing.assert_array_equal(x_k, x_star)
            assert abs(scaled - want) <= np.spacing(want)

    def test_column_scaled_frames(self):
        # column norms spanning 10^16: the routes agree within 1e-6 on all
        rng = np.random.default_rng(36)
        for k in range(400):
            n = int(rng.integers(3, 5))
            m = int(rng.integers(n + 1, 12))
            mat = rng.standard_normal((n, m))
            if k % 3 == 0:
                mat[:, -1] = mat[:, 0]
            mat *= 10.0 ** (8 * rng.integers(-1, 2, size=m))
            val = lambdaF(Frame(mat))[0]
            assert val >= (1 - 1e-14) * np.max(np.linalg.norm(mat, axis=0))  # Lambda_F >= max ||f_j||


class TestPointwiseThresholds:
    def test_eps0_mercedes_benz(self):
        # at e1 the coefficients are (0, ±sqrt(3)/2): smallest active is sqrt(3)/2
        assert eps0(MB3, np.array([1.0, 0.0])) == pytest.approx(
            math.sqrt(3.0) / 2.0, abs=1e-12
        )

    def test_delta_x_known_value(self):
        assert delta_x(MB3, np.array([1.0, 0.0])) == pytest.approx(
            0.71744, abs=1e-4
        )

    def test_scale_with_x(self):
        x = np.array([0.3, -0.9])
        for c in (0.5, 2.0, 7.0):
            assert eps0(MB3, c * x) == pytest.approx(c * eps0(MB3, x), rel=1e-12)


class TestRatios:
    def test_u_ratio_definition(self):
        fr = random_frame(3, 6, 1)
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((2, 3))
        num = np.linalg.norm(analysis_map(fr, x) - analysis_map(fr, y))
        assert u_ratio(fr, x, y) == pytest.approx(num / dist_d(x, y), rel=1e-9)

    def test_batch_matches_scalar(self):
        fr = random_frame(3, 6, 2)
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((50, 3))
        ys = rng.standard_normal((50, 3))
        u_batch = u_ratios_batch(fr, xs, ys)
        v_batch = v_ratios_batch(fr, xs, ys)
        for i in range(50):
            assert u_batch[i] == pytest.approx(u_ratio(fr, xs[i], ys[i]), rel=1e-9)
            assert v_batch[i] == pytest.approx(v_ratio(fr, xs[i], ys[i]), rel=1e-9)

    def test_zero_distance_is_nan(self):
        fr = MB3
        x = np.array([[0.6, 0.8]])
        assert np.isnan(u_ratios_batch(fr, x, -x)[0])


class TestQeps:
    def test_brackets_mercedes_benz(self):
        br = q_eps_brackets(MB3, 0.1)
        assert br["exact"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert br["upper"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert br["q_inf"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert not br["unbounded"]

    def test_brackets_large_eps(self):
        br = q_eps_brackets(MB3, 100.0)
        assert br["exact"] is None
        assert br["lower"] == pytest.approx(0.01, rel=1e-12)

    def test_brackets_degenerate(self):
        br = q_eps_brackets(standard_basis_frame(2), 0.5)
        assert br["unbounded"] and br["upper"] == np.inf

    def test_rejects_bad_eps(self):
        with pytest.raises(ValidationError):
            q_eps_brackets(MB3, -1.0)

    def test_estimate_reaches_theory_small_eps(self):
        x = np.array([0.6, 0.8])
        eps = 0.5 * delta_x(MB3, x)
        rep = q_eps_estimate(MB3, x, eps)
        A, _ = frame_bounds(MB3)
        assert rep.Q_theory == pytest.approx(1.0 / math.sqrt(A), rel=1e-12)
        assert rep.Q_estimate >= rep.Q_theory - 1e-3
        assert rep.Q_estimate <= rep.bracket[1] + 1e-9

    def test_tau_over_budget_drops_q_theory(self, monkeypatch):
        # pins a silent fallback: delta_x needs tau, and tau over
        # FULL_SPARK_BUDGET leaves Q_theory None (omega falls back to sampled)
        x = np.array([0.6, 0.8])
        eps = 0.5 * delta_x(MB3, x)
        monkeypatch.setattr(injectivity, "FULL_SPARK_BUDGET", 1)
        rep = q_eps_estimate(MB3, x, eps)
        assert rep.Q_theory is None
        assert rep.bracket == pytest.approx((math.sqrt(2.0), math.sqrt(2.0)), rel=1e-12)

    def test_sampled_delta_gives_no_upper_bracket(self):
        # 2^19 partitions put Delta over its exact budget; a sampled Delta
        # lies above Delta, so 1/Delta would sit below the true upper bracket
        fr = gaussian_frame(EnsembleSpec(n=5, m=20, scale="one_over_sqrt_n", seed=1), 17)
        analysis = FrameAnalysis(fr)
        assert not analysis.delta[2] and analysis.omega[2]
        rep = q_eps_estimate(fr, np.ones(5), 0.05, QepsConfig(restarts=4), analysis)
        assert rep.bracket == (min(20.0, 1.0 / analysis.omega[0]), np.inf)

    def test_estimate_witness_is_feasible(self):
        x = np.array([0.6, 0.8])
        rep = q_eps_estimate(MB3, x, 0.3)
        _, _, y = rep.witness
        gap = np.linalg.norm(analysis_map(MB3, x) - analysis_map(MB3, y))
        assert gap <= rep.eps * (1 + 1e-9)
        assert dist_d(x, y) == pytest.approx(rep.Q_estimate * rep.eps, rel=1e-6)

    def test_sup_over_x_reaches_inverse_omega(self):
        # the extremal construction point pushes Q_eps(x) up to 1/omega
        eps = 0.05
        x = omega_witness_point(MB3, eps)
        rep = q_eps_estimate(MB3, x, eps)
        assert rep.Q_estimate >= math.sqrt(2.0) - 1e-3

    def test_scaling_invariance(self):
        x = np.array([0.6, 0.8])
        r1 = q_eps_estimate(MB3, x, 0.2)
        r2 = q_eps_estimate(MB3, 3.0 * x, 0.6)
        assert r2.Q_estimate == pytest.approx(r1.Q_estimate, rel=1e-6)


    def test_omega_witness_point_reaches_inverse_omega_n3(self):
        # full spark 3 x 6, eps < tau: y = x - w1 lies on the line along -v1,
        # a structured direction, at d = eps / omega, and q_eps = 1/omega
        mat = np.random.default_rng(43).standard_normal((3, 6))
        fr = Frame(mat / np.linalg.norm(mat, axis=0))
        w = omega(fr)[0]
        eps = 0.5 * tau(fr)
        rep = q_eps_estimate(fr, omega_witness_point(fr, eps), eps)
        assert rep.Q_estimate >= 1.0 / w - 1e-3
        assert rep.Q_estimate == pytest.approx(1.0 / w, rel=1e-6)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_basis3_sign_flip(self, eps):
        # flipping x_i leaves alpha(x) unchanged: y = x - 2 x_i e_i is
        # feasible for every eps, at d = 2 min(|x_i|, ||x_-i||)
        x = np.array([0.6, 0.48, 0.64])
        rep = q_eps_estimate(standard_basis_frame(3), x, eps)
        flips = [2.0 * min(abs(x[i]), np.linalg.norm(np.delete(x, i))) for i in range(3)]
        assert rep.Q_estimate >= max(flips) / eps

    def test_non_spanning_frame_raises(self):
        # e3 is orthogonal to every column: y = x + t e3 is feasible for all t
        with pytest.raises(NotAFrameError):
            q_eps_estimate(Frame(np.eye(3)[:, :2]), np.array([1.0, 0.5, 0.2]), 0.1)

    def test_seeded_cases_within_brackets(self):
        # fixtures and seeded unit-column frames: the estimate stays under
        # 1/Delta and every witness passes the recheck with Q eps = d(x, y)
        rng = np.random.default_rng(12)
        frames = [fixture(name) for name in ("mb3", "basis2", "basis3", "repeated", "gauss_4x11")]
        frames += [unit_frame(rng, n, m) for n, m in ((2, 4), (3, 5), (3, 9), (4, 7), (5, 9))]
        cfg = QepsConfig(restarts=64)
        cases = 0
        for fr in frames:
            for eps in [*rng.uniform(0.02, 0.2, size=7), 1e-6, 1e-9, 10.0]:
                x = rng.standard_normal(fr.dim)
                rep = q_eps_estimate(fr, x, eps, cfg)
                y = rep.witness[2]
                assert rep.Q_estimate <= rep.bracket[1] * (1 + 1e-9)
                assert gap(fr, x, y) <= eps
                assert rep.Q_estimate * eps == pytest.approx(dist_d(x, y), rel=1e-9)
                cases += 1
        assert cases == 100


class TestHillClimb:
    """The stacked climb of `robustness._hill_climb` against the one call
    per round of `oracles.hill_climb_sequential`."""

    @staticmethod
    def cases():
        for name in ("mb3", "basis2", "basis3", "repeated", "gauss_4x11"):
            fr = fixture(name)
            for eps in (1e-9, 0.07, 0.3, 10.0):
                yield fr, np.ones(fr.dim), eps, QepsConfig()
        rng = np.random.default_rng(27)
        for case in range(24):
            n = 2 + case % 4
            mat = rng.standard_normal((n, int(rng.integers(2 * n - 1, 2 * n + 2))))
            if case % 3 == 1:
                mat[:, -1] = mat[:, 0]  # a duplicated column
            eps = (1e-9, 10.0, *rng.uniform(0.01, 0.5, 2))[case % 4]
            yield Frame(mat), rng.standard_normal(n), eps, QepsConfig(restarts=32, seed=case)

    def test_equals_one_call_per_round(self, monkeypatch):
        stacked = [q_eps_estimate(*case) for case in self.cases()]
        monkeypatch.setattr(robustness, "_hill_climb", oracles.hill_climb_sequential)
        for rep, case in zip(stacked, self.cases(), strict=True):
            seq = q_eps_estimate(*case)
            assert (rep.Q_estimate, rep.bracket) == (seq.Q_estimate, seq.bracket)
            for w, w_seq in zip(rep.witness, seq.witness, strict=True):
                assert np.array_equal(w, w_seq)

    def test_stability_makes_at_most_four_line_calls(self, monkeypatch, capsys):
        # one call for the initial directions, then one per accepted step and
        # one that finds no rise
        calls = []

        def counted(*args):
            calls.append(args[2].shape[0])
            return _line_maxima(*args)

        monkeypatch.setattr(robustness, "_line_maxima", counted)
        assert cli.main(["stability", "--fixture", "mb3", "--x=0.6,0.8", "--eps", "0.07"]) == 0
        capsys.readouterr()
        assert 2 <= len(calls) <= 4 and calls[1] == robustness.QEPS_REFINE_ROUNDS


class TestLineMaxima:
    """Exact line maxima against the dense grid of `oracles.line_max_grid`."""

    @staticmethod
    def lines():
        rng = np.random.default_rng(11)
        for case in range(12):
            n = 2 + case % 3
            mat = unit_frame(rng, n, n + 2 + case % 4).matrix.copy()
            x = rng.standard_normal(n)
            if case % 3 == 1:
                mat[:, -1] = mat[:, 0]  # a duplicated column
            if case % 3 == 2:
                mat[:, 0], x[0] = np.eye(n)[0], 0.0  # c_0 = 0: a sign change at t = 0
            us = rng.standard_normal((6, n))
            yield Frame(mat), x, us / np.linalg.norm(us, axis=1, keepdims=True)
        # basis3: along -e_1 a sign flip holds a narrow interval near t = 1.2
        us = np.vstack([-np.eye(3)[0], rng.standard_normal((2, 3))])
        yield standard_basis_frame(3), np.array([0.6, 0.48, 0.64]), us / np.linalg.norm(us, axis=1, keepdims=True)

    def test_never_below_dense_grid(self):
        checked = 0
        for fr, x, us in self.lines():
            for eps, u in zip((1e-12, 1e-9, 1e-6, 1e-3, 0.1, 10.0), us):
                (d,), (t,) = _line_maxima(fr, x, u[None], eps)
                y = x + t * u
                assert gap(fr, x, y) <= eps
                assert d == pytest.approx(dist_d(x, y), rel=1e-12)
                assert d >= oracles.line_max_grid(fr.matrix, x, u, eps) * (1 - 1e-9)
                checked += 1
        assert checked == 12 * 6 + 3

    def test_stacked_rows_equal_rows_alone(self):
        # every product is taken within its row, so a row of a stacked call
        # gives the bits it gives alone: the hill climb may stack its rounds
        rng = np.random.default_rng(26)
        rows = 0
        for case in range(40):
            n = 2 + case % 4
            mat = rng.standard_normal((n, int(rng.integers(n + 1, 2 * n + 3))))
            if case % 3 == 1:
                mat[:, -1] = mat[:, 0]  # a duplicated column
            fr, x = Frame(mat), rng.standard_normal(n)
            us = rng.standard_normal((60, n))
            us /= np.linalg.norm(us, axis=1, keepdims=True)
            eps = (1e-9, 0.07, 0.3, 10.0)[case % 4]
            ds, ts = _line_maxima(fr, x, us, eps)
            for u, d, t in zip(us, ds, ts):
                (d1,), (t1,) = _line_maxima(fr, x, u[None], eps)
                assert (d1, t1) == (d, t)
                rows += 1
        assert rows == 2400

    @pytest.mark.parametrize("name", ["mb3", "gauss_4x11"])
    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_tiny_eps_witness_passes_recheck(self, name, eps):
        # the recheck would reset a failing witness to y = x, Q = 0; every
        # line holds d >= eps / sqrt(B) up to rounding
        fr = fixture(name)
        x = np.random.default_rng(5).standard_normal(fr.dim)
        rep = q_eps_estimate(fr, x, eps, QepsConfig(restarts=16))
        assert gap(fr, x, rep.witness[2]) <= eps
        assert rep.Q_estimate >= (1 - 1e-3) / math.sqrt(frame_bounds(fr)[1])


class TestWorstCaseWitness:
    def test_ratio_attains_inverse_delta(self):
        x, y, eps = worst_case_witness(MB3)
        gap = np.linalg.norm(analysis_map(MB3, x) - analysis_map(MB3, y))
        assert gap <= eps + 1e-12
        assert dist_d(x, y) / eps >= 1.0 / math.sqrt(2.0) * math.sqrt(2.0) - 1e-6

    def test_degenerate_frame_gives_collision(self):
        fr = standard_basis_frame(2)
        x, y, eps = worst_case_witness(fr)
        assert eps == 0.0
        np.testing.assert_allclose(
            analysis_map(fr, x), analysis_map(fr, y), atol=1e-12
        )
        assert dist_d(x, y) > 0.1


class TestLipschitzConstants:
    def test_chain_on_random_frames(self):
        for seed in range(6):
            fr = random_frame(3, 6, seed + 900)
            c = lipschitz_constants(fr)
            assert c.Delta <= c.omega + 1e-9
            assert c.omega <= c.sqrtA + 1e-9
            assert c.sqrtA <= c.sqrtB + 1e-9
            assert c.mu0 >= 0.0

    def test_sampled_delta_not_above_omega(self):
        # 2^19 partitions put Delta over its exact budget, while omega is
        # exact; the sampled candidates alone give Delta 0.5426 > omega 0.5258
        fr = gaussian_frame(EnsembleSpec(n=5, m=20, scale="one_over_sqrt_n", seed=1), 17)
        analysis = FrameAnalysis(fr)
        (d_val, d_mask, d_exact), (o_val, _, o_exact) = analysis.delta, analysis.omega
        assert not d_exact and o_exact
        assert d_val <= o_val
        assert d_val == math.sqrt(subsets.partition_bounds(fr.matrix, [d_mask.bits])[0])
        c = lipschitz_constants(fr, A0Config(restarts=1, max_iters=5))
        assert (c.Delta, c.omega) == (d_val, o_val)

    def test_chain_holds_with_a_repeated_column(self):
        # a side of n or more columns that does not span keeps exact Delta at
        # its Gram's rounding residue (1.1e-8 at seed 19) while omega is 0;
        # the chain compares squares within the Gram route's allowance
        for seed in range(200):
            mat = np.random.default_rng(seed).standard_normal((3, 5))
            mat[:, 1] = mat[:, 0]
            lipschitz_constants(Frame(mat), A0Config(restarts=1, max_iters=5))

    @pytest.mark.parametrize("excess", [0.5, 2.0])
    def test_chain_allows_the_gram_rounding_only(self, excess, monkeypatch):
        # Delta^2 moved to omega^2 + excess allowances
        kernel = robustness.delta

        def delta_above(frame, **kw):
            _, mask, exact = kernel(frame, **kw)
            grown = robustness.omega(frame)[0] ** 2 + excess * subsets.gram_allowance(frame.matrix)
            return math.sqrt(grown), mask, exact

        monkeypatch.setattr(robustness, "delta", delta_above)
        if excess < 1:
            c = lipschitz_constants(MB3)
            assert c.Delta > c.omega
        else:
            with pytest.raises(VerdictConflictError, match=r"chain violated \(Delta<=omega\)"):
                lipschitz_constants(MB3)

    def test_mercedes_benz_constants(self):
        c = lipschitz_constants(MB3)
        assert c.Delta == pytest.approx(SQ2INV, abs=1e-9)
        assert c.omega == pytest.approx(SQ2INV, abs=1e-9)
        assert c.sqrtA == pytest.approx(math.sqrt(1.5), abs=1e-9)
        assert c.sqrtB == pytest.approx(math.sqrt(1.5), abs=1e-9)
        assert c.mu0 == pytest.approx(math.sqrt(0.375), abs=1e-6)
        assert c.lambdaF == pytest.approx((9.0 / 8.0) ** 0.25, abs=1e-6)
        assert c.exact["Delta"] and c.exact["omega"]

    def test_empirical_ratios_respect_bounds(self):
        fr = random_frame(3, 6, 901)
        c = lipschitz_constants(fr)
        rng = np.random.default_rng(10)
        xs = rng.standard_normal((2000, 3))
        ys = rng.standard_normal((2000, 3))
        u = u_ratios_batch(fr, xs, ys)
        v = v_ratios_batch(fr, xs, ys)
        ok = ~np.isnan(u)
        assert np.all(u[ok] >= c.Delta - 1e-7)
        assert np.all(u[ok] <= c.sqrtB + 1e-7)
        ok = ~np.isnan(v)
        assert np.all(v[ok] >= c.mu0 - 1e-7)
        assert np.all(v[ok] <= c.lambdaF**2 + 1e-7)
