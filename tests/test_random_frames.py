import math
from itertools import combinations

import numpy as np
import pytest

import oracles
from phasestab import (
    BudgetExceededError,
    EnsembleSpec,
    ValidationError,
    gaussian_frame,
    injectivity,
    omega,
    random_frames,
    minimal_redundancy_study,
    redundancy_stability_study,
    subsets,
    tau_scaling_study,
    witness_bound_51,
)


class TestGaussianFrame:
    def test_shapes_and_scaling(self):
        spec = EnsembleSpec(n=4, m=11, scale="unit_columns", seed=3)
        fr = gaussian_frame(spec, trial=0)
        assert fr.dim == 4 and fr.count == 11
        norms = np.linalg.norm(fr.matrix, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_one_over_sqrt_n_scaling(self):
        spec = EnsembleSpec(n=16, m=48, scale="one_over_sqrt_n", seed=3)
        fr = gaussian_frame(spec, trial=0)
        # entries ~ N(0, 1/n): column norms concentrate near 1
        norms = np.linalg.norm(fr.matrix, axis=0)
        assert 0.5 < norms.mean() < 1.5

    def test_bit_reproducible_and_trial_indexed(self):
        spec = EnsembleSpec(n=3, m=7, scale="unit_columns", seed=11)
        a = gaussian_frame(spec, trial=4)
        b = gaussian_frame(spec, trial=4)
        c = gaussian_frame(spec, trial=5)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValidationError):
            gaussian_frame(EnsembleSpec(n=3, m=7, scale="bogus", seed=0))


class TestWitnessBound:
    def test_fields_and_validity(self):
        spec = EnsembleSpec(n=5, m=13, scale="one_over_sqrt_n", seed=21)
        fr = gaussian_frame(spec)
        out = witness_bound_51(fr)
        assert set(out) >= {"sigma_n_G", "bound", "holds", "excluded_index"}
        assert out["holds"]
        assert out["sigma_n_G"] <= out["bound"] + 1e-12
        assert 0 <= out["excluded_index"] <= 5

    def test_bound_construction(self):
        # sigma_n over the first n+1 columns minus the excluded one is, by
        # interlacing, bounded by the witness value L/sqrt(n)
        spec = EnsembleSpec(n=4, m=9, scale="one_over_sqrt_n", seed=5)
        fr = gaussian_frame(spec)
        out = witness_bound_51(fr)
        keep = [j for j in range(5) if j != out["excluded_index"]]
        direct = oracles.subset_sigma_n(fr.matrix, keep)
        assert direct <= out["bound"] * math.sqrt(5)  # loose sanity on scale

    def test_many_frames_never_violate(self):
        for seed in range(60):
            n = 2 + seed % 5
            spec = EnsembleSpec(n=n, m=2 * n + 1, scale="one_over_sqrt_n", seed=seed)
            assert witness_bound_51(gaussian_frame(spec))["holds"]


class TestMinimalRedundancyStudy:
    def test_small_run_matches_bruteforce(self):
        res = minimal_redundancy_study([3], trials=4, seed=13)
        for row in res.rows:
            assert row.statistic == "omega" and row.exact
            spec = EnsembleSpec(n=3, m=5, scale="unit_columns", seed=13)
            fr = gaussian_frame(spec, row.trial)
            assert row.value == pytest.approx(
                oracles.omega_bruteforce(fr.matrix), abs=1e-9
            )

    def test_fit_summary_present(self):
        res = minimal_redundancy_study([3, 5], trials=5, seed=1)
        assert "exponential_fit" in res.summary
        assert "polynomial_fit" in res.summary
        assert res.summary["median_omega"][5] < res.summary["median_omega"][3]

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            minimal_redundancy_study([20], trials=1, seed=0)

    @pytest.mark.parametrize("n_list, seed", [([6], 1660507856), ([4, 5, 6, 7], 2145281599)])
    def test_delta_equals_omega_up_to_gram_rounding(self, n_list, seed):
        # Delta and omega differ by about 2e-10 at n = 6 here, within the
        # Gram route's rounding, in squared units
        res = minimal_redundancy_study(n_list, trials=2, seed=seed)
        assert len(res.rows) == 2 * len(n_list)

    @pytest.mark.parametrize("excess", [0.5, 2.0])
    def test_delta_equals_omega_allows_the_gram_rounding_only(self, excess, monkeypatch):
        # Delta^2 moved to omega^2 + excess allowances
        def delta_above(frame, mode):
            n, m = frame.dim, frame.count
            omega_val, _ = subsets.omega_complements(frame.matrix, combinations(range(m), n - 1))
            return math.sqrt(omega_val**2 + excess * subsets.gram_allowance(frame.matrix)), None, True

        monkeypatch.setattr(random_frames, "delta_op", delta_above)
        if excess < 1:
            minimal_redundancy_study([3], trials=1, seed=0)
        else:
            with pytest.raises(ValidationError, match="Delta != omega at minimal redundancy"):
                minimal_redundancy_study([3], trials=1, seed=0)


class TestTauScalingStudy:
    def test_values_match_bruteforce(self):
        res = tau_scaling_study([3], k=2, trials=3, seed=8)
        for row in res.rows:
            spec = EnsembleSpec(n=3, m=5, scale="unit_columns", seed=8)
            fr = gaussian_frame(spec, row.trial)
            assert row.value == pytest.approx(
                oracles.tau_bruteforce(fr.matrix), abs=1e-9
            )
        assert res.summary["k"] == 2
        n, k = 3, 2
        assert res.summary["normalized_median"][3] == pytest.approx(
            res.summary["median_tau"][3] * n ** (k - 0.5), rel=1e-12
        )

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            tau_scaling_study([30], k=15, trials=1, seed=0)


class TestRedundancyStabilityStudy:
    def test_requires_r0_above_two(self):
        for r0 in (2.0, float("inf")):
            with pytest.raises(ValidationError):
                redundancy_stability_study(r0, [4], trials=1, subset_budget=64, seed=0)

    def test_small_exact_run(self):
        res = redundancy_stability_study(3.0, [3], trials=3, subset_budget=1 << 10, seed=5)
        stats = {row.statistic for row in res.rows}
        assert stats == {"Delta", "omega"}
        assert all(row.exact for row in res.rows)  # m=9 is exactly enumerable
        for row in res.rows:
            assert row.value > 0
        assert res.summary["median_Delta"][3] <= res.summary["median_omega"][3] + 1e-12

    def test_sampled_mode_flags(self):
        res = redundancy_stability_study(3.0, [8], trials=2, subset_budget=128, seed=5)
        assert any(not row.exact for row in res.rows)

    def test_exact_omega_over_budget_falls_back_to_sampled(self, monkeypatch):
        # pins a silent fallback: C(9, 2) is under subset_budget, so exact
        # omega is asked for, but C(9, 3) is over FULL_SPARK_BUDGET; the study
        # takes the sampled omega with the same budget and seed instead
        monkeypatch.setattr(injectivity, "FULL_SPARK_BUDGET", 1)
        res = redundancy_stability_study(3.0, [3], trials=2, subset_budget=1 << 10, seed=5)
        spec = EnsembleSpec(n=3, m=9, scale="one_over_sqrt_n", seed=5)
        for row in res.rows:
            if row.statistic == "Delta":
                assert row.exact
                continue
            sampled = omega(gaussian_frame(spec, row.trial), mode="sampled", budget=1 << 10, seed=5 + row.trial)
            assert (row.value, row.exact) == (sampled[0], False)


@pytest.mark.parametrize(
    "study",
    [
        lambda trials: minimal_redundancy_study([3], trials=trials, seed=0),
        lambda trials: tau_scaling_study([3], k=1, trials=trials, seed=0),
        lambda trials: redundancy_stability_study(3.0, [3], trials=trials, subset_budget=64, seed=0),
    ],
    ids=["minimal", "tau", "redundancy"],
)
@pytest.mark.parametrize("trials", [0, -2, 2.5, True])
def test_studies_need_a_trial(study, trials):
    rule = "an integer" if isinstance(trials, (bool, float)) else ">= 1"
    with pytest.raises(ValidationError, match=f"trials must be {rule}, got {trials}"):
        study(trials)


STUDIES = {
    "minimal": lambda n_list, trials: minimal_redundancy_study(n_list, trials, seed=2),
    "tau": lambda n_list, trials: tau_scaling_study(n_list, k=2, trials=trials, seed=2),
    "redundancy": lambda n_list, trials: redundancy_stability_study(
        3.0, n_list, trials=trials, subset_budget=64, seed=2
    ),
}

EMPTY_SUMMARIES = {
    "minimal": {"median_omega": {}, "redraws": 0},
    "tau": {"median_tau": {}, "normalized_median": {}, "k": 2},
    "redundancy": {"r0": 3.0, "median_Delta": {}, "median_omega": {}},
}


class TestStudyLoop:
    """The three studies share one n x trial loop."""

    @pytest.mark.parametrize("name", list(STUDIES))
    def test_one_draw_per_n_and_trial_in_n_major_order(self, name, monkeypatch):
        draws = []
        draw = random_frames.gaussian_frame
        monkeypatch.setattr(
            random_frames, "gaussian_frame",
            lambda spec, trial=0: draws.append((spec.n, trial)) or draw(spec, trial),
        )
        STUDIES[name]([3, 2], 2)
        assert draws == [(3, 0), (3, 1), (2, 0), (2, 1)]

    def test_redraws_follow_their_trial(self, monkeypatch):
        # the first draw is declared not full spark: it is redrawn at
        # trial + 2^20 before the next trial is drawn
        draws, verdicts = [], [False]
        draw, spark = random_frames.gaussian_frame, random_frames.full_spark
        monkeypatch.setattr(
            random_frames, "gaussian_frame",
            lambda spec, trial=0: draws.append((spec.n, trial)) or draw(spec, trial),
        )
        monkeypatch.setattr(
            random_frames, "full_spark",
            lambda frame: (verdicts.pop(), None) if verdicts else spark(frame),
        )
        res = minimal_redundancy_study([3, 2], trials=2, seed=2)
        assert draws == [(3, 0), (3, 1 << 20), (3, 1), (2, 0), (2, 1)]
        assert res.summary["redraws"] == 1
        assert [(row.n, row.trial) for row in res.rows] == [(3, 0), (3, 1), (2, 0), (2, 1)]

    @pytest.mark.parametrize("name", list(STUDIES))
    def test_repeated_n_repeats_rows_and_keeps_one_median(self, name):
        once, twice = STUDIES[name]([3], 2), STUDIES[name]([3, 3], 2)
        assert twice.rows == once.rows + once.rows
        assert twice.summary == once.summary

    @pytest.mark.parametrize("name", list(STUDIES))
    def test_empty_n_list(self, name):
        res = STUDIES[name]([], 2)
        assert res.rows == [] and res.summary == EMPTY_SUMMARIES[name]

    @pytest.mark.parametrize("name", list(STUDIES))
    def test_numpy_integer_n_list(self, name):
        # n reaches the stream key as a numpy integer, which cannot hold 2^64
        plain = STUDIES[name]([3, 4], 2)
        numpy = STUDIES[name](list(np.array([3, 4])), 2)
        assert numpy.rows == plain.rows and numpy.summary == plain.summary
