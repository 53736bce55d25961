import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from phasestab import (
    A0Config,
    Frame,
    ValidationError,
    VerdictConflictError,
    a0,
    a0_scale,
    complement_property,
    full_spark,
    injectivity,
    lambdaF,
    mercedes_benz_frame,
    phase_retrievable,
    r_matrix,
    standard_basis_frame,
)
from phasestab.injectivity import a0_is_positive

MB3 = mercedes_benz_frame()


def random_frame(n, m, seed):
    return Frame(np.random.default_rng(seed).standard_normal((n, m)))


class TestRMatrix:
    def test_matches_naive_sum(self):
        fr = random_frame(3, 6, 11)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(
                r_matrix(fr, x), oracles.r_matrix_naive(fr.matrix, x), atol=1e-12
            )

    @given(st.floats(min_value=-4.0, max_value=4.0).filter(lambda c: abs(c) > 1e-3))
    @settings(max_examples=40, deadline=None)
    def test_quartic_homogeneity(self, c):
        # R(cx) = c^2 R(x), so lambda_min(R(cx)) = c^2 lambda_min(R(x))
        x = np.array([0.3, -1.2, 0.7])
        fr = random_frame(3, 7, 5)
        np.testing.assert_allclose(
            r_matrix(fr, c * x), c * c * r_matrix(fr, x), rtol=1e-12, atol=1e-12
        )

    def test_psd(self):
        fr = random_frame(4, 9, 3)
        x = np.random.default_rng(1).standard_normal(4)
        vals = np.linalg.eigvalsh(r_matrix(fr, x))
        assert vals.min() >= -1e-12


class TestComplementProperty:
    def test_mercedes_benz_holds(self):
        ok, witness = complement_property(MB3)
        assert ok and witness is None

    def test_standard_basis_fails_with_witness(self):
        fr = standard_basis_frame(2)
        ok, witness = complement_property(fr)
        assert not ok
        assert witness is not None
        # neither the witness subset nor its complement spans R^2
        assert np.linalg.matrix_rank(fr.columns_for(witness)) < 2
        assert np.linalg.matrix_rank(fr.columns_for(witness.complement())) < 2

    def test_matches_bruteforce(self):
        for seed in range(20):
            n = 2 + seed % 2
            fr = random_frame(n, 2 * n - 1 + seed % 2, seed)
            assert (
                complement_property(fr)[0]
                == oracles.complement_property_bruteforce(fr.matrix)
            )

    def test_repeated_column_frame(self):
        # [e1, e2, e1]: split {e2} vs {e1, e1} — neither side spans R^2
        fr = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        ok, witness = complement_property(fr)
        assert not ok and witness is not None

    def test_holds_on_generic_4x30(self):
        # 2^29 partitions, but only C(30, 4) n-subsets to rank
        ok, witness = complement_property(random_frame(4, 30, 5))
        assert ok and witness is None

    def test_fails_on_two_planes_3x30(self):
        rng = np.random.default_rng(6)
        planes = [rng.standard_normal((3, 2)) for _ in range(2)]
        side = np.arange(30) % 2
        rng.shuffle(side)
        mat = np.column_stack([planes[s] @ rng.standard_normal(2) for s in side])
        ok, witness = complement_property(Frame(mat))
        assert not ok
        assert not oracles.spans_svd(mat, witness.indices())
        assert not oracles.spans_svd(mat, witness.complement().indices())
        # the one violating S without column 29: the other plane's columns
        assert witness.indices() == np.flatnonzero(side != side[29]).tolist()


class TestFullSpark:
    def test_matches_bruteforce(self):
        for seed in range(20):
            fr = random_frame(3, 5, seed + 50)
            assert full_spark(fr)[0] == oracles.full_spark_bruteforce(fr.matrix)

    def test_witness_is_singular(self):
        fr = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        ok, witness = full_spark(fr)
        assert not ok
        assert abs(np.linalg.det(fr.columns_for(witness))) < 1e-12

    def test_full_spark_equivalence_at_minimal_redundancy(self):
        # with m = 2n - 1, retrievable <=> full spark
        for seed in range(15):
            fr = random_frame(3, 5, seed + 80)
            assert full_spark(fr)[0] == complement_property(fr)[0]


class TestA0:
    def test_mercedes_benz_value(self):
        val, x_star, _ = a0(MB3)
        assert val == pytest.approx(0.375, abs=1e-9)
        assert np.linalg.norm(x_star) == pytest.approx(1.0, abs=1e-12)

    def test_grid_oracle_2d(self):
        for seed in range(5):
            fr = random_frame(2, 4, seed + 7)
            val, _, _ = a0(fr)
            assert val == pytest.approx(oracles.a0_grid_2d(fr.matrix, 20001), rel=1e-5)

    def test_standard_basis_a0_zero(self):
        val, x_star, _ = a0(standard_basis_frame(2))
        # the minimizers are ±e1 and ±e2, where R(x) = e_i e_i^T is singular;
        # at x = (1, 1)/sqrt(2), R = I/2
        assert val == pytest.approx(0.0, abs=1e-10)
        assert min(abs(x_star[0]), abs(x_star[1])) < 1e-12

    def test_upper_bound_in_3d(self):
        # descent returns lambda_min(R(x)) at a feasible unit x: an upper bound
        fr = random_frame(3, 7, 21)
        val, x_star, _ = a0(fr)
        lam = np.linalg.eigvalsh(r_matrix(fr, x_star)).min()
        assert lam == pytest.approx(val, rel=1e-9)
        # every random unit probe must sit at or above the reported minimum
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert np.linalg.eigvalsh(r_matrix(fr, x)).min() >= val - 1e-9

    def test_homogeneous_lower_bound(self):
        # lambda_min(R(x)) >= a0 ||x||^2 for every x, any scale
        fr = random_frame(2, 5, 31)
        val, _, _ = a0(fr)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal(2) * rng.uniform(0.1, 10)
            lam = np.linalg.eigvalsh(r_matrix(fr, x)).min()
            assert lam >= val * float(x @ x) - 1e-9

    def test_scale_normalizer(self):
        fr = MB3
        assert a0_scale(fr) == pytest.approx(1.0, abs=1e-12)  # unit columns

    @pytest.mark.parametrize("field, value, message", [
        ("restarts", -5, "restarts must be >= 0, got -5"),
        # a float restarts used to fail later inside numpy
        ("restarts", 2.5, "restarts must be an integer, got 2.5"),
        ("restarts", True, "restarts must be an integer, got True"),
    ])
    def test_config_rejects_bad_counts(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            A0Config(**{field: value})

    def test_seed_is_an_integer(self):
        # a float seed used to run the truncated seed's stream
        with pytest.raises(ValidationError, match="seed must be an integer, got 2.5"):
            a0(random_frame(3, 7, 5), A0Config(seed=2.5))

    def test_config_takes_numpy_integers(self):
        fr = random_frame(3, 6, 5)
        got = a0(fr, A0Config(restarts=np.int64(8), seed=np.int32(3)))
        want = a0(fr, A0Config(restarts=8, seed=3))
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


def two_dim_frame(kind, m, seed):
    """2 x m frames: Gaussian, unit columns, a duplicated column, a column
    1e-7 off another's direction, or a zero column."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((2, m))
    if kind == "unit":
        mat /= np.linalg.norm(mat, axis=0)
    elif kind == "duplicated":
        mat[:, -1] = mat[:, 0]
    elif kind == "near_parallel":
        turn = np.array([[1.0, -1e-7], [1e-7, 1.0]])
        mat[:, -1] = 1.3 * turn @ mat[:, 0]
    elif kind == "zero_column":
        mat[:, -1] = 0.0
    return Frame(mat)


class TestTwoDimClosedForms:
    """n = 2: a0 in closed form and Lambda_F from the critical points of
    the quartic sum, against the dense angle grids of the oracles."""

    KINDS = ["random", "unit", "duplicated", "near_parallel", "zero_column"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_grid_oracles(self, kind):
        for seed in range(3):
            fr = two_dim_frame(kind, 3 + seed, 900 + seed)
            size = float(np.sum(np.sum(fr.matrix**2, axis=0) ** 2))  # sum ||f||^4
            val, x_star, u_star = a0(fr)
            grid = oracles.a0_grid_2d(fr.matrix, 4001)
            # the grid value is attained, so it bounds a0 from above
            assert val <= grid + 1e-12 * size
            assert grid - val <= 1e-5 * size
            lam, x_lam = lambdaF(fr)
            grid_lam = oracles.lambda_grid_2d(fr.matrix, 4001)
            assert grid_lam <= lam * (1 + 1e-12)
            assert lam - grid_lam <= 1e-5 * lam
            # the witnesses attain the values
            lam_min = np.linalg.eigvalsh(oracles.r_matrix_naive(fr.matrix, x_star))[0]
            assert abs(lam_min - val) <= 1e-13 * size
            assert np.sum((fr.matrix.T @ x_lam) ** 4) == pytest.approx(lam**4, rel=1e-12)

    def test_all_zero_frame(self):
        fr = Frame(np.zeros((2, 3)))
        val, x_star, u_star = a0(fr)
        assert val == 0.0
        assert np.linalg.norm(x_star) == pytest.approx(1.0)
        assert lambdaF(fr)[0] == 0.0

    def test_mercedes_benz_witnesses(self):
        val, x_star, u_star = a0(MB3)
        assert val == pytest.approx(3.0 / 8.0, abs=1e-15)
        r = oracles.r_matrix_naive(MB3.matrix, x_star)
        evals = np.linalg.eigvalsh(r)
        assert evals[0] == pytest.approx(val, abs=1e-15)
        # u* is the bottom eigenvector of R(x*)
        np.testing.assert_allclose(r @ u_star, val * u_star, atol=1e-15)
        assert np.linalg.norm(u_star) == pytest.approx(1.0, abs=1e-15)
        lam, x_lam = lambdaF(MB3)
        assert lam**4 == pytest.approx(9.0 / 8.0, abs=1e-15)

    def test_closed_form_cross_check_fires(self, monkeypatch):
        # a negative tolerance makes any two routes disagree
        monkeypatch.setattr(injectivity, "A0_REL_TOL", -1.0)
        with pytest.raises(VerdictConflictError, match="a0 routes disagree"):
            a0(MB3)


def _frame_with_violating_side(n, side_rank, seed):
    """A frame of R^n that spans R^n, with a side S of rank side_rank < n - 1
    (multiples of side_rank vectors) whose complement spans only a
    hyperplane."""
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((n, side_rank))
    side = basis @ rng.standard_normal((side_rank, side_rank + 1))
    plane = np.linalg.qr(rng.standard_normal((n, n)))[0][:, : n - 1]
    rest = plane @ rng.standard_normal((n - 1, n))
    return Frame(np.hstack([side, rest]))


class TestA0ZerosFromKernelStarts:
    """Frames that are not phase retrievable: a0 (n >= 3) reaches ~0 with
    no random start, and the criteria agree."""

    @pytest.mark.parametrize(
        "n, side_rank", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)],
    )
    def test_low_rank_violating_side(self, n, side_rank):
        for seed in range(3):
            fr = _frame_with_violating_side(n, side_rank, 60 + seed)
            assert fr.rank() == n
            val, _, _ = a0(fr, A0Config(restarts=0))
            assert not a0_is_positive(fr, val)
            cert = phase_retrievable(fr)
            assert not cert.retrievable
            assert cert.retrievable == complement_property(fr)[0]

    @pytest.mark.parametrize("n, m", [(4, 2), (3, 1)])
    def test_fewer_columns_than_dimensions(self, n, m):
        fr = random_frame(n, m, 7)
        val, _, _ = a0(fr)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert not phase_retrievable(fr).retrievable
        assert not complement_property(fr)[0]


class TestPhaseRetrievable:
    def test_mercedes_benz_certificate(self):
        cert = phase_retrievable(MB3)
        assert cert.retrievable and cert.exact
        assert cert.a0 == pytest.approx(0.375, abs=1e-9)

    def test_standard_basis_not_retrievable(self):
        cert = phase_retrievable(standard_basis_frame(2))
        assert not cert.retrievable
        assert cert.witness is not None

    def test_agreement_on_random_frames(self):
        cfg = A0Config(restarts=8)
        for seed in range(40):
            n = 2 + seed % 2
            fr = random_frame(n, 2 * n - 1, seed + 500)
            cert = phase_retrievable(fr, cfg)
            assert cert.retrievable == oracles.complement_property_bruteforce(fr.matrix)

    @pytest.mark.parametrize(
        "frame, retrievable",
        [(random_frame(3, 7, 1), True), (standard_basis_frame(3), False)],
        ids=["gauss_3x7", "basis3"],
    )
    def test_complement_over_budget_leaves_a0_verdict(self, monkeypatch, frame, retrievable):
        # pins a silent fallback: with C(m, n) over FULL_SPARK_BUDGET the
        # complement check is skipped (m != 2n - 1, so no full spark check)
        # and the a0 search alone decides, without a witness
        monkeypatch.setattr(injectivity, "FULL_SPARK_BUDGET", 0)
        cert = phase_retrievable(frame)
        assert (cert.retrievable, cert.method, cert.witness) == (retrievable, "a0_positive", None)

    def test_json_dict_shape(self):
        doc = phase_retrievable(MB3).to_json_dict()
        assert set(doc) == {
            "retrievable", "method", "witness_bits", "a0", "x_star", "u_star", "exact",
        }
