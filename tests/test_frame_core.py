import json
import math
import re
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from phasestab import (
    ConvergenceError,
    DimensionMismatchError,
    Frame,
    SubsetMask,
    ValidationError,
    analysis_map,
    analysis_map_sq,
    dist_d,
    dist_d1,
    dump_frame_csv,
    frame_bounds,
    frame_from_json_dict,
    frame_to_json_dict,
    gram,
    load_frame,
    matrix_rank,
    mercedes_benz_frame,
    null_vector,
    standard_basis_frame,
    sym_eig,
)
from phasestab import estimation, frame_core, injectivity, robustness, subsets

RNG = np.random.default_rng(7)


def random_vectors(n, count, seed):
    return np.random.default_rng(seed).standard_normal((count, n))


class TestFrame:
    def test_shape_and_accessors(self):
        fr = mercedes_benz_frame()
        assert fr.dim == 2 and fr.count == 3
        assert fr.matrix.shape == (2, 3)
        np.testing.assert_allclose(fr.column(0), fr.matrix[:, 0])
        np.testing.assert_allclose(
            fr.columns_for(SubsetMask.from_indices([0, 2], 3)), fr.matrix[:, [0, 2]]
        )
        assert fr.rank() == 2

    def test_matrix_is_read_only(self):
        fr = mercedes_benz_frame()
        with pytest.raises((ValueError, RuntimeError)):
            fr.matrix[0, 0] = 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            Frame(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValidationError):
            Frame(np.zeros(3))  # not 2-D
        with pytest.raises(ValidationError):
            Frame(np.zeros((0, 3)))

    def test_rank_deficient_matrix_still_constructs(self):
        fr = Frame(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert fr.rank() == 1

    def test_mercedes_benz_is_tight(self):
        A, B = frame_bounds(mercedes_benz_frame())
        assert A == pytest.approx(1.5, abs=1e-12)
        assert B == pytest.approx(1.5, abs=1e-12)

    def test_standard_basis_bounds(self):
        A, B = frame_bounds(standard_basis_frame(4))
        assert A == pytest.approx(1.0, abs=1e-15)
        assert B == pytest.approx(1.0, abs=1e-15)


class TestSubsetMask:
    def test_roundtrip_indices(self):
        mask = SubsetMask.from_indices([0, 3, 5], 7)
        assert mask.indices() == [0, 3, 5]
        assert mask.size() == 3
        assert mask.complement().indices() == [1, 2, 4, 6]
        assert mask.contains(3) and not mask.contains(1)

    def test_full_and_empty(self):
        assert SubsetMask.full(4).size() == 4
        assert SubsetMask.empty(4).size() == 0
        assert SubsetMask.full(4).complement().size() == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            SubsetMask.from_indices([3], 3)


class TestSymEig:
    def test_matches_closed_form_2x2(self):
        for _ in range(50):
            M = RNG.standard_normal((2, 2))
            M = M + M.T
            vals, vecs = sym_eig(M)
            expect = oracles.eig_2x2(M)
            np.testing.assert_allclose(vals, expect, atol=1e-12)
            np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, M, atol=1e-12)

    def test_descending_order(self):
        M = RNG.standard_normal((6, 6))
        M = M @ M.T
        vals, _ = sym_eig(M)
        assert np.all(np.diff(vals) <= 0)

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="^matrix is not symmetric"):
            sym_eig(M)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 24])
    def test_stack_slices_equal_single_calls(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((7, n, n))
        stack = A @ np.swapaxes(A, 1, 2)
        # rows eigh returns strictly ascending are reversed, the others
        # argsorted: tied eigenvalues (diag(1, 0, 0) at n = 3, the identity,
        # zero) and NaN ((nan, nan, 1) at n = 3)
        stack[1] = np.diag(np.arange(n) % 3 == 0).astype(float)
        stack[2] = np.eye(n)
        stack[3] = 0.0
        stack[4] = np.eye(n)
        stack[4, 0, min(1, n - 1)] = stack[4, min(1, n - 1), 0] = np.nan
        vals, vecs = sym_eig(stack)
        assert vals.shape == (7, n) and vecs.shape == (7, n, n)
        for i in range(7):
            one_vals, one_vecs = sym_eig(stack[i])
            assert vals[i].tobytes() == one_vals.tobytes()
            assert np.ascontiguousarray(vecs[i]).tobytes() == np.ascontiguousarray(one_vecs).tobytes()

    def test_stack_rejects_one_asymmetric_member(self):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 0, 1] = 1e-6
        with pytest.raises(ValidationError, match="matrix 2 of the stack"):
            sym_eig(stack)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (2, 2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValidationError):
            sym_eig(np.zeros(shape))


class TestSearchCounts:
    def test_a0_and_lambdaF_batch_their_eigensolves(self, monkeypatch):
        # one batched solve per lockstep step and per block of speculative
        # halvings: the one-start-at-a-time loops made 35,021 sym_eig and
        # 32,099 r_matrix calls here, one halving per step made 2,269 calls
        # over 35,021 stacked rows
        counts = {"sym_eig": 0, "r_matrix": 0, "rows": 0}

        def counted(name, original):
            def wrapper(*args):
                counts[name] += 1
                if name == "sym_eig":
                    counts["rows"] += len(args[0]) if args[0].ndim == 3 else 1
                return original(*args)
            return wrapper

        eig = counted("sym_eig", frame_core.sym_eig)
        for module in (frame_core, injectivity, robustness):
            monkeypatch.setattr(module, "sym_eig", eig)
        monkeypatch.setattr(injectivity, "r_matrix", counted("r_matrix", injectivity.r_matrix))
        frame = load_frame(str(resources.files("phasestab.fixtures") / "gauss_4x11.json"))
        injectivity.a0(frame)
        robustness.lambdaF(frame)
        assert counts["sym_eig"] <= 600
        assert counts["rows"] <= 1.1 * 35_021  # few discarded speculative rows
        assert counts["r_matrix"] == 0


class TestSubsetSpectrum:
    def test_against_svd(self):
        fr = Frame(RNG.standard_normal((3, 7)))
        member = np.array([[b >> j & 1 for j in range(7)] for b in range(1 << 7)], dtype=bool)
        lows = subsets.lower_bounds(fr.matrix, member)
        for bits in range(1 << 7):
            expect = oracles.subset_sigma_n(fr.matrix, SubsetMask(bits, 7).indices()) ** 2
            assert lows[bits] == pytest.approx(expect, abs=1e-10)
            # sqrt amplifies eigenvalue roundoff near zero: abs tol sqrt(1e-14)
            assert math.sqrt(lows[bits]) == pytest.approx(math.sqrt(expect), abs=1e-7)
        # the complement of bitmask b is 127 - b
        pairs = subsets.partition_bounds(fr.matrix, list(range(1 << 7)))
        np.testing.assert_array_equal(pairs, lows + lows[::-1])

    def test_empty_subset_is_zero(self):
        fr = mercedes_benz_frame()
        assert subsets.lower_bounds(fr.matrix, np.zeros((1, 3), dtype=bool))[0] == 0.0


class TestMaps:
    def test_nonnegative_and_even(self):
        fr = Frame(RNG.standard_normal((3, 5)))
        for x in random_vectors(3, 20, 1):
            a = analysis_map(fr, x)
            assert np.all(a >= 0)
            np.testing.assert_allclose(a, analysis_map(fr, -x), atol=0)
            np.testing.assert_allclose(analysis_map_sq(fr, x), a**2, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            analysis_map(mercedes_benz_frame(), np.ones(3))

    @pytest.mark.parametrize("x", [[np.nan, 1.0], [np.inf, 1.0], [0.6, -np.inf]])
    @pytest.mark.parametrize("entry", [
        lambda fr, x: analysis_map(fr, x),
        lambda fr, x: analysis_map_sq(fr, x),
        lambda fr, x: injectivity.r_matrix(fr, x),
        lambda fr, x: estimation.fisher_info(fr, x, 0.1),
        lambda fr, x: estimation.simulate_measurements(fr, x, estimation.NoiseModel(0.1), 0),
        lambda fr, x: estimation.crlb(fr, x, 0.1),
        lambda fr, x: estimation.mse_monte_carlo(fr, x, 0.1, 3, 0),
        lambda fr, x: robustness.eps0(fr, x),
        lambda fr, x: robustness.delta_x(fr, x),
        lambda fr, x: robustness.q_eps_estimate(fr, x, 0.1),
    ], ids=["analysis_map", "analysis_map_sq", "r_matrix", "fisher_info",
            "simulate_measurements", "crlb", "mse_monte_carlo", "eps0", "delta_x",
            "q_eps_estimate"])
    def test_non_finite_vector(self, entry, x):
        with pytest.raises(ValidationError, match="non-finite"):
            entry(mercedes_benz_frame(), np.array(x))


class TestDistances:
    def test_d1_factorization(self):
        # ||xx^T - yy^T||_1 == ||x - y|| * ||x + y||, nuclear-norm oracle
        for seed in range(30):
            x, y = random_vectors(4, 2, seed + 100)
            assert dist_d1(x, y) == pytest.approx(
                oracles.dist_d1_nuclear(x, y), rel=1e-9
            )
            assert dist_d1(x, y) == pytest.approx(
                np.linalg.norm(x - y) * np.linalg.norm(x + y), rel=1e-9
            )

    def test_d_sign_invariance(self):
        for seed in range(30):
            x, y = random_vectors(5, 2, seed + 200)
            assert dist_d(x, y) == pytest.approx(oracles.dist_d_naive(x, y), abs=1e-12)
            assert dist_d(x, -y) == pytest.approx(dist_d(x, y), abs=1e-12)
            assert dist_d(x, x) == 0.0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_d_is_pseudometric_on_pairs(self, seed):
        x, y, z = random_vectors(3, 3, seed)
        dxz = dist_d(x, z)
        assert dxz <= dist_d(x, y) + dist_d(y, z) + 1e-12
        assert dist_d(x, y) == pytest.approx(dist_d(y, x), abs=1e-12)


class TestNullVectorAndRank:
    def test_null_vector_annihilates(self):
        M = RNG.standard_normal((3, 4))  # wide: nontrivial right kernel
        v = null_vector(M)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(M @ v) < 1e-10
        assert matrix_rank(M) == 3


class TestIO:
    def test_json_roundtrip(self, tmp_path):
        fr = mercedes_benz_frame()
        path = tmp_path / "f.json"
        path.write_text(json.dumps(frame_to_json_dict(fr)))
        back = load_frame(path)
        np.testing.assert_array_equal(back.matrix, fr.matrix)

    def test_csv_roundtrip(self, tmp_path):
        fr = Frame(RNG.standard_normal((3, 5)))
        path = tmp_path / "f.csv"
        path.write_text(dump_frame_csv(fr))
        back = load_frame(path)
        np.testing.assert_allclose(back.matrix, fr.matrix, rtol=0, atol=0)

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError, match="ragged"):
            load_frame(path)

    def test_non_numeric_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValidationError, match=":2:"):
            load_frame(path)

    @pytest.mark.parametrize("name, data", [
        ("latin1.json", b'{"dim": 2, "count": 1, "columns": [[1, 2]], "note": "\xe9"}'),
        ("latin1.csv", b"1,2\n3,\xe9\n"),
    ], ids=["json", "csv"])
    def test_non_utf8_file_names_the_file(self, name, data, tmp_path):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not UTF-8"):
            load_frame(path)

    def test_bad_json_dict(self):
        with pytest.raises(ValidationError):
            frame_from_json_dict({"cols": []})

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": 2, "count": 2, "columns": [["a", "b"], [1, 2]]},
            {"dim": 2, "count": 2, "columns": None},
            {"dim": 2, "count": 2, "columns": [[1, 2], 3]},
            {"dim": -2, "count": 2, "columns": [[1, 2], [3, 4]]},
            {"dim": 2, "count": 3, "columns": [[1, 2], [3, 4]]},
            {"dim": 3, "count": 2, "columns": [[1, 2], [3, 4]]},
            [1, 2],
        ],
        ids=["strings", "null", "ragged", "negative-dim", "count", "dim", "list"],
    )
    def test_malformed_json_dict(self, doc):
        with pytest.raises(ValidationError):
            frame_from_json_dict(doc)


class TestSeedStreams:
    TAGS = [0, 0x61_30, 0x15E, 0xDE_17A, (5 * 1_000_003 + 11) << 32 | 3]

    @pytest.mark.parametrize("seed", [0, 1, 42, -1, -2, -(2**63), 2**63 - 1, 2**40 + 3, -(2**35)])
    def test_int64_seeds_keep_their_streams(self, seed):
        for tag in self.TAGS:
            old = np.random.default_rng(np.random.Philox(key=[seed, tag])).standard_normal(8)
            assert np.array_equal(frame_core._philox(seed, tag).standard_normal(8), old)

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, "2", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValidationError, match=f"seed must be an integer, got {seed!r}"):
            frame_core._philox(seed, 0)

    def test_numpy_integer_seeds_keep_their_streams(self):
        for seed in (np.int64(-3), np.uint64(2**63 + 5), np.int8(7)):
            want = frame_core._philox(int(seed), 0x15E).standard_normal(4)
            assert np.array_equal(frame_core._philox(seed, 0x15E).standard_normal(4), want)

    def test_seeds_past_int64_are_distinct(self):
        """The redundancy study passes seed + trial, which passes 2^63 - 1
        even when seed does not; a float64 key would merge these seeds."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = {
                frame_core._philox(2**63 - 1 + t, tag).standard_normal(4).tobytes()
                for t in range(4) for tag in (0, 0x03E_6A)
            }
            draws |= {frame_core._philox(2**64 - t, 0).standard_normal(4).tobytes() for t in (1, 2)}
        assert len(draws) == 10
