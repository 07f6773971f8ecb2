"""Tests for the fGn covariance, innovation representation, and prediction."""

import dataclasses
import math
import re
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular, toeplitz
from scipy.linalg.lapack import dpotrf

from fracctrl import _lapack
from fracctrl import fracnoise as fn
from fracctrl.errors import ContractError, NumericalError

RHO_075_LAG1 = 0.41421356237309515  # 0.5*(2^1.5 - 2) = sqrt(2) - 1
BETA_11 = 0.9101797211244547  # sqrt(1 - rho^2) for the 2x2 factor


class TestAutocovariance:
    @pytest.mark.parametrize("h", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_unit_variance_at_lag_zero(self, h):
        assert fn.fgn_autocovariance(h, 0) == 1.0

    def test_half_is_white(self):
        rho = fn.fgn_autocovariance(0.5, np.arange(1, 50))
        np.testing.assert_allclose(rho, 0.0, atol=1e-15)

    def test_frozen_value_h075_lag1(self):
        np.testing.assert_allclose(fn.fgn_autocovariance(0.75, 1), RHO_075_LAG1, rtol=1e-15)

    @pytest.mark.parametrize("h", [0.1, 0.25, 0.4, 0.6, 0.75, 0.9])
    def test_lag_dependence_off_half(self, h):
        # persistence above H=1/2, anti-persistence below
        rho1 = fn.fgn_autocovariance(h, 1)
        assert rho1 != 0.0
        assert (rho1 > 0) == (h > 0.5), f"H={h} gave rho(1)={rho1}"

    def test_summability_side(self):
        # long memory: rho(k) ~ H(2H-1) k^{2H-2} for H > 1/2, so decay is slow
        rho = fn.fgn_autocovariance(0.75, np.array([10, 100, 1000]))
        ratio = rho[2] / rho[1]
        np.testing.assert_allclose(ratio, 10.0 ** (2 * 0.75 - 2), rtol=1e-3)

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.5])
    def test_hurst_domain(self, h):
        with pytest.raises(ContractError):
            fn.fgn_autocovariance(h, 1)

    @pytest.mark.parametrize("h", ["0.5", None, [0.5], np.nan, np.inf, True])
    def test_hurst_must_be_a_finite_number(self, h):
        for call in (lambda: fn.fgn_autocovariance(h, 1), lambda: fn.build_innovation_system(h, 4)):
            with pytest.raises(ContractError, match="Hurst index must be a finite number"):
                call()

    def test_numpy_hurst_is_accepted(self):
        assert fn.fgn_autocovariance(np.float64(0.5), 1) == 0.0
        assert fn.build_innovation_system(np.float64(0.75), 4).hurst == 0.75

    def test_lag_domain(self):
        with pytest.raises(ContractError):
            fn.fgn_autocovariance(0.75, -1)
        with pytest.raises(ContractError):
            fn.fgn_autocovariance(0.75, 1.5)

    @pytest.mark.parametrize(
        "lag",
        ["1", True, None, ["1", "2"], np.array(["1"]), [1, None], np.array([True, False]),
         [1, True], (True, 2), [[1, True]], [np.True_, 2], [np.array([True]), np.array([2])], [1, [2, 3]]],
    )
    def test_lag_must_be_numeric(self, lag):
        # numpy reads each of these as a number, so each was taken as a lag;
        # next to other numbers a bool reached numpy as an integer.  A ragged
        # nesting raised numpy's "inhomogeneous shape" ValueError.
        with pytest.raises(ContractError, match="lag must be a nonnegative integer or an array of them"):
            fn.fgn_autocovariance(0.75, lag)

    @pytest.mark.parametrize("lag", [np.inf, np.nan, [1.0, np.inf]])
    def test_lag_must_be_finite(self, lag):
        # an infinite lag returned NaN
        with pytest.raises(ContractError, match="lag must be a nonnegative integer"):
            fn.fgn_autocovariance(0.75, lag)

    @pytest.mark.parametrize(
        "h,lag,bad",
        [(0.75, 1e300, 1e300), (0.75, [1, 2, 1e300, 1e301], 1e300), (0.5, 1e308, 1e308),
         (0.6, np.array([[3.0], [1e300]]), 1e300), (0.9, 10**400, 10**400),
         (0.75, [5, 10**400], 10**400)],
        ids=["1e300", "list", "H-half", "column", "int-past-float", "list-int-past-float"],
    )
    def test_a_lag_whose_powers_overflow_is_refused(self, h, lag, bad):
        # It returned NaN with two overflow warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(f"overflows a float at lag {bad}")) as err:
                fn.fgn_autocovariance(h, lag)
        assert err.value.detail == {"lag": bad}

    def test_the_largest_lags_that_fit_are_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # |k +- 1|^(2H) and 2 k^(2H) stay below the float maximum here
            assert np.isfinite(fn.fgn_autocovariance(0.25, 1e200))
            assert np.isfinite(fn.fgn_autocovariance(0.75, [1, 1e200])).all()
            assert np.isfinite(fn.fgn_autocovariance(0.75, 1e205))
            # an integer past the float range stands at the float maximum
            assert fn.fgn_autocovariance(0.25, 10**400) == 0.0
        with pytest.raises(ContractError, match="nonnegative integer"):
            fn.fgn_autocovariance(0.75, [-1, 10**400])

    def test_integral_lags_of_every_kind_agree(self):
        expected = fn.fgn_autocovariance(0.75, np.arange(4))
        for lags in ([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0], np.arange(4, dtype=np.int32), np.arange(4, dtype=np.uint8)):
            assert np.array_equal(fn.fgn_autocovariance(0.75, lags), expected)
        for lag in (1, 1.0, np.int64(1), np.float32(1)):
            assert fn.fgn_autocovariance(0.75, lag) == RHO_075_LAG1
        # Python integers past int64 reach numpy as an object array.
        assert fn.fgn_autocovariance(0.75, 2**70) == fn.fgn_autocovariance(0.75, float(2**70))
        assert np.array_equal(fn.fgn_autocovariance(0.75, [1, 2**70]), fn.fgn_autocovariance(0.75, [1.0, 2.0**70]))

    @pytest.mark.parametrize("h", [0.1, 0.5, 0.75])
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_matrix_is_scipys_toeplitz(self, h, n):
        matrix = fn.autocovariance_matrix(h, n)
        assert matrix.flags.c_contiguous and matrix.flags.writeable
        assert np.array_equal(matrix, toeplitz(fn.fgn_autocovariance(h, np.arange(n))))

    def test_matrix_order_domain(self):
        with pytest.raises(ContractError):
            fn.autocovariance_matrix(0.75, 0)

    @pytest.mark.parametrize("order", [2.5, 3.0, True, "3"])
    def test_matrix_order_must_be_an_integer(self, order):
        with pytest.raises(ContractError, match="matrix order must be an integer"):
            fn.autocovariance_matrix(0.75, order)
        assert fn.autocovariance_matrix(0.75, np.int64(3)).shape == (3, 3)


class TestInnovationSystem:
    def test_two_step_factor_frozen(self):
        sys2 = fn.build_innovation_system(0.75, 2)
        np.testing.assert_allclose(sys2.beta[0, 0], 1.0, rtol=1e-15)
        np.testing.assert_allclose(sys2.beta[1, 0], RHO_075_LAG1, rtol=1e-12)
        np.testing.assert_allclose(sys2.beta[1, 1], BETA_11, rtol=1e-12)
        np.testing.assert_allclose(sys2.gamma[1, 0], RHO_075_LAG1, rtol=1e-12)

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("horizon", [8, 64])
    def test_reconstruction_and_inverse(self, h, horizon):
        sys = fn.build_innovation_system(h, horizon)
        recon = np.max(np.abs(sys.beta @ sys.beta.T - sys.covariance))
        inv = np.max(np.abs(sys.beta @ sys.alpha - np.eye(horizon)))
        assert recon < 1e-10, f"H={h}: reconstruction error {recon}"
        assert inv < 1e-10, f"H={h}: inversion error {inv}"

    def test_gamma_equals_negative_scaled_alpha_row(self):
        # gamma(n, k) = -beta(n, n) alpha(n, k) for k < n, from beta @ alpha = I
        sys = fn.build_innovation_system(0.7, 32)
        for n in (1, 7, 31):
            np.testing.assert_allclose(
                sys.gamma[n, :n], -sys.beta[n, n] * sys.alpha[n, :n], atol=1e-13
            )

    def test_half_gives_identity(self):
        sys = fn.build_innovation_system(0.5, 16)
        np.testing.assert_allclose(sys.beta, np.eye(16), atol=1e-14)
        assert np.all(sys.gamma == 0.0), "white noise has exactly zero prediction weights"

    def test_conditional_std_matches_gaussian_formula(self):
        h, n = 0.75, 9
        sys = fn.build_innovation_system(h, 16)
        r = fn.fgn_autocovariance(h, np.arange(n, 0, -1))
        w = np.linalg.solve(sys.covariance[:n, :n], r)
        np.testing.assert_allclose(sys.conditional_std(n), np.sqrt(1.0 - r @ w), rtol=1e-12)

    def test_conditional_std_nonincreasing(self):
        sys = fn.build_innovation_system(0.8, 64)
        diag = np.diag(sys.beta)
        assert np.all(np.diff(diag) <= 1e-14), "more history cannot worsen the prediction"

    def test_domain_errors(self):
        # int() would truncate 2.5 silently, so non-integer horizons are refused
        for h, horizon in [(1.2, 8), (0.75, 0), (0.75, -3), (0.75, 2.5), (0.75, 8.0), (0.75, True), (0.75, "8")]:
            with pytest.raises(ContractError):
                fn.build_innovation_system(h, horizon)

    def test_numpy_integer_horizon(self):
        assert fn.build_innovation_system(0.75, np.int64(8)).horizon == 8

    def test_stores_only_beta_and_gamma(self):
        sys = fn.build_innovation_system(0.75, 16)
        assert [f.name for f in dataclasses.fields(sys)] == ["hurst", "horizon", "beta", "gamma"]
        np.testing.assert_array_equal(sys.covariance, fn.autocovariance_matrix(0.75, 16))

    @pytest.mark.parametrize("h", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("horizon", [2, 64, 1024])
    def test_gamma_matches_dense_reference(self, h, horizon):
        # the construction Durbin-Levinson replaces: tril(beta, -1) @ beta^{-1}
        sys = fn.build_innovation_system(h, horizon)
        dense = np.tril(sys.beta, -1) @ solve_triangular(sys.beta, np.eye(horizon), lower=True)
        assert np.max(np.abs(sys.gamma - dense)) <= 1e-13

    @pytest.mark.parametrize(
        "h,horizon",
        [pytest.param(h, 200, id=str(h)) for h in (0.1, 0.75)]
        + [pytest.param(h, 200, id=f"{h}-200") for h in (0.25, 0.9)]
        + [pytest.param(h, n, id=f"{h}-{n}") for h in (0.1, 0.25, 0.75, 0.9) for n in (1, 2, 129, 300, 1701, 2048)],
    )
    def test_beta_is_the_cholesky_factor_bit_for_bit(self, h, horizon):
        # scipy's own wrapper of the dpotrf that fracctrl binds, on the one
        # OpenBLAS thread that fracctrl factors and multiplies on
        sys = fn.build_innovation_system(h, horizon)
        eta = np.random.default_rng(31).standard_normal((40, horizon))
        with _lapack.one_thread():
            beta, info = dpotrf(toeplitz(fn.fgn_autocovariance(h, np.arange(horizon))), lower=1, clean=1)
            xi = eta @ beta.T
        assert info == 0
        assert np.array_equal(sys.beta, beta)
        ens = fn.sample_ensemble(sys, seed=31, n_paths=40)
        assert np.array_equal(ens.eta, eta)
        assert np.array_equal(ens.xi, xi)

    @pytest.mark.skipif(not _lapack._POOLS, reason="no bundled OpenBLAS thread setter here")
    def test_the_bits_do_not_depend_on_the_blas_thread_count(self):
        # On several threads OpenBLAS rounds dpotrf past order 128, and dgemm
        # at these shapes, differently from one thread.  Each product takes
        # the same input in both arms.
        system = fn.build_innovation_system(0.75, 300)
        xi = fn.sample_ensemble(system, seed=5, n_paths=300).xi

        def at(count):
            for _, put in _lapack._POOLS:
                put(count)
            return (fn.build_innovation_system(0.75, 300).beta, fn.sample_ensemble(system, seed=5, n_paths=300).xi,
                    fn.prediction_matrix(system, xi, 299))

        saved = [get() for get, _ in _lapack._POOLS]
        try:
            one, two = at(1), at(2)
        finally:
            for (_, put), count in zip(_lapack._POOLS, saved):
                put(count)
        for name, a, b in zip(("beta", "xi", "prediction_matrix"), one, two):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("lag,value", [(1, 1.5), (1, -1.0), (3, 0.99), (6, 0.95), (9, -0.9)])
    def test_lost_definiteness_names_scipys_pivot(self, monkeypatch, lag, value):
        rho = fn.fgn_autocovariance(0.75, np.arange(12))
        rho[lag] = value
        _, info = dpotrf(toeplitz(rho), lower=1, clean=1)
        assert info > 0, "the corrupted covariance should not be positive definite"
        monkeypatch.setattr(fn, "fgn_autocovariance", lambda h, lag: rho.copy())
        with pytest.raises(NumericalError, match=f"pivot {info} ") as caught:
            fn.build_innovation_system(0.75, 12)
        assert caught.value.pivot_index == info

    def test_a_lost_pivot_warns_nothing(self, monkeypatch):
        # phi = -1 zeroes the prediction variance, and the Durbin-Levinson
        # loop, which runs beside the factorization, then divides by zero.
        rho = fn.fgn_autocovariance(0.75, np.arange(12))
        rho[1] = -1.0
        monkeypatch.setattr(fn, "fgn_autocovariance", lambda h, lag: rho.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="pivot 2 "):
                fn.build_innovation_system(0.75, 12)

    def test_the_factor_is_computed_in_a_second_thread_on_one_blas_thread(self, monkeypatch):
        calls = []

        def potrf(a, lower):
            calls.append((threading.get_ident(), [get() for get, _ in _lapack._POOLS]))
            return _lapack.potrf(a, lower)

        threads = threading.active_count()
        reference = fn.build_innovation_system(0.3, 300)
        monkeypatch.setattr(fn, "potrf", potrf)
        system = fn.build_innovation_system(0.3, 300)
        [(ident, counts)] = calls
        assert ident != threading.get_ident()
        assert counts == [1] * len(_lapack._POOLS)
        assert threading.active_count() == threads
        assert np.array_equal(system.beta, reference.beta)
        assert np.array_equal(system.gamma, reference.gamma)

    def test_an_error_in_the_factor_thread_reaches_the_caller(self, monkeypatch):
        def potrf(a, lower):
            raise ValueError("illegal value in 4th argument of internal potrf")

        threads = threading.active_count()
        saved = [get() for get, _ in _lapack._POOLS]
        monkeypatch.setattr(fn, "potrf", potrf)
        with pytest.raises(ValueError, match="4th argument"):
            fn.build_innovation_system(0.3, 300)
        assert threading.active_count() == threads
        assert [get() for get, _ in _lapack._POOLS] == saved

    @settings(max_examples=60, deadline=None)
    @given(h=st.floats(0.01, 0.99), horizon=st.integers(2, 256), data=st.data())
    def test_gamma_rows_solve_the_normal_equations(self, h, horizon, data):
        sys = fn.build_innovation_system(h, horizon)
        for n in data.draw(st.lists(st.integers(1, horizon - 1), min_size=1, max_size=4)):
            oracle = np.linalg.solve(
                fn.autocovariance_matrix(h, n), fn.fgn_autocovariance(h, np.arange(n, 0, -1))
            )
            assert np.max(np.abs(sys.gamma[n, :n] - oracle)) <= 1e-12, f"H={h}, row {n}"


class TestSampling:
    def test_ensemble_determinism_and_shape(self):
        sys = fn.build_innovation_system(0.6, 16)
        a = fn.sample_ensemble(sys, seed=7, n_paths=50)
        b = fn.sample_ensemble(sys, seed=7, n_paths=50)
        assert a.xi.shape == (50, 16)
        assert np.array_equal(a.xi, b.xi)

    @pytest.mark.parametrize(
        "paths,horizon,n_steps",
        [(1, 8, None), (1, 8, 3), (5000, 50, None), (777, 130, 129), (300, 301, 40), (40000, 3, None)],
    )
    def test_ensemble_is_the_product_stored_step_major(self, paths, horizon, n_steps):
        sys = fn.build_innovation_system(0.75, horizon)
        ens = fn.sample_ensemble(sys, seed=4, n_paths=paths, n_steps=n_steps)
        n = horizon if n_steps is None else n_steps
        assert ens.xi.shape == ens.eta.shape == (paths, n)
        assert np.array_equal(ens.xi, ens.eta @ sys.beta[:n, :n].T)
        assert all(ens.xi[:, k].flags.c_contiguous for k in range(n))

    @pytest.mark.parametrize("paths,n_steps,seed", [(1, 8, 0), (3000, 50, 7919), (100, 400, 3)])
    def test_redrawn_innovations_are_the_sampled_ones(self, paths, n_steps, seed):
        sys = fn.build_innovation_system(0.75, n_steps)
        ens = fn.sample_ensemble(sys, seed=seed, n_paths=paths)
        redrawn = fn._draw_innovations(ens.seed, ens.xi.shape)
        assert np.array_equal(redrawn, ens.eta)
        assert redrawn.flags.c_contiguous and ens.eta.flags.c_contiguous

    @pytest.mark.parametrize("entries", [1, 7, 100])
    def test_copy_blocks_do_not_change_the_ensemble(self, monkeypatch, entries):
        # One path per block, and blocks that do not divide the paths.
        sys = fn.build_innovation_system(0.3, 12)
        want = fn.sample_ensemble(sys, seed=6, n_paths=101).xi
        monkeypatch.setattr(fn, "_COPY_BLOCK_ENTRIES", entries)
        assert np.array_equal(fn.sample_ensemble(sys, seed=6, n_paths=101).xi, want)

    @pytest.mark.parametrize(
        "h,paths,horizon",
        [(0.75, 50_000, 50), (0.25, 100, 1700), (0.75, 100_000, 24), (0.3, 500, 40),
         (0.75, 1000, 300), (0.6, 777, 129)],
    )
    def test_readers_ignore_the_layout_of_xi(self, h, paths, horizon):
        sys = fn.build_innovation_system(h, horizon + 1)
        xi = fn.sample_ensemble(sys, seed=2, n_paths=paths).xi
        path_major = np.ascontiguousarray(xi)
        assert xi.flags.f_contiguous and not np.shares_memory(xi, path_major)
        assert np.array_equal(
            fn.prediction_matrix(sys, xi, horizon), fn.prediction_matrix(sys, path_major, horizon)
        )
        alpha_t = sys.alpha.T
        assert np.array_equal(xi @ alpha_t, path_major @ alpha_t)

    def test_truncated_sampling_matches_small_system(self):
        # the first two increments only see the leading 2x2 block of beta
        big = fn.build_innovation_system(0.75, 1024)
        small = fn.build_innovation_system(0.75, 2)
        a = fn.sample_ensemble(big, seed=11, n_paths=100, n_steps=2)
        b = fn.sample_ensemble(small, seed=11, n_paths=100)
        np.testing.assert_allclose(a.xi, b.xi, atol=1e-14)

    def test_sample_covariance_lag1(self):
        sys = fn.build_innovation_system(0.75, 1024)
        ens = fn.sample_ensemble(sys, seed=2024, n_paths=100_000, n_steps=2)
        prod = ens.xi[:, 0] * ens.xi[:, 1]
        est = np.mean(prod)
        stderr = np.std(prod, ddof=1) / np.sqrt(ens.xi.shape[0])
        assert abs(est - RHO_075_LAG1) < 3 * stderr, f"cov estimate {est}, stderr {stderr}"

    def test_whiten_roundtrip(self):
        sys = fn.build_innovation_system(0.3, 48)
        ens = fn.sample_ensemble(sys, seed=5, n_paths=200)
        eta = ens.xi @ sys.alpha.T
        assert np.max(np.abs(eta - ens.eta)) < 1e-12

    def test_innovation_whiteness(self):
        sys = fn.build_innovation_system(0.75, 16)
        ens = fn.sample_ensemble(sys, seed=99, n_paths=100_000)
        eta = ens.xi @ sys.alpha.T
        cov = np.cov(eta, rowvar=False)
        m = ens.xi.shape[0]
        off = cov - np.eye(16)
        assert np.max(np.abs(off[~np.eye(16, dtype=bool)])) < 4 / np.sqrt(m)
        assert np.max(np.abs(np.diag(off))) < 4 * np.sqrt(2 / m)

    def test_n_steps_contract(self):
        sys = fn.build_innovation_system(0.75, 8)
        with pytest.raises(ContractError):
            fn.sample_ensemble(sys, seed=1, n_paths=2, n_steps=9)
        with pytest.raises(ContractError):
            fn.sample_ensemble(sys, seed=1, n_paths=0)

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_counts_must_be_integers(self, value):
        sys = fn.build_innovation_system(0.75, 8)
        xi = fn.sample_ensemble(sys, seed=1, n_paths=2).xi
        with pytest.raises(ContractError, match="n_paths must be an integer"):
            fn.sample_ensemble(sys, seed=1, n_paths=value)
        with pytest.raises(ContractError, match="n_steps must be an integer"):
            fn.sample_ensemble(sys, seed=1, n_paths=2, n_steps=value)
        with pytest.raises(ContractError, match="n_max must be an integer"):
            fn.prediction_matrix(sys, xi, value)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        sys = fn.build_innovation_system(0.75, 8)
        with pytest.raises(ContractError, match="seed must be an integer"):
            fn.sample_ensemble(sys, seed, 3)

    def test_numpy_integer_seed(self):
        sys = fn.build_innovation_system(0.75, 8)
        assert np.array_equal(
            fn.sample_ensemble(sys, np.uint32(4), 3).xi, fn.sample_ensemble(sys, 4, 3).xi
        )

    def test_numpy_integer_counts(self):
        sys = fn.build_innovation_system(0.75, 8)
        noise = fn.sample_ensemble(sys, seed=1, n_paths=np.int64(2), n_steps=np.int32(5))
        assert noise.xi.shape == (2, 5)
        assert fn.prediction_matrix(sys, noise.xi, np.int64(5)).shape == (2, 6)


class TestPrediction:
    def test_empty_prefix(self):
        sys = fn.build_innovation_system(0.75, 4)
        np.testing.assert_array_equal(fn.predict_next(sys, np.zeros((5, 0))), np.zeros(5))
        np.testing.assert_array_equal(fn.predict_next(sys, np.zeros((1, 0))), np.zeros(1))

    def test_half_predicts_zero(self):
        sys = fn.build_innovation_system(0.5, 16)
        rng = np.random.default_rng(42)
        for n in (1, 5, 15):
            pred = fn.predict_next(sys, rng.standard_normal((3, n)))
            assert np.all(pred == 0.0), f"H=0.5 must predict 0 exactly, got {pred}"

    @pytest.mark.parametrize("shape", [(3,), (0,), (), (2, 3, 1)])
    def test_prediction_takes_paths_by_steps_only(self, shape):
        # A 1-D prefix was one path and returned a float; a 3-D xi raised
        # numpy's "too many values to unpack".
        sys = fn.build_innovation_system(0.75, 8)
        with pytest.raises(ContractError, match=re.escape(f"prefix must have shape (paths, steps), got {shape}")):
            fn.predict_next(sys, np.zeros(shape))
        with pytest.raises(ContractError, match=re.escape(f"xi must have shape (paths, steps), got {shape}")):
            fn.prediction_matrix(sys, np.zeros(shape), 0)
        with pytest.raises(ContractError, match="xi must have shape"):
            fn.prediction_matrix(sys, np.zeros(5), 4)

    @pytest.mark.parametrize("h", [0.25, 0.75])
    @pytest.mark.parametrize("n", [1, 5, 25, 63])
    def test_matches_gaussian_conditional_mean(self, h, n):
        sys = fn.build_innovation_system(h, 64)
        r = fn.fgn_autocovariance(h, np.arange(n, 0, -1))
        w = np.linalg.solve(sys.covariance[:n, :n], r)
        rng = np.random.default_rng(n)
        prefixes = rng.standard_normal((100, n))
        got = fn.predict_next(sys, prefixes)
        want = prefixes @ w
        assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize(
        "call",
        [lambda sys: fn.predict_next(sys, np.zeros((2, 3))), lambda sys: fn.prediction_matrix(sys, np.zeros((2, 3)), 2),
         lambda sys: fn.sample_ensemble(sys, 1, 2)],
        ids=["predict_next", "prediction_matrix", "sample_ensemble"],
    )
    def test_the_system_must_be_an_innovation_system(self, call):
        # None raised AttributeError at system.horizon
        with pytest.raises(ContractError, match="system must be an InnovationSystem, got NoneType"):
            call(None)

    def test_prefix_too_long(self):
        sys = fn.build_innovation_system(0.75, 4)
        with pytest.raises(ContractError, match="prefix of length 4 needs prediction row 4"):
            fn.predict_next(sys, np.zeros((1, 4)))

    @pytest.mark.parametrize("h", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n_max", [0, 1, 40, 99])
    def test_prediction_matrix_matches_predict_next(self, h, n_max):
        sys = fn.build_innovation_system(h, 100)
        xi = fn.sample_ensemble(sys, seed=8, n_paths=30).xi
        got = fn.prediction_matrix(sys, xi, n_max)
        want = np.column_stack([fn.predict_next(sys, xi[:, :n]) for n in range(n_max + 1)])
        assert got.shape == (30, n_max + 1)
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize(
        "paths,horizon,n_max",
        [(1, 8, 7), (1, 30, 0), (50_000, 51, 50), (100, 1701, 1700), (777, 130, 64), (40_000, 4, 3)],
    )
    def test_prediction_matrix_is_the_product_stored_step_major(self, paths, horizon, n_max):
        sys = fn.build_innovation_system(0.75, horizon)
        xi = fn.sample_ensemble(sys, seed=5, n_paths=paths).xi
        got = fn.prediction_matrix(sys, xi, n_max)
        assert got.shape == (paths, n_max + 1) and got.T.flags.c_contiguous
        with _lapack.one_thread():
            want = xi[:, :n_max] @ sys.gamma[: n_max + 1, :n_max].T
        assert np.array_equal(got, want)

    def test_prediction_matrix_refuses_a_negative_length(self):
        sys = fn.build_innovation_system(0.75, 5)
        with pytest.raises(ContractError, match="n_max must be >= 0"):
            fn.prediction_matrix(sys, np.zeros((2, 4)), -1)

    @pytest.mark.parametrize(
        "h,paths,horizon", [(0.75, 100_000, 25), (0.25, 2000, 200), (0.9, 500, 400)]
    )
    def test_prefix_layout_moves_only_the_last_bits(self, h, paths, horizon):
        # A Fortran-order prefix takes a matrix-vector product that sums in
        # another order than on a C-order copy.  Observed at most 4.7e-16 of
        # the summed magnitudes, at sizes up to 1e5 paths and 1700 steps.
        sys = fn.build_innovation_system(h, horizon)
        xi = fn.sample_ensemble(sys, seed=12, n_paths=paths, n_steps=horizon - 1).xi
        for n in range(1, horizon):
            prefix = xi[:, :n]
            moved = fn.predict_next(sys, prefix) - fn.predict_next(sys, np.ascontiguousarray(prefix))
            magnitude = np.abs(prefix) @ np.abs(sys.gamma[n, :n])
            assert np.all(np.abs(moved) <= 1e-14 * magnitude), f"prefix length {n}"


class TestGaussianAbsMoment:
    def test_frozen_values(self):
        assert fn.gaussian_abs_moment(2) == 1.0
        assert fn.gaussian_abs_moment(4) == 3.0
        assert fn.gaussian_abs_moment(6) == 15.0
        np.testing.assert_allclose(fn.gaussian_abs_moment(1), np.sqrt(2 / np.pi), rtol=1e-14)

    def test_monte_carlo_odd_moment(self):
        draws = np.abs(np.random.default_rng(42).standard_normal(1_000_000)) ** 3
        est, stderr = np.mean(draws), np.std(draws, ddof=1) / 1000.0
        assert abs(est - fn.gaussian_abs_moment(3)) < 4 * stderr

    def test_root_ratio_bounded_and_nonincreasing(self):
        # sup_m (E|xi|^m)^{1/m} / sqrt(m) is attained at m=1 and is below 1
        m = np.linspace(1.0, 200.0, 400)
        ratio = np.array([fn.gaussian_abs_moment(v) ** (1.0 / v) / np.sqrt(v) for v in m])
        assert np.all(ratio <= 1.0)
        assert np.all(np.diff(ratio) <= 1e-12)
        np.testing.assert_allclose(ratio[0], np.sqrt(2 / np.pi), rtol=1e-12)

    def test_domain(self):
        with pytest.raises(ContractError):
            fn.gaussian_abs_moment(0)
        with pytest.raises(ContractError):
            fn.gaussian_abs_moment(-2)

    @pytest.mark.parametrize("m", [np.nan, np.inf, -np.inf, "3", None, True])
    def test_moment_order_must_be_a_finite_number(self, m):
        with pytest.raises(ContractError, match="moment order must be a finite number"):
            fn.gaussian_abs_moment(m)

    @pytest.mark.parametrize("m", [302.0, 340.0, 401.0, 1e6, 1e308])
    def test_overflow_is_a_numerical_error_naming_m(self, m):
        start = time.perf_counter()
        with pytest.raises(NumericalError, match=re.escape(f"moment order m={m}")) as caught:
            fn.gaussian_abs_moment(m)
        assert time.perf_counter() - start < 0.1
        assert caught.value.detail == {"m": m}

    def test_largest_moments_are_finite(self):
        assert fn.gaussian_abs_moment(300) == float(math.prod(range(1, 300, 2)))
        assert np.isfinite(fn.gaussian_abs_moment(301.3))


class TestLoadingsCsv:
    def test_roundtrip(self, tmp_path):
        sys = fn.build_innovation_system(0.75, 3)
        out = tmp_path / "loadings.csv"
        fn.write_loadings_csv(sys, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "matrix,row,col,value"
        row = next(l for l in lines if l.startswith("beta,1,0,"))
        assert float(row.split(",")[3]) == sys.beta[1, 0]
