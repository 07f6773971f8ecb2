"""Tests for the truncated backward solver and its two backends."""

import json
import re
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracctrl import ContractError, NumericalError, backward
from fracctrl._csv import write_csv
from fracctrl.backward import (
    BsdeSolution,
    DriverSpec,
    _basis_names,
    _Design,
    cauchy_diagnostic,
    conditional_expectation,
    solve_truncated,
)
from fracctrl.forward import CoefficientSet, ControlProcess, StatePath, simulate_state
from fracctrl.fracnoise import NoiseEnsemble, build_innovation_system, sample_ensemble
from fracctrl.spaces import WeightedNormParams, weighted_norm

# Frozen by direct recursion with c = 0.7, lam = 1, gamma = 2, N = 3:
# Y_n = c * sum_{j=n+1}^{N} exp(-(j^2 - n^2)); Y_2 = c * e^-5.
CONST_Y = [0.2704229429049842, 0.035085771697036514, 0.004716562899359827, 0.0]
# Adjoint of the investment cost model with consumption at {2}, N = 2:
# k_2 = -1.5, p_1 = e^-3 * 1.5 * (-1), then p_0 = 1.05 * e^-1 * p_1.
ADJOINT_P1 = -0.07468060255179591
ADJOINT_P0 = -0.028847131249756335
# |x| model at H = 0.5 (X_{m} = xi_{m-1}): Y_n = d_{n+1} (Y_{n+1} + sqrt(2/pi))
# with lam = 0.3, gamma = 1.5, N = 6.
ABSMODEL_Y = [
    1.2104439479580753,
    0.8360438634254117,
    0.6490597173315853,
    0.5227165729024714,
    0.4143172517093851,
    0.2778230375916167,
    0.0,
]
# Constant-driver truncation differences in the backward weighted norm
# (lam = 0.3, gamma = 1.5, base power 1) for horizon pairs (4,8) and (8,16).
CAUCHY_4_8 = 0.28376480666309084
CAUCHY_8_16 = 0.003743207729525469


def constant_driver(c):
    return DriverSpec(f=lambda n, x, y, z, u: c + 0.0 * y)


def last_increment_model():
    """State X_{n+1} = xi_n exactly: b = -x, sigma = 1."""
    return CoefficientSet(
        b=lambda n, x, u: -x,
        sigma=lambda n, x, u: 1.0 + 0.0 * x,
        b_x=lambda n, x, u: -1.0 + 0.0 * x,
        b_u=lambda n, x, u: 0.0 * x,
        sigma_x=lambda n, x, u: 0.0 * x,
        sigma_u=lambda n, x, u: 0.0 * x,
    )


def simulate_white(n_steps, n_paths, seed, hurst=0.5):
    sys = build_innovation_system(hurst, n_steps)
    noise = sample_ensemble(sys, seed, n_paths)
    control = ControlProcess(values=np.zeros(n_steps))
    state = simulate_state(last_increment_model(), control, noise, 0.0)
    return sys, state


def reference_design(features, degree):
    """The column-by-column monomial design the in-place builder replaces."""
    cols, names = [np.ones(features.shape[0])], ["1"]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(features.shape[1]), d):
            cols.append(np.prod(features[:, combo], axis=1))
            names.append("*".join(f"x{i}" for i in combo))
    return np.column_stack(cols), names


def fresh_design(features, degree):
    """A single fit's build of the design, with its canonical basis names."""
    n_rows, width = features.shape
    design, _, _ = _Design(n_rows, width, degree).build(features, features[:, :0])
    return design, _basis_names(width, degree)


def reference_regression_solve(f, state, n_trunc, lam, gamma_exp, window, degree):
    """Backward regression loop with one design and one fit per target."""
    ratios = np.exp(-lam * np.diff(np.arange(n_trunc + 1, dtype=float) ** gamma_exp))
    xi, eta, x = state.noise.xi, state.noise.eta, state.values
    y = np.zeros((state.n_paths, n_trunc + 1))
    z = np.zeros((state.n_paths, n_trunc))
    for n in range(n_trunc - 1, -1, -1):
        m = n + 1
        z_m = z[:, m] if m < n_trunc else np.zeros(state.n_paths)
        target = ratios[n] * (y[:, m] + f(m, x[:, m], y[:, m], z_m, None))
        design, _ = reference_design(xi[:, max(0, n - window) : n], degree)
        for out, column in ((y, target), (z, eta[:, n] * target)):
            out[:, n] = design @ np.linalg.lstsq(design, column, rcond=None)[0]
    return y, z


def fresh_fit_solve(f, state, n_trunc, lam, gamma_exp, window, degree):
    """Backward regression loop with a single fit, its own design, per step."""
    ratios = np.exp(-lam * np.diff(np.arange(n_trunc + 1, dtype=float) ** gamma_exp))
    xi, eta, x = state.noise.xi, state.noise.eta, state.values
    y = np.zeros((state.n_paths, n_trunc + 1))
    z = np.zeros((state.n_paths, n_trunc))
    for n in range(n_trunc - 1, -1, -1):
        m = n + 1
        z_m = z[:, m] if m < n_trunc else np.zeros(state.n_paths)
        target = ratios[n] * (y[:, m] + f(m, x[:, m], y[:, m], z_m, None))
        stacked = np.asfortranarray(np.column_stack([target, eta[:, n] * target]))
        feats = xi[:, max(0, n - window) : n]
        fitted = conditional_expectation(stacked, feats, "regression", degree)
        y[:, n], z[:, n] = fitted[:, 0], fitted[:, 1]
    return y, z


class TestConditionalExpectation:
    def test_exact_returns_the_constant(self):
        out = conditional_expectation(np.full(7, 3.25), None, "exact")
        assert_allclose(out, np.full(7, 3.25), rtol=0, atol=0)

    def test_exact_rejects_spread_targets(self):
        with pytest.raises(ContractError, match="deterministic targets"):
            conditional_expectation(np.array([1.0, 1.0, 1.001]), None, "exact")

    def test_regression_recovers_functions_in_the_basis_span(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((4000, 2))
        targets = 2.0 + 3.0 * feats[:, 0] - feats[:, 1] + 0.5 * feats[:, 0] * feats[:, 1]
        fitted = conditional_expectation(targets, feats, "regression", degree=2)
        assert_allclose(fitted, targets, atol=1e-8, err_msg="in-span target not reproduced")

    def test_regression_preserves_the_mean(self):
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((500, 3))
        targets = rng.standard_normal(500) + 0.3
        fitted = conditional_expectation(targets, feats, "regression")
        assert_allclose(
            fitted.mean(), targets.mean(), rtol=0, atol=1e-12,
            err_msg="least squares with an intercept must preserve the target mean",
        )

    def test_regression_residual_orthogonal_to_features(self):
        rng = np.random.default_rng(13)
        feats = rng.standard_normal((800, 2))
        targets = np.abs(feats[:, 0]) + rng.standard_normal(800)
        resid = targets - conditional_expectation(targets, feats, "regression")
        for j in range(feats.shape[1]):
            dot = float(resid @ feats[:, j]) / len(resid)
            assert abs(dot) < 1e-10, f"residual correlates with feature {j}: {dot:.3e}"

    def test_too_few_paths_is_a_contract_error(self):
        feats = np.random.default_rng(0).standard_normal((5, 3))
        with pytest.raises(ContractError, match="paths cannot support"):
            conditional_expectation(np.zeros(5), feats, "regression")

    def test_degenerate_features_raise_numerical_error(self):
        feats = np.zeros((50, 1))
        with pytest.raises(NumericalError, match="rank-deficient") as err:
            conditional_expectation(np.ones(50), feats, "regression")
        assert "basis" in err.value.detail

    def test_unknown_backend_rejected(self):
        with pytest.raises(ContractError, match="backend"):
            conditional_expectation(np.zeros(3), None, "oracle")

    def test_features_with_other_rows_than_targets_are_refused(self):
        feats = np.random.default_rng(1).standard_normal((40, 2))
        with pytest.raises(ContractError, match=r"features must have shape .* got \(40, 2\)"):
            conditional_expectation(np.zeros(50), feats, "regression")

    def test_three_dimensional_targets_are_refused(self):
        feats = np.random.default_rng(1).standard_normal((50, 2))
        with pytest.raises(ContractError, match=r"targets must have shape .* got \(50, 2, 1\)"):
            conditional_expectation(np.zeros((50, 2, 1)), feats, "regression")

    @pytest.mark.parametrize("backend", ["exact", "regression"])
    def test_targets_without_paths_are_refused(self, backend):
        # The exact backend used to fail in numpy's min over no rows.
        with pytest.raises(ContractError, match=r"n_paths >= 1, got \(0,\)"):
            conditional_expectation(np.zeros(0), np.zeros((0, 1)), backend)

    def test_missing_features_are_refused_on_the_regression_backend(self):
        with pytest.raises(ContractError, match="features must be finite numbers, got None"):
            conditional_expectation(np.zeros(50), None, "regression")

    def test_one_dimensional_features_are_refused(self):
        feats = np.random.default_rng(1).standard_normal(50)
        with pytest.raises(ContractError, match=r"features must have shape .* got \(50,\)"):
            conditional_expectation(np.zeros(50), feats, "regression")

    def test_negative_degree_is_refused(self):
        feats = np.random.default_rng(1).standard_normal((50, 2))
        with pytest.raises(ContractError, match="degree must be >= 0, got -1"):
            conditional_expectation(np.zeros(50), feats, "regression", degree=-1)

    def test_fractional_degree_is_refused(self):
        feats = np.random.default_rng(1).standard_normal((50, 2))
        with pytest.raises(ContractError, match="degree must be an integer, got 1.5"):
            conditional_expectation(np.zeros(50), feats, "regression", degree=1.5)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_features_are_refused(self, bad):
        # They used to reach LAPACK, which printed to stderr and raised
        # LinAlgError ("SVD did not converge").
        feats = np.random.default_rng(1).standard_normal((50, 2))
        feats[3, 1] = bad
        with pytest.raises(ContractError, match="features must be finite"):
            conditional_expectation(np.ones(50), feats, "regression")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("backend", ["exact", "regression"])
    def test_non_finite_targets_are_refused(self, backend, bad):
        feats = np.random.default_rng(1).standard_normal((50, 2))
        targets = np.ones(50)
        targets[7] = bad
        with pytest.raises(ContractError, match="targets must be finite"):
            conditional_expectation(targets, feats, backend)

    @pytest.mark.parametrize("window", range(6))
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_design_matches_the_column_stack_reference(self, window, degree):
        # A strided slice, as solve_truncated passes a window of xi.
        feats = np.random.default_rng(window).standard_normal((300, 8))[:, 1 : 1 + window]
        design, names = fresh_design(feats, degree)
        want, want_names = reference_design(feats, degree)
        assert names == want_names
        assert np.array_equal(design, want), "in-place design must be bit-identical"

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_design_ignores_the_window_layout(self, degree):
        # A window of sampled xi is a Fortran-contiguous block of steps.
        by_step = np.random.default_rng(degree).standard_normal((8, 300))
        window = by_step[2:7].T
        assert window.flags.f_contiguous
        design, names = fresh_design(window, degree)
        want, want_names = fresh_design(np.ascontiguousarray(window), degree)
        assert names == want_names
        assert np.array_equal(design, want)

    @pytest.mark.parametrize("window", range(6))
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_a_rolled_design_holds_the_window_columns(self, window, degree):
        # Steps 9, 8, ... back to 0, as a backward solve moves its window.
        xi = np.asfortranarray(np.random.default_rng(window).standard_normal((300, 10)))
        cache = _Design(300, window, degree, n_targets=2)
        cache.targets[...] = np.random.default_rng(degree).standard_normal((300, 2))
        for n in range(9, -1, -1):
            cache.first = max(0, n - window)
            feats = xi[:, cache.first : n]
            design, gram, moments = cache.build(feats, cache.targets)
            want, _ = reference_design(feats, degree)
            canonical = design[:, cache.order]
            assert np.array_equal(canonical, want), f"step {n}: columns must be bit-identical"
            assert_allclose(gram[np.ix_(cache.order, cache.order)], want.T @ want,
                            rtol=1e-13, atol=1e-13 * len(want))
            assert_allclose(moments[cache.order], want.T @ cache.targets,
                            rtol=1e-13, atol=1e-13 * len(want))
        assert cache.columns.shape[1] == len(reference_design(xi[:, :window], degree)[1])

    def test_two_column_fit_equals_two_single_fits(self):
        rng = np.random.default_rng(17)
        feats = rng.standard_normal((2000, 3))
        targets = np.column_stack(
            [np.abs(feats[:, 0]) + rng.standard_normal(2000), np.tanh(feats[:, 1] * feats[:, 2])]
        )
        fitted = conditional_expectation(targets, feats, "regression")
        assert fitted.shape == targets.shape
        for j in range(2):
            single = conditional_expectation(targets[:, j], feats, "regression")
            assert_allclose(fitted[:, j], single, rtol=0, atol=1e-12)

    def test_exact_projects_each_column(self):
        targets = np.column_stack([np.full(5, 3.25), np.full(5, -1.5), np.zeros(5)])
        out = conditional_expectation(targets, None, "exact")
        assert out.shape == (5, 3)
        assert_allclose(out, targets, rtol=0, atol=0)
        targets[2, 1] += 0.001
        with pytest.raises(ContractError, match="spread 1.000e-03"):
            conditional_expectation(targets, None, "exact")

    def test_degenerate_features_raise_with_several_targets(self):
        with pytest.raises(NumericalError, match="rank-deficient") as err:
            conditional_expectation(np.ones((50, 2)), np.zeros((50, 1)), "regression")
        assert err.value.detail["basis"] == ["1", "x0", "x0*x0"]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_paths=st.integers(400, 2000),
        window=st.integers(0, 5),
        degree=st.integers(1, 3),
        k=st.integers(1, 3),
    )
    def test_semi_normal_fit_matches_the_svd_solve(self, seed, n_paths, window, degree, k):
        # Normal features with at least 400 paths give condition numbers below
        # 20 here, far inside the semi-normal bound.
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((n_paths, window))
        targets = rng.standard_normal((n_paths, k)) + np.sin(feats.sum(axis=1))[:, None]
        health = {}
        fitted = conditional_expectation(targets, feats, "regression", degree, health=health)
        design, _ = reference_design(feats, degree)
        want = design @ np.linalg.lstsq(design, targets, rcond=None)[0]
        assert health["fallback"] is False
        assert np.max(np.abs(fitted - want)) <= 1e-12 * np.max(np.abs(want))
        assert_allclose(health["singular_values"], np.linalg.svd(design, compute_uv=False),
                        rtol=1e-10, atol=0)

    def test_refined_fit_holds_near_the_guard(self):
        # Condition number about 6.5e3: unrefined normal equations would be
        # off by about 8e-11 here.
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal(2000)
        feats = np.column_stack([x1, x1 + 3e-4 * rng.standard_normal(2000)])
        targets = np.column_stack([np.sin(x1), feats[:, 1] ** 3])
        health = {}
        fitted = conditional_expectation(targets, feats, "regression", 1, health=health)
        design, _ = reference_design(feats, 1)
        want = design @ np.linalg.lstsq(design, targets, rcond=None)[0]
        singular = health["singular_values"]
        assert health["fallback"] is False and 5e3 < singular[0] / singular[-1] < 1e4
        assert np.max(np.abs(fitted - want)) <= 1e-12 * np.max(np.abs(want))

    def test_near_collinear_design_takes_the_svd_solve(self):
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal(2000)
        feats = np.column_stack([x1, x1 + 1e-3 * rng.standard_normal(2000)])
        targets = np.column_stack([np.sin(x1), feats[:, 1] ** 3])
        health = {}
        fitted = conditional_expectation(targets, feats, "regression", health=health)
        design, _ = reference_design(feats, 2)
        coef, _, _, singular = np.linalg.lstsq(design, targets, rcond=None)
        assert singular[0] / singular[-1] > 1e6, "the design should be near-collinear"
        assert health["fallback"] is True
        assert np.array_equal(health["singular_values"], singular)
        assert np.array_equal(fitted, design @ coef), "the fallback is the plain SVD solve"

    def test_singular_gram_takes_the_svd_solve(self):
        # A zero column stops the Cholesky factorization at its pivot.
        rng = np.random.default_rng(3)
        design = np.asfortranarray(np.column_stack([np.ones(500), rng.standard_normal(500), np.zeros(500)]))
        targets = rng.standard_normal((500, 2))
        gram = design.T @ design
        assert backward._semi_normal_fit(design, gram, design.T @ targets, targets) is None
        feats = np.column_stack([rng.standard_normal(500), np.zeros(500)])
        with pytest.raises(NumericalError, match="rank-deficient"):
            conditional_expectation(targets, feats, "regression", 1)

    def test_failed_factorization_takes_the_svd_solve(self, monkeypatch):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((800, 2))
        targets = rng.standard_normal((800, 2)) + feats[:, :1] ** 2
        monkeypatch.setattr(backward, "potrf", lambda a, lower: 3)
        health = {}
        fitted = conditional_expectation(targets, feats, "regression", health=health)
        design, _ = reference_design(feats, 2)
        coef, _, _, singular = np.linalg.lstsq(design, targets, rcond=None)
        assert health["fallback"] is True
        assert np.array_equal(health["singular_values"], singular)
        assert np.array_equal(fitted, design @ coef)

    def test_semi_normal_fit_leaves_the_gram_matrix_alone(self):
        # The design a solve keeps holds its Gram matrix across steps.
        rng = np.random.default_rng(6)
        design = np.asfortranarray(np.column_stack([np.ones(300), rng.standard_normal((300, 3))]))
        targets = rng.standard_normal(300)
        gram = design.T @ design
        kept = gram.copy()
        assert backward._semi_normal_fit(design, gram, design.T @ targets, targets) is not None
        assert np.array_equal(gram, kept)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_paths=st.integers(60, 400),
        window=st.integers(0, 4),
        degree=st.integers(1, 3),
        k=st.integers(1, 3),
    )
    def test_fit_keeps_the_mean_and_an_orthogonal_residual(self, seed, n_paths, window, degree, k):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((n_paths, window))
        targets = rng.standard_normal((n_paths, k)) + np.sin(feats.sum(axis=1))[:, None]
        resid = targets - conditional_expectation(targets, feats, "regression", degree)
        design, _ = reference_design(feats, degree)
        assert np.max(np.abs(resid.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(design.T @ resid)) / n_paths <= 1e-10


class TestSolveTruncatedExact:
    def test_zero_driver_is_identically_zero(self):
        sol = solve_truncated(constant_driver(0.0), None, None, 5, 1.0, 2.0, backend="exact")
        assert sol.y.shape == (1, 6) and sol.z.shape == (1, 5)
        assert_allclose(sol.y, 0.0, rtol=0, atol=0)
        assert_allclose(sol.z, 0.0, rtol=0, atol=0)

    def test_constant_driver_matches_frozen_values(self):
        sol = solve_truncated(constant_driver(0.7), None, None, 3, 1.0, 2.0, backend="exact")
        assert_allclose(
            sol.y[0], CONST_Y, rtol=0, atol=1e-12,
            err_msg=f"constant-driver values off: {sol.y[0]} vs {CONST_Y}",
        )
        assert_allclose(sol.z, 0.0, rtol=0, atol=0)

    @pytest.mark.parametrize("lam,gamma_exp,n", [(0.5, 1.5, 6), (1.0, 2.0, 4), (0.2, 1.2, 10)])
    def test_constant_driver_closed_form(self, lam, gamma_exp, n):
        c = 1.3
        sol = solve_truncated(constant_driver(c), None, None, n, lam, gamma_exp, backend="exact")
        grid = np.arange(n + 1, dtype=float)
        want = [
            c * sum(np.exp(-lam * (j**gamma_exp - grid[m] ** gamma_exp)) for j in range(m + 1, n + 1))
            for m in range(n + 1)
        ]
        assert_allclose(sol.y[0], want, rtol=1e-10, atol=1e-300)

    def test_steep_discount_stays_finite_at_long_horizons(self):
        # exp(+lam n^gamma) would overflow here; the ratio recursion must not.
        sol = solve_truncated(constant_driver(1.0), None, None, 60, 1.0, 2.0, backend="exact")
        assert np.all(np.isfinite(sol.y)), "deep-horizon solution lost finiteness"
        assert_allclose(
            sol.y[0, 0], 0.386318602413326, rtol=0, atol=1e-12,
            err_msg="Y_0 should equal sum_j>=1 exp(-j^2) at this horizon",
        )

    def test_the_terminal_step_evaluates_f_and_g_at_z_zero(self):
        # Z_N does not exist, so the terminal step hands f and g z = 0; every
        # other step of a solve along a state hands them the fitted Z.
        seen = {"f": {}, "g": {}}

        def recording(name, c):
            def driver(n, x, y, z, u):
                seen[name][n] = np.copy(z)
                return c + 0.2 * z
            return driver

        sol = solve_truncated(DriverSpec(f=recording("f", 0.7)), None, None, 3, 1.0, 2.0, "exact")
        assert seen["f"] == {1: 0.0, 2: 0.0, 3: 0.0} and not seen["g"]
        assert_allclose(sol.y[0], CONST_Y, rtol=0, atol=1e-12)
        seen["f"].clear()
        sys, state = simulate_white(6, 3000, seed=41, hurst=0.7)
        driver = DriverSpec(f=recording("f", 0.7), g=recording("g", 0.3))
        sol = solve_truncated(driver, state, sys, 5, 0.3, 1.5, "regression")
        for name in ("f", "g"):
            assert sorted(seen[name]) == [1, 2, 3, 4, 5]
            assert np.array_equal(seen[name][5], np.zeros(3000))
            for m in range(1, 5):
                assert np.array_equal(seen[name][m], sol.z[:, m]), (name, m)
        assert np.any(sol.z[:, 1:5] != 0.0), "the fitted Z must reach the driver"

    def test_investment_adjoint_frozen_values(self):
        # Consumption at {2}, N = 2: chi = (0, 0, 1), k = (0, -1, -1.5).
        r, q_weight = 0.05, 1.0
        chi = np.array([0.0, 0.0, 1.0])
        k = np.array([0.0, -1.0, -1.5])
        b_x = (1 + r) * (1 - 0.5 * chi) - 1
        f_x = -q_weight * chi

        def f(n, x, y, z, u):
            return b_x[n] * y - f_x[n] * k[n]

        sol = solve_truncated(DriverSpec(f=f), None, None, 2, 1.0, 2.0, backend="exact")
        assert_allclose(
            sol.y[0], [ADJOINT_P0, ADJOINT_P1, 0.0], rtol=0, atol=1e-15,
            err_msg=f"adjoint values {sol.y[0]} off the frozen recursion",
        )
        assert_allclose(sol.z, 0.0, rtol=0, atol=0, err_msg="deterministic adjoint must have q = 0")

    @pytest.mark.parametrize("n_controls", [5, 4])
    def test_a_stateless_solve_reads_controls_as_the_array_loop_does(self, n_controls):
        # Four controls end before the terminal step 4, where u is then NaN.
        controls = 0.5 ** np.arange(n_controls)
        driver = DriverSpec(f=lambda n, x, y, z, u: 0.3 * y + u)
        zeros = np.zeros((1, 4))
        one_path = StatePath(
            values=np.zeros((1, 5)), controls=controls[None],
            noise=NoiseEnsemble(seed=0, eta=zeros, xi=zeros),
        )
        solves = [
            lambda: solve_truncated(driver, None, None, 4, 0.5, 1.5, "exact", control_values=controls),
            lambda: solve_truncated(driver, one_path, None, 4, 0.5, 1.5, "exact"),
        ]
        if n_controls == 4:
            for solve in solves:
                with pytest.raises(NumericalError, match="non-finite at step 3"):
                    solve()
            return
        floats, array_loop = (solve() for solve in solves)
        assert np.array_equal(floats.y, array_loop.y) and np.array_equal(floats.z, array_loop.z)
        assert floats.y[0, 3] != 0.0, "the controls must reach the driver"

    def test_exact_backend_rejects_stochastic_targets(self):
        sys, state = simulate_white(4, 32, seed=5)
        driver = DriverSpec(f=lambda n, x, y, z, u: x + 0.0 * y)
        with pytest.raises(ContractError, match="regression backend"):
            solve_truncated(driver, state, sys, 4, 1.0, 2.0, backend="exact")

    def test_noise_term_vanishes_for_white_noise(self):
        # At H = 0.5 every prediction is zero, so a g-term changes nothing
        # and deterministic targets survive the exact backend.
        sys, state = simulate_white(4, 16, seed=9)
        plain = constant_driver(0.4)
        with_g = DriverSpec(f=plain.f, g=lambda n, x, y, z, u: 2.0 + 0.0 * y)
        sol_g = solve_truncated(with_g, state, sys, 3, 1.0, 2.0, backend="exact")
        sol = solve_truncated(plain, None, None, 3, 1.0, 2.0, backend="exact")
        assert_allclose(sol_g.y[0], sol.y[0], rtol=0, atol=1e-15)

    def test_validation_errors(self):
        driver = constant_driver(1.0)
        with pytest.raises(ContractError, match="truncation"):
            solve_truncated(driver, None, None, 0, 1.0, 2.0, backend="exact")
        with pytest.raises(ContractError, match="lam"):
            solve_truncated(driver, None, None, 3, -1.0, 2.0, backend="exact")
        with pytest.raises(ContractError, match="regression backend needs"):
            solve_truncated(driver, None, None, 3, 1.0, 2.0, backend="regression")
        with_g = DriverSpec(f=driver.f, g=lambda n, x, y, z, u: 1.0 + 0.0 * y)
        with pytest.raises(ContractError, match="innovation system"):
            solve_truncated(with_g, None, None, 3, 1.0, 2.0, backend="exact")

    @pytest.mark.parametrize(
        "truncation,lam,gamma_exp,message",
        [
            (2.5, 1.0, 2.0, "truncation must be an integer"),
            (3.0, 1.0, 2.0, "truncation must be an integer"),
            (True, 1.0, 2.0, "truncation must be an integer"),
            ("3", 1.0, 2.0, "truncation must be an integer"),
            (3, float("nan"), 2.0, "lam must be a finite number"),
            (3, float("inf"), 2.0, "lam must be a finite number"),
            (3, True, 2.0, "lam must be a finite number"),
            (3, 1.0, float("nan"), "gamma_exp must be a finite number"),
            (3, 1.0, float("inf"), "gamma_exp must be a finite number"),
            (3, 1.0, 1.0, "gamma_exp > 1"),
        ],
    )
    def test_rejects_malformed_parameters(self, truncation, lam, gamma_exp, message):
        with pytest.raises(ContractError, match=message):
            solve_truncated(constant_driver(1.0), None, None, truncation, lam, gamma_exp,
                            backend="exact")

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize("name", ["window", "degree"])
    def test_basis_sizes_must_be_integers(self, name, value):
        with pytest.raises(ContractError, match=f"{name} must be an integer"):
            solve_truncated(constant_driver(1.0), None, None, 3, 1.0, 2.0, backend="exact",
                            **{name: value})

    @pytest.mark.parametrize("name", ["window", "degree"])
    def test_basis_sizes_must_be_nonnegative(self, name):
        with pytest.raises(ContractError, match="window >= 0 and degree >= 0"):
            solve_truncated(constant_driver(1.0), None, None, 3, 1.0, 2.0, backend="exact",
                            **{name: -1})

    def test_numpy_integer_basis_sizes(self):
        sys, state = simulate_white(4, 50, seed=3)
        sol = solve_truncated(constant_driver(1.0), state, sys, 4, 1.0, 2.0,
                              window=np.int64(2), degree=np.int32(2))
        want = solve_truncated(constant_driver(1.0), state, sys, 4, 1.0, 2.0, window=2, degree=2)
        assert np.array_equal(sol.y, want.y) and np.array_equal(sol.z, want.z)
        assert sol.diagnostics == want.diagnostics

    def test_numpy_integer_truncation(self):
        sol = solve_truncated(constant_driver(0.7), None, None, np.int64(3), 1.0, 2.0,
                              backend="exact")
        assert sol.truncation == 3
        assert_allclose(sol.y[0], CONST_Y, rtol=0, atol=1e-12)

    def test_horizon_contracts(self):
        sys, state = simulate_white(4, 8, seed=3)
        with pytest.raises(ContractError, match="shorter than truncation"):
            solve_truncated(constant_driver(1.0), state, sys, 9, 1.0, 2.0, backend="exact")
        with_g = DriverSpec(
            f=lambda n, x, y, z, u: 0.0 * y, g=lambda n, x, y, z, u: 1.0 + 0.0 * y
        )
        with pytest.raises(ContractError, match="system horizon"):
            # predictions at prefix length 4 need a 5-step system
            solve_truncated(with_g, state, sys, 4, 1.0, 2.0, backend="exact")


class TestRegressionBackend:
    def test_abs_state_model_matches_closed_form(self):
        # X_m = xi_{m-1} and f = |x|; at H = 0.5 the true solution is the
        # deterministic sequence frozen above and Z vanishes.
        _, state = simulate_white(6, 20000, seed=21)
        driver = DriverSpec(f=lambda n, x, y, z, u: np.abs(x) + 0.0 * y)
        sol = solve_truncated(driver, state, None, 6, 0.3, 1.5, backend="regression")
        got = sol.y.mean(axis=0)
        assert_allclose(
            got, ABSMODEL_Y, rtol=0, atol=0.03,
            err_msg=f"fitted means {got} drifted from the closed form {ABSMODEL_Y}",
        )
        assert np.max(np.abs(sol.z.mean(axis=0))) < 0.03, "Z should vanish for this model"
        assert np.max(sol.y.std(axis=0)) < 0.06, "fitted values should be near-constant across paths"

    def test_z_recovers_the_innovation_loading(self):
        # f = x with X_{m} = xi_{m-1}: the step-n target is d * (Y_{n+1} + xi_n),
        # so Z_n approximates d_{n+1} while Y_n is near zero.
        lam, gamma_exp = 0.3, 1.5
        _, state = simulate_white(6, 20000, seed=22)
        driver = DriverSpec(f=lambda n, x, y, z, u: x + 0.0 * y)
        sol = solve_truncated(driver, state, None, 6, lam, gamma_exp, backend="regression")
        grid = np.arange(7, dtype=float)
        ratios = np.exp(-lam * np.diff(grid**gamma_exp))
        assert_allclose(
            sol.z.mean(axis=0), ratios, rtol=0, atol=0.05,
            err_msg="Z must pick up the coefficient of the step innovation",
        )
        assert np.max(np.abs(sol.y.mean(axis=0))) < 0.05

    def test_future_noise_reshuffle_moves_fits_only_by_refit_noise(self):
        # Fitted Y_3 reads the future only through refitted coefficients, so a
        # path permutation of all noise beyond step 3 must not move its law.
        n_check = 3
        _, state = simulate_white(6, 20000, seed=23)
        driver = DriverSpec(f=lambda n, x, y, z, u: np.abs(x) + 0.0 * y)
        base = solve_truncated(driver, state, None, 6, 0.3, 1.5, backend="regression")

        rng = np.random.default_rng(99)
        perm = rng.permutation(state.n_paths)
        eta = state.noise.eta.copy()
        xi = state.noise.xi.copy()
        eta[:, n_check + 1 :] = eta[perm, n_check + 1 :]
        xi[:, n_check + 1 :] = xi[perm, n_check + 1 :]
        shuffled_noise = NoiseEnsemble(seed=state.noise.seed, eta=eta, xi=xi)
        control = ControlProcess(values=np.zeros(6))
        shuffled_state = simulate_state(last_increment_model(), control, shuffled_noise, 0.0)
        shuf = solve_truncated(driver, shuffled_state, None, 6, 0.3, 1.5, backend="regression")

        base_col, shuf_col = base.y[:, n_check], shuf.y[:, n_check]
        assert abs(base_col.mean() - shuf_col.mean()) < 0.02, (
            f"means moved: {base_col.mean():.4f} vs {shuf_col.mean():.4f}"
        )
        assert abs(base_col.std() - shuf_col.std()) < 0.05

    def test_window_shorter_than_history_limits_the_basis(self, monkeypatch):
        _, state = simulate_white(5, 4000, seed=31)
        driver = DriverSpec(f=lambda n, x, y, z, u: x + 0.0 * y)
        widths = []

        def recording(targets, features, *args, **kwargs):
            widths.append(features.shape[1])
            return conditional_expectation(targets, features, *args, **kwargs)

        monkeypatch.setattr(backward, "conditional_expectation", recording)
        sol = solve_truncated(driver, state, None, 5, 0.3, 1.5, backend="regression", window=1)
        assert widths == [1, 1, 1, 1, 0]
        assert np.all(np.isfinite(sol.y))

    def test_matches_one_fit_per_target(self):
        # f reads z, so both fitted columns feed the next step.
        _, state = simulate_white(5, 3000, seed=41, hurst=0.7)

        def f(n, x, y, z, u):
            return np.abs(x) + 0.3 * y + 0.2 * z

        sol = solve_truncated(DriverSpec(f=f), state, None, 5, 0.3, 1.5, backend="regression")
        want_y, want_z = reference_regression_solve(f, state, 5, 0.3, 1.5, window=3, degree=2)
        assert_allclose(sol.y, want_y, rtol=0, atol=1e-12)
        assert_allclose(sol.z, want_z, rtol=0, atol=1e-12)

    def test_rank_deficient_fit_names_its_step(self):
        # xi_0 = 0 on every path: with window 1 only step 1 regresses on it.
        _, state = simulate_white(4, 200, seed=43)
        xi = state.noise.xi.copy()
        xi[:, 0] = 0.0
        noise = NoiseEnsemble(seed=state.noise.seed, eta=state.noise.eta, xi=xi)
        flat = simulate_state(last_increment_model(), ControlProcess(values=np.zeros(4)), noise, 0.0)
        driver = DriverSpec(f=lambda n, x, y, z, u: x + 0.0 * y)
        with pytest.raises(NumericalError, match="step 1: regression design is rank-deficient") as err:
            solve_truncated(driver, flat, None, 4, 0.3, 1.5, backend="regression", window=1)
        assert err.value.detail["step"] == 1
        assert err.value.detail["basis"] == ["1", "x0", "x0*x0"]
        assert len(err.value.detail["singular_values"]) == 3

    def test_fit_health_reports_every_step(self):
        _, state = simulate_white(5, 3000, seed=41, hurst=0.7)
        driver = DriverSpec(f=lambda n, x, y, z, u: np.abs(x) + 0.3 * y + 0.2 * z)
        sol = solve_truncated(driver, state, None, 5, 0.3, 1.5, backend="regression")
        singular = [
            np.linalg.svd(reference_design(state.noise.xi[:, max(0, n - 3) : n], 2)[0],
                          compute_uv=False)
            for n in range(5)
        ]
        assert_allclose(sol.diagnostics["fit_min_singular"], min(s[-1] for s in singular),
                        rtol=1e-10, atol=0)
        assert_allclose(sol.diagnostics["fit_max_cond"], max(s[0] / s[-1] for s in singular),
                        rtol=1e-10, atol=0)
        assert sol.diagnostics["fit_fallbacks"] == 0
        json.dumps(sol.diagnostics)
        assert set(sol.diagnostics) == {"fit_min_singular", "fit_max_cond", "fit_fallbacks"}
        assert solve_truncated(constant_driver(1.0), None, None, 3, 1.0, 2.0, "exact").diagnostics == {}
        sys, state = simulate_white(4, 32, seed=5)
        assert solve_truncated(constant_driver(1.0), state, sys, 3, 1.0, 2.0, "exact").diagnostics == {}

    def test_near_collinear_step_is_counted_as_a_fallback(self):
        # xi_1 nearly repeats xi_0: with window 2 only step 2 regresses on both.
        _, state = simulate_white(4, 2000, seed=47)
        xi = state.noise.xi.copy()
        xi[:, 1] = xi[:, 0] + 1e-3 * np.random.default_rng(3).standard_normal(2000)
        noise = NoiseEnsemble(seed=state.noise.seed, eta=state.noise.eta, xi=xi)
        near = simulate_state(last_increment_model(), ControlProcess(values=np.zeros(4)), noise, 0.0)

        def f(n, x, y, z, u):
            return np.abs(x) + 0.3 * y + 0.2 * z

        sol = solve_truncated(DriverSpec(f=f), near, None, 4, 0.3, 1.5, window=2)
        assert sol.diagnostics["fit_fallbacks"] == 1
        assert sol.diagnostics["fit_max_cond"] > 1e6
        # At condition number 5e6 the SVD solve itself moves by about 2.5e-11
        # between one right-hand side and two.
        want_y, want_z = reference_regression_solve(f, near, 4, 0.3, 1.5, window=2, degree=2)
        assert_allclose(sol.y, want_y, rtol=0, atol=1e-10)
        assert_allclose(sol.z, want_z, rtol=0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trunc=st.integers(1, 8),
        window=st.integers(0, 5),
        degree=st.integers(0, 3),
        hurst=st.sampled_from([0.25, 0.5, 0.75]),
        path_major=st.booleans(),
    )
    def test_rolled_solve_matches_a_fresh_fit_per_step(
        self, seed, n_trunc, window, degree, hurst, path_major
    ):
        # Horizons from 1 to 8 fall both short of and past windows up to 5.
        _, state = simulate_white(n_trunc, 1500, seed, hurst)
        if path_major:  # an ensemble built by hand, in C order
            noise = NoiseEnsemble(seed=seed, eta=np.ascontiguousarray(state.noise.eta),
                                  xi=np.ascontiguousarray(state.noise.xi))
            assert noise.xi.flags.c_contiguous
            state = StatePath(values=state.values, controls=state.controls, noise=noise)

        def f(n, x, y, z, u):
            return np.abs(x) + 0.3 * y + 0.2 * z

        sol = solve_truncated(DriverSpec(f=f), state, None, n_trunc, 0.3, 1.5,
                              window=window, degree=degree)
        want_y, want_z = reference_regression_solve(f, state, n_trunc, 0.3, 1.5, window, degree)
        assert sol.diagnostics["fit_fallbacks"] == 0
        assert np.max(np.abs(sol.y - want_y)) <= 1e-12 * np.max(np.abs(want_y))
        assert np.max(np.abs(sol.z - want_z)) <= 1e-12 * np.max(np.abs(want_z))

    def test_rolled_steps_after_an_svd_step_match_fresh_fits(self):
        # xi_3 nearly repeats xi_2: with window 2 only step 4 regresses on
        # both, a rolled step that takes the SVD solve; steps 3..0 roll on.
        _, state = simulate_white(6, 2000, seed=53)
        xi = state.noise.xi.copy()
        xi[:, 3] = xi[:, 2] + 1e-3 * np.random.default_rng(4).standard_normal(2000)
        noise = NoiseEnsemble(seed=state.noise.seed, eta=state.noise.eta, xi=xi)
        near = simulate_state(last_increment_model(), ControlProcess(values=np.zeros(6)), noise, 0.0)

        def f(n, x, y, z, u):
            return np.abs(x) + 0.3 * y + 0.2 * z

        sol = solve_truncated(DriverSpec(f=f), near, None, 6, 0.3, 1.5, window=2)
        assert sol.diagnostics["fit_fallbacks"] == 1
        want_y, want_z = fresh_fit_solve(f, near, 6, 0.3, 1.5, window=2, degree=2)
        assert np.array_equal(sol.y[:, 4:], want_y[:, 4:]), "the SVD step is the fresh fit's"
        assert np.max(np.abs(sol.y - want_y)) <= 1e-12 * np.max(np.abs(want_y))
        assert np.max(np.abs(sol.z - want_z)) <= 1e-12 * np.max(np.abs(want_z))

    def test_a_rank_deficient_rolled_step_names_its_canonical_basis(self):
        # xi_2 = 0: step 4, the first rolled step, regresses on it, and its
        # design holds the kept columns of step 5 out of canonical order.
        _, state = simulate_white(6, 200, seed=43)
        xi = state.noise.xi.copy()
        xi[:, 2] = 0.0
        noise = NoiseEnsemble(seed=state.noise.seed, eta=state.noise.eta, xi=xi)
        flat = simulate_state(last_increment_model(), ControlProcess(values=np.zeros(6)), noise, 0.0)
        driver = DriverSpec(f=lambda n, x, y, z, u: x + 0.0 * y)
        with pytest.raises(NumericalError, match="step 4: regression design is rank-deficient") as err:
            solve_truncated(driver, flat, None, 6, 0.3, 1.5, backend="regression", window=2)
        assert err.value.detail["step"] == 4
        assert err.value.detail["basis"] == ["1", "x0", "x1", "x0*x0", "x0*x1", "x1*x1"]
        assert len(err.value.detail["singular_values"]) == 6

    def test_too_few_paths_for_the_basis(self):
        _, state = simulate_white(4, 5, seed=33)
        driver = DriverSpec(f=lambda n, x, y, z, u: x + 0.0 * y)
        with pytest.raises(ContractError, match="cannot support"):
            solve_truncated(driver, state, None, 4, 0.3, 1.5, backend="regression")


class TestCauchyDiagnostic:
    def test_constant_driver_frozen_decay(self):
        params = WeightedNormParams(lam=0.3, gamma_exp=1.5, base_power=1.0, direction="backward")
        rows = cauchy_diagnostic(
            constant_driver(1.0), None, None, [4, 8, 16], params, backend="exact"
        )
        got = [row["norm_y"] for row in rows]
        assert_allclose(
            got, [CAUCHY_4_8, CAUCHY_8_16], rtol=1e-10, atol=0,
            err_msg=f"truncation-difference norms {got} off the frozen recursion",
        )
        assert got[0] > got[1], "differences must shrink as horizons grow"
        assert all(row["norm_z"] == 0.0 for row in rows)

    def test_rows_are_json_serializable(self):
        params = WeightedNormParams(lam=0.5, gamma_exp=1.5, base_power=1.0, direction="backward")
        rows = cauchy_diagnostic(
            constant_driver(0.3), None, None, [2, 4], params, backend="exact"
        )
        parsed = json.loads(json.dumps(rows))
        assert parsed[0]["n_low"] == 2 and parsed[0]["n_high"] == 4
        assert set(parsed[0]) == {"n_low", "n_high", "norm_y", "norm_z", "tail_term"}

    def test_needs_two_levels(self):
        params = WeightedNormParams(lam=0.5, gamma_exp=1.5, base_power=1.0, direction="backward")
        with pytest.raises(ContractError, match="two truncation levels"):
            cauchy_diagnostic(constant_driver(1.0), None, None, [4], params, backend="exact")
        with pytest.raises(ContractError, match="truncation level must be an integer"):
            cauchy_diagnostic(constant_driver(1.0), None, None, [2, 4.5], params, backend="exact")

    def test_repeated_levels_are_refused(self):
        # A repeated level once gave a row of zero differences.
        params = WeightedNormParams(lam=0.5, gamma_exp=1.5, base_power=1.0, direction="backward")
        with pytest.raises(ContractError, match=r"distinct, got \[4, 4, 8\]"):
            cauchy_diagnostic(constant_driver(1.0), None, None, [4, 4, 8], params, backend="exact")

    def test_regression_rows_difference_two_direct_solves(self):
        lam, gamma_exp = 0.3, 1.5
        params = WeightedNormParams(lam=lam, gamma_exp=gamma_exp, base_power=1.0, direction="backward")
        _, state = simulate_white(6, 2000, seed=41, hurst=0.75)
        driver = DriverSpec(f=lambda n, x, y, z, u: x + 0.5 * y + 0.2 * z)
        (row,) = cauchy_diagnostic(driver, state, None, [6, 3], params, backend="regression")
        short, long = (
            solve_truncated(driver, state, None, n, lam, gamma_exp, backend="regression")
            for n in (3, 6)
        )
        dy, dz = long.y.copy(), long.z.copy()
        dy[:, :4] -= short.y
        dz[:, :3] -= short.z
        ny, nz = weighted_norm(dy, params), weighted_norm(dz, params)
        assert (row["n_low"], row["n_high"]) == (3, 6)
        assert_allclose(
            [row["norm_y"], row["norm_z"], row["tail_term"]], [ny.value, nz.value, ny.tail_term],
            rtol=1e-12, atol=0,
        )
        assert row["norm_z"] > 0.0, "the regression Z differences must be live"


def write_solution_table(solution, path):
    """(path_id, n, Y, Z) rows of a solve; Z is empty at the terminal."""
    write_csv(path, "path_id,n,Y,Z", [(solution.y.shape, [0, 1, solution.y, solution.z])])


class TestSolutionShapes:
    @staticmethod
    def solution(y, z):
        return BsdeSolution(y=y, z=z, lam=0.5, gamma_exp=1.5, backend="exact")

    @pytest.mark.parametrize("y", [np.zeros(5), np.zeros((2, 5, 1)), np.float64(1.0), np.zeros((2, 0))],
                             ids=["1-D", "3-D", "scalar", "no step"])
    def test_y_that_is_not_paths_by_steps_is_refused(self, y):
        with pytest.raises(ContractError, match=rf"y must have shape \(paths, N \+ 1\).*{re.escape(str(np.shape(y)))}"):
            self.solution(y, np.zeros((1, 4)))

    @pytest.mark.parametrize("z_shape", [(2, 5), (2, 3), (1, 4), (4,), (2, 4, 1)])
    def test_z_that_does_not_match_y_is_refused(self, z_shape):
        with pytest.raises(ContractError, match=re.escape(f"z must have shape (2, 4) to match y of shape (2, 5), got {z_shape}")):
            self.solution(np.zeros((2, 5)), np.zeros(z_shape))

    def test_matching_shapes_are_kept_as_given(self):
        y, z = np.zeros((3, 1)), np.zeros((3, 0))
        solution = self.solution(y, z)
        assert solution.y is y and solution.z is z and solution.truncation == 0


class TestSolutionCsv:
    def test_step_major_solution_writes_the_c_order_bytes(self, tmp_path):
        _, state = simulate_white(5, 300, seed=51, hurst=0.7)
        driver = DriverSpec(f=lambda n, x, y, z, u: np.abs(x) + 0.3 * y + 0.2 * z)
        sol = solve_truncated(driver, state, None, 5, 0.3, 1.5, backend="regression")
        assert sol.y.T.flags.c_contiguous and sol.z.T.flags.c_contiguous
        copy = BsdeSolution(
            y=np.ascontiguousarray(sol.y), z=np.ascontiguousarray(sol.z), lam=sol.lam,
            gamma_exp=sol.gamma_exp, backend=sol.backend,
        )
        write_solution_table(sol, tmp_path / "step_major.csv")
        write_solution_table(copy, tmp_path / "c_order.csv")
        assert (tmp_path / "step_major.csv").read_bytes() == (tmp_path / "c_order.csv").read_bytes()

    def test_roundtrip(self, tmp_path):
        sol = solve_truncated(constant_driver(0.7), None, None, 3, 1.0, 2.0, backend="exact")
        out = tmp_path / "solution.csv"
        write_solution_table(sol, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path_id,n,Y,Z"
        assert len(lines) == 1 + 4
        terminal = lines[-1].split(",")
        assert terminal[1] == "3" and terminal[3] == ""
        y_back = [float(line.split(",")[2]) for line in lines[1:]]
        assert_allclose(y_back, sol.y[0], rtol=0, atol=0, err_msg="CSV must round-trip exactly")
