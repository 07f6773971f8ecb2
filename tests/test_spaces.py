"""Tests for discount weights, delta ladders, and truncated weighted norms."""

import dataclasses

import numpy as np
import pytest

from fracctrl import spaces as sp
from fracctrl.errors import ContractError

BOUND_THETA2 = 0.5817778142098083  # exp(-1/2 - 1/24)
BOUND_THETA3 = 0.876998497358217  # exp(-1/8 - 1/160)
CONST_NORM_N5 = 1.386318602413326  # sum exp(-n^2), n = 0..5


class TestProducts:
    def test_initial_and_monotone(self):
        s = sp.delta_products(2.0, 500)
        assert s[0] == 1.0
        assert np.all(np.diff(s) < 0), "running products strictly decrease"

    def test_first_product_is_first_term(self):
        np.testing.assert_allclose(sp.delta_products(2.0, 1)[1], 8.0 / 9.0, rtol=1e-15)

    @pytest.mark.parametrize("theta", [1.5, 2.0, 3.0, 5.0])
    def test_bounded_below(self, theta):
        s = sp.delta_products(theta, 100_000)
        bound = sp.product_lower_bound(theta)
        assert np.min(s) >= bound, f"theta={theta}: min {np.min(s)} < bound {bound}"

    def test_bound_frozen_values(self):
        np.testing.assert_allclose(sp.product_lower_bound(2.0), BOUND_THETA2, rtol=1e-12)
        np.testing.assert_allclose(sp.product_lower_bound(3.0), BOUND_THETA3, rtol=1e-12)
        assert 0.998 < sp.product_lower_bound(10.0) < 1.0

    def test_theta2_limit_is_two_thirds(self):
        # prod (1 - (i+2)^-2) telescopes to (2/3)(n+3)/(n+2)
        s = sp.delta_products(2.0, 1_000_000)
        np.testing.assert_allclose(s[-1], 2.0 / 3.0, rtol=1e-5)

    def test_domain(self):
        for n_max in (-1, 2.7, None):
            with pytest.raises(ContractError, match="n_max"):
                sp.delta_products(2.0, n_max)
        for theta in (np.nan, np.inf, True, "2.0", 1.0):
            with pytest.raises(ContractError, match="theta"):
                sp.product_lower_bound(theta)


class TestWeightedNorm:
    def test_constant_path_frozen_value(self):
        # powers are irrelevant on |x| = 1; the norm is the pure discount sum
        for params in (
            sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=2.0, theta=2.0),
            sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=4.0, direction="backward", theta=3.0),
        ):
            res = sp.weighted_norm(np.ones(6), params)
            np.testing.assert_allclose(res.value, CONST_NORM_N5, rtol=1e-12)

    def test_tail_term(self):
        params = sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=2.0)
        res = sp.weighted_norm(np.ones(6), params)
        np.testing.assert_allclose(res.tail_term, np.exp(-25.0), rtol=1e-12)
        assert [f.name for f in dataclasses.fields(res)] == ["value", "tail_term"]

    def test_zero_path(self):
        params = sp.WeightedNormParams(lam=0.5, gamma_exp=1.5, base_power=2.0, theta=2.0)
        assert sp.weighted_norm(np.zeros(10), params).value == 0.0

    def test_ensemble_mean(self):
        # two paths with |x| = 0 and 2: mean |x|^2 = 2 at every step
        params = sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=2.0)
        values = np.vstack([np.zeros(4), 2.0 * np.ones(4)])
        want = 2.0 * np.sum(np.exp(-np.arange(4.0) ** 2))
        np.testing.assert_allclose(sp.weighted_norm(values, params).value, want, rtol=1e-12)

    def test_a_shorter_truncation_slices_values(self):
        params = sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=2.0, theta=2.0)
        values = np.random.default_rng(3).standard_normal((7, 10))
        res = sp.weighted_norm(values[:, :6], params)
        want = params.weights(5) * np.mean(np.abs(values[:, :6]) ** params.exponents(5), axis=0)
        assert res.value == float(np.sum(want)) and res.tail_term == float(want[-1])
        np.testing.assert_allclose(sp.weighted_norm(np.ones(10)[:6], params).value, CONST_NORM_N5, rtol=1e-12)

    def test_direction_of_exponents(self):
        fwd = sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=2.0, theta=2.0)
        bwd = sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=2.0, direction="backward", theta=2.0)
        assert np.all(fwd.exponents(20)[1:] < 2.0)
        assert np.all(bwd.exponents(20)[1:] > 2.0)
        np.testing.assert_allclose(
            fwd.exponents(20) * bwd.exponents(20), 4.0, rtol=1e-12
        )

    def test_plain_powers_when_theta_absent(self):
        params = sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=2.0)
        np.testing.assert_array_equal(params.exponents(5), np.full(6, 2.0))

    def test_param_validation(self):
        with pytest.raises(ContractError):
            sp.WeightedNormParams(lam=0.0, gamma_exp=2.0, base_power=2.0)
        with pytest.raises(ContractError):
            sp.WeightedNormParams(lam=1.0, gamma_exp=1.0, base_power=2.0)
        with pytest.raises(ContractError):
            sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=2.0, direction="sideways")
        params = sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=2.0)
        for values in (np.ones((2, 2, 2)), np.ones(0), np.ones((3, 0)), np.float64(1.0)):
            with pytest.raises(ContractError, match="values must be 1- or 2-dimensional"):
                sp.weighted_norm(values, params)
        with pytest.raises(TypeError):
            sp.weighted_norm(np.ones(4), params, truncation=2)

    @pytest.mark.parametrize(
        "values",
        ["abc", ["1", "x"], None, [1.0, np.nan], np.array([[1.0, 2.0], [np.inf, 0.0]]), -np.inf,
         [[1.0, 2.0], [3.0]]],
        ids=["string", "strings", "none", "nan", "inf", "scalar-inf", "ragged"],
    )
    def test_non_numbers_and_non_finite_values_are_refused(self, values):
        params = sp.WeightedNormParams(lam=1.0, gamma_exp=2.0, base_power=2.0)
        with pytest.raises(ContractError, match="values must be finite numbers"):
            sp.weighted_norm(values, params)

    def test_finite_values_keep_the_direct_sum(self):
        params = sp.WeightedNormParams(lam=0.3, gamma_exp=1.5, base_power=1.5, theta=2.0)
        values = np.random.default_rng(5).standard_normal((40, 9))
        terms = params.weights(8) * np.mean(np.abs(values) ** params.exponents(8), axis=0)
        got = sp.weighted_norm(values, params)
        assert got.value == float(np.sum(terms)) and got.tail_term == float(terms[-1])
        assert sp.weighted_norm([1, 2, 3], params) == sp.weighted_norm(np.array([1.0, 2.0, 3.0]), params)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lam", np.nan),
            ("lam", np.inf),
            ("gamma_exp", np.nan),
            ("gamma_exp", np.inf),
            ("base_power", np.inf),
            ("base_power", np.nan),
            ("base_power", True),
            ("lam", "1.0"),
            ("theta", np.nan),
            ("theta", np.inf),
            ("theta", 0.5),
        ],
    )
    def test_rejects_non_finite_and_mistyped_fields(self, field, value):
        kwargs = {"lam": 1.0, "gamma_exp": 2.0, "base_power": 2.0, field: value}
        with pytest.raises(ContractError, match=field):
            sp.WeightedNormParams(**kwargs)

