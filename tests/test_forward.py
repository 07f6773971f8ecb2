"""Tests for state simulation, first variations, and control perturbation."""

import re

import numpy as np
import pytest

from fracctrl import forward as fw
from fracctrl import fracnoise as fn
from fracctrl import spaces as sp
from fracctrl.errors import ContractError, NumericalError


def constant_coeffs(b_val=0.0, s_val=0.0):
    return fw.CoefficientSet(
        b=lambda n, x, u: b_val,
        sigma=lambda n, x, u: s_val,
        b_x=lambda n, x, u: 0.0,
        b_u=lambda n, x, u: 0.0,
        sigma_x=lambda n, x, u: 0.0,
        sigma_u=lambda n, x, u: 0.0,
    )


def wealth_coeffs(mu=0.15, r=0.05, c=0.5, sigma=0.2, times=frozenset()):
    # b = (1+r)(x - c x chi) - x + (mu - r) u,  sigma-coefficient = sigma * u
    def chi(n):
        return 1.0 if n in times else 0.0

    return fw.CoefficientSet(
        b=lambda n, x, u: (1 + r) * (x - c * x * chi(n)) - x + (mu - r) * u,
        sigma=lambda n, x, u: sigma * u,
        b_x=lambda n, x, u: (1 + r) * (1 - c * chi(n)) - 1,
        b_u=lambda n, x, u: mu - r,
        sigma_x=lambda n, x, u: 0.0,
        sigma_u=lambda n, x, u: sigma,
    )


@pytest.fixture(scope="module")
def noise16():
    sys = fn.build_innovation_system(0.75, 16)
    return fn.sample_ensemble(sys, seed=42, n_paths=64)


class TestControlProcess:
    def test_exactly_one_source(self):
        with pytest.raises(ContractError):
            fw.ControlProcess()
        with pytest.raises(ContractError):
            fw.ControlProcess(values=np.zeros(3), rule=lambda n, x, h: 0.0)

    def test_at_broadcasts_shared_values(self):
        u = fw.ControlProcess(values=np.array([1.0, 2.0]))
        out = u.at(1, np.zeros(5), np.zeros((5, 1)))
        np.testing.assert_array_equal(out, np.full(5, 2.0))

    def test_rule_sees_history(self):
        seen = {}

        def rule(n, x, xi_hist):
            seen[n] = xi_hist.shape
            return np.zeros(x.shape)

        sys = fn.build_innovation_system(0.5, 4)
        noise = fn.sample_ensemble(sys, seed=1, n_paths=3)
        fw.simulate_state(constant_coeffs(), fw.ControlProcess(rule=rule), noise, 0.0)
        assert seen == {0: (3, 0), 1: (3, 1), 2: (3, 2), 3: (3, 3)}


    def test_at_returns_a_full_float_rule_output_as_is(self):
        x = np.zeros(4)
        out = np.arange(4.0)
        assert fw.ControlProcess(rule=lambda n, x, h: out).at(0, x, np.zeros((4, 0))) is out

    @pytest.mark.parametrize(
        "value",
        [0.5, np.arange(4), np.full(4, 0.5, dtype=np.float32), np.array([0.5])],
        ids=["scalar", "int", "float32", "one-element"],
    )
    def test_at_broadcasts_and_casts_other_rule_outputs(self, value):
        out = fw.ControlProcess(rule=lambda n, x, h: value).at(0, np.zeros(4), np.zeros((4, 0)))
        assert out.dtype == np.float64 and out.shape == (4,)
        np.testing.assert_array_equal(out, np.broadcast_to(np.asarray(value, dtype=float), 4))


def reference_state(coeffs, control, noise, x0):
    """The path-major per-step recursion the simulator must reproduce bit for bit."""
    xi = noise.xi
    n_paths, n_steps = xi.shape
    values = np.empty((n_paths, n_steps + 1))
    controls = np.empty((n_paths, n_steps))
    values[:, 0] = x0
    for n in range(n_steps):
        x = values[:, n].copy()
        u = np.broadcast_to(np.asarray(control(n, x, xi[:, :n]), dtype=float), x.shape)
        controls[:, n] = u
        values[:, n + 1] = x + coeffs.b(n, x, u) + coeffs.sigma(n, x, u) * xi[:, n]
    return values, controls


def reference_variation(coeffs, values, controls, xi, v):
    out = np.zeros(values.shape)
    for n in range(xi.shape[1]):
        x, u, xh = values[:, n], controls[:, n], out[:, n]
        drift = coeffs.b_x(n, x, u) * xh + coeffs.b_u(n, x, u) * v[:, n]
        noise_load = coeffs.sigma_x(n, x, u) * xh + coeffs.sigma_u(n, x, u) * v[:, n]
        out[:, n + 1] = xh + drift + noise_load * xi[:, n]
    return out


class TestStepMajor:
    coeffs = fw.CoefficientSet(
        b=lambda n, x, u: 0.1 * np.tanh(x) + 0.2 * u - 0.01 * n,
        sigma=lambda n, x, u: 0.1 + 0.05 * np.sin(u) * x,
        b_x=lambda n, x, u: 0.1 * (1 - np.tanh(x) ** 2),
        b_u=lambda n, x, u: 0.2,
        sigma_x=lambda n, x, u: 0.05 * np.sin(u),
        sigma_u=lambda n, x, u: 0.05 * np.cos(u) * x,
    )

    @staticmethod
    def rule(n, x, xi_hist):
        return 0.3 * x + xi_hist.sum(axis=1) / (n + 1)

    def test_state_is_bit_identical_to_the_per_step_recursion(self):
        sys = fn.build_innovation_system(0.3, 40)
        noise = fn.sample_ensemble(sys, seed=5, n_paths=257)
        x0 = np.linspace(0.5, 1.5, 257)
        path = fw.simulate_state(self.coeffs, fw.ControlProcess(rule=self.rule), noise, x0)
        values, controls = reference_state(self.coeffs, self.rule, noise, x0)
        assert np.array_equal(path.values, values) and np.array_equal(path.controls, controls)
        assert path.values.shape == (257, 41) and path.controls.shape == (257, 40)
        assert path.values[:, 7].flags.c_contiguous and path.controls[:, 7].flags.c_contiguous

    @pytest.mark.parametrize("shared", [False, True], ids=["per-path", "shared"])
    def test_variation_is_bit_identical_to_the_per_step_recursion(self, shared):
        sys = fn.build_innovation_system(0.3, 40)
        noise = fn.sample_ensemble(sys, seed=6, n_paths=129)
        base = fw.simulate_state(self.coeffs, fw.ControlProcess(rule=self.rule), noise, 1.0)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(42) if shared else rng.standard_normal((129, 42))
        var = fw.simulate_variation(self.coeffs, base, v)
        v_full = np.broadcast_to(v, (129, 42))
        want = reference_variation(self.coeffs, base.values, base.controls, noise.xi, v_full)
        assert np.array_equal(var.values, want)
        assert np.array_equal(var.controls, v_full[:, :40])
        assert var.values[:, 3].flags.c_contiguous

    def test_non_finite_state_names_the_first_step_and_path(self):
        sys = fn.build_innovation_system(0.5, 6)
        noise = fn.sample_ensemble(sys, seed=1, n_paths=5)
        # Paths 2 and 4 blow up at step 3 (the update of step n = 2); path 2 is named.
        blowup = fw.CoefficientSet(
            b=lambda n, x, u: np.where((n == 2) & (np.arange(5) % 2 == 0) & (np.arange(5) > 0),
                                       np.inf, 0.0),
            sigma=lambda n, x, u: 0.0,
            b_x=lambda n, x, u: 0.0,
            b_u=lambda n, x, u: 0.0,
            sigma_x=lambda n, x, u: 0.0,
            sigma_u=lambda n, x, u: 0.0,
        )
        with pytest.raises(NumericalError, match="step 3 on path 2") as err:
            fw.simulate_state(blowup, fw.ControlProcess(values=np.zeros(6)), noise, 1.0)
        assert err.value.detail == {"path": 2, "step": 3}


class TestSimulateState:
    def test_zero_coefficients_freeze_state(self, noise16):
        path = fw.simulate_state(constant_coeffs(), fw.ControlProcess(values=np.zeros(16)), noise16, 3.0)
        np.testing.assert_array_equal(path.values, np.full((64, 17), 3.0))

    def test_unit_sigma_telescopes_to_fbm(self, noise16):
        path = fw.simulate_state(
            constant_coeffs(s_val=1.0), fw.ControlProcess(values=np.zeros(16)), noise16, 0.0
        )
        want = np.cumsum(noise16.xi, axis=1)
        np.testing.assert_allclose(path.values[:, 1:], want, atol=1e-14)
        assert path.horizon == 16 and path.n_paths == 64

    def test_wealth_recursion_without_investment(self):
        sys = fn.build_innovation_system(0.75, 4)
        noise = fn.sample_ensemble(sys, seed=3, n_paths=8)
        coeffs = wealth_coeffs(times=frozenset({10, 20}))
        path = fw.simulate_state(coeffs, fw.ControlProcess(values=np.zeros(4)), noise, 1.0)
        np.testing.assert_allclose(path.values[:, 2], 1.1025, rtol=1e-14)

    def test_consumption_halves_factor(self):
        sys = fn.build_innovation_system(0.75, 3)
        noise = fn.sample_ensemble(sys, seed=3, n_paths=2)
        coeffs = wealth_coeffs(times=frozenset({1}))
        path = fw.simulate_state(coeffs, fw.ControlProcess(values=np.zeros(3)), noise, 1.0)
        # step 1 applies (1+r)(1 - c) = 1.05 * 0.5
        np.testing.assert_allclose(path.values[:, 2], 1.05 * 1.05 * 0.5, rtol=1e-14)

    def test_control_values_of_other_paths_are_refused(self, noise16):
        # np.broadcast_to failed inside ControlProcess.at.
        message = "control values of shape (3, 16) do not match the noise's (64, 16)"
        with pytest.raises(ContractError, match=re.escape(message)):
            fw.simulate_state(constant_coeffs(), fw.ControlProcess(values=np.zeros((3, 16))), noise16, 0.0)
        one_row = fw.simulate_state(constant_coeffs(0.1), fw.ControlProcess(values=np.zeros((1, 16))), noise16, 0.0)
        shared = fw.simulate_state(constant_coeffs(0.1), fw.ControlProcess(values=np.zeros(16)), noise16, 0.0)
        assert np.array_equal(one_row.values, shared.values)

    def test_determinism_bitwise(self, noise16):
        coeffs = wealth_coeffs()
        u = fw.ControlProcess(values=np.full(16, 0.3))
        a = fw.simulate_state(coeffs, u, noise16, 1.0)
        b = fw.simulate_state(coeffs, u, noise16, 1.0)
        assert a.values.tobytes() == b.values.tobytes()

    def test_blowup_names_path_and_step(self):
        sys = fn.build_innovation_system(0.5, 8)
        noise = fn.sample_ensemble(sys, seed=1, n_paths=4)
        exploding = fw.CoefficientSet(
            b=lambda n, x, u: x * x * 1e200,
            sigma=lambda n, x, u: 0.0,
            b_x=lambda n, x, u: 2e200 * x,
            b_u=lambda n, x, u: 0.0,
            sigma_x=lambda n, x, u: 0.0,
            sigma_u=lambda n, x, u: 0.0,
        )
        with np.errstate(over="ignore"), pytest.raises(NumericalError) as err:
            fw.simulate_state(exploding, fw.ControlProcess(values=np.zeros(8)), noise, 1e200)
        assert "step 1" in str(err.value) and "path 0" in str(err.value)

    def test_x0_forms(self, noise16):
        coeffs = constant_coeffs()
        u = fw.ControlProcess(values=np.zeros(16))
        arr = np.linspace(0, 1, 64)
        path = fw.simulate_state(coeffs, u, noise16, arr)
        np.testing.assert_array_equal(path.values[:, 0], arr)
        with pytest.raises(ContractError):
            fw.simulate_state(coeffs, u, noise16, np.zeros(3))

    @pytest.mark.parametrize(
        "x0, needle",
        [(lambda m: np.full(m, 2.0), "a finite number or a per-path array of them, got <function"),
         ("abc", "a finite number or a per-path array of them, got 'abc'"),
         ([1.0, "x"], "a finite number or a per-path array of them, got \\[1.0, 'x'\\]"),
         (None, "a finite number or a per-path array of them, got None"),
         (np.nan, "a finite number or a per-path array of them, got nan"),
         (-np.inf, "a finite number or a per-path array of them, got -inf")],
        ids=["<lambda>-a scalar or an array", "abc-a scalar or an array", "x02-a scalar or an array",
             "None-finite", "nan-finite", "-inf-finite"],
    )
    def test_x0_that_is_not_finite_numbers_is_a_contract_error(self, noise16, x0, needle):
        u = fw.ControlProcess(values=np.zeros(16))
        with pytest.raises(ContractError, match=f"x0 must be {needle}"):
            fw.simulate_state(constant_coeffs(), u, noise16, x0)


class TestVariation:
    @pytest.mark.parametrize("shape", [(3, 16), (1, 64, 16), ()])
    def test_a_direction_of_other_paths_or_dimensions_is_refused(self, noise16, shape):
        # A broadcast at step 0 raised numpy's ValueError.
        coeffs = wealth_coeffs()
        base = fw.simulate_state(coeffs, fw.ControlProcess(values=np.full(16, 0.2)), noise16, 1.0)
        message = f"direction must have shape (steps,) or (64, steps), got {shape}"
        with pytest.raises(ContractError, match=re.escape(message)):
            fw.simulate_variation(coeffs, base, np.zeros(shape))

    def test_zero_direction_stays_zero(self, noise16):
        coeffs = wealth_coeffs()
        base = fw.simulate_state(coeffs, fw.ControlProcess(values=np.full(16, 0.2)), noise16, 1.0)
        var = fw.simulate_variation(coeffs, base, np.zeros(16))
        np.testing.assert_array_equal(var.values, 0.0)

    def test_pure_drift_direction_counts_steps(self, noise16):
        unit_bu = fw.CoefficientSet(
            b=lambda n, x, u: u,
            sigma=lambda n, x, u: 0.0,
            b_x=lambda n, x, u: 0.0,
            b_u=lambda n, x, u: 1.0,
            sigma_x=lambda n, x, u: 0.0,
            sigma_u=lambda n, x, u: 0.0,
        )
        base = fw.simulate_state(unit_bu, fw.ControlProcess(values=np.zeros(16)), noise16, 0.0)
        var = fw.simulate_variation(unit_bu, base, np.ones(16))
        want = np.broadcast_to(np.arange(17.0), var.values.shape)
        np.testing.assert_allclose(var.values, want, atol=1e-14)

    def test_affine_model_variation_is_exact_difference(self, noise16):
        coeffs = wealth_coeffs()
        u_star = fw.ControlProcess(values=np.full(16, 0.2))
        u_tilde = fw.ControlProcess(values=np.full(16, 0.8))
        eps = 1e-2
        base = fw.simulate_state(coeffs, u_star, noise16, 1.0)
        bumped = fw.simulate_state(coeffs, fw.perturb_control(u_star, u_tilde, eps), noise16, 1.0)
        var = fw.simulate_variation(coeffs, base, u_tilde.values - u_star.values)
        np.testing.assert_allclose(bumped.values - base.values, eps * var.values, atol=1e-12)

    def test_nonlinear_quotient_residual_decreases(self):
        coeffs = fw.CoefficientSet(
            b=lambda n, x, u: 0.1 * np.tanh(x) + 0.2 * u,
            sigma=lambda n, x, u: 0.1 + 0.05 * np.sin(u),
            b_x=lambda n, x, u: 0.1 * (1 - np.tanh(x) ** 2),
            b_u=lambda n, x, u: 0.2,
            sigma_x=lambda n, x, u: 0.0,
            sigma_u=lambda n, x, u: 0.05 * np.cos(u),
        )
        sys = fn.build_innovation_system(0.6, 12)
        noise = fn.sample_ensemble(sys, seed=9, n_paths=2000)
        rng = np.random.default_rng(10)
        u_star = fw.ControlProcess(values=rng.uniform(0.0, 1.0, 12))
        u_tilde = fw.ControlProcess(values=rng.uniform(0.0, 1.0, 12))
        base = fw.simulate_state(coeffs, u_star, noise, 0.5)
        var = fw.simulate_variation(coeffs, base, u_tilde.values - u_star.values)
        params = sp.WeightedNormParams(lam=0.5, gamma_exp=1.5, base_power=2.0)
        norms = []
        for eps in (1e-1, 1e-2, 1e-3):
            bumped = fw.simulate_state(coeffs, fw.perturb_control(u_star, u_tilde, eps), noise, 0.5)
            residual = (bumped.values - base.values) / eps - var.values
            norms.append(sp.weighted_norm(residual, params).value)
        assert norms[0] > norms[1] > norms[2], f"residual norms not decreasing: {norms}"
        # first-order residual shrinks linearly, so squared norms shrink ~100x
        for hi, lo in zip(norms, norms[1:]):
            assert 30 < hi / lo < 300, f"unexpected decay ratio {hi / lo}"


class TestPerturb:
    def test_endpoints(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 5.0])
        np.testing.assert_array_equal(fw.perturb_control(a, b, 0.0).values, a)
        np.testing.assert_array_equal(fw.perturb_control(a, b, 1.0).values, b)

    def test_midpoint(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 6.0])
        np.testing.assert_allclose(fw.perturb_control(a, b, 0.5).values, [2.0, 4.0], rtol=1e-15)

    def test_domain(self):
        a = np.zeros(2)
        for eps in (-0.1, 1.1):
            with pytest.raises(ContractError):
                fw.perturb_control(a, a, eps)

    @pytest.mark.parametrize("eps", ["0.5", None, [0.5]])
    def test_eps_must_be_a_finite_number(self, eps):
        a = np.zeros(2)
        with pytest.raises(ContractError, match="eps must be a finite number"):
            fw.perturb_control(a, a, eps)

