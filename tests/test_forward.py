"""Tests for state simulation, first variations, and control perturbation."""

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

    def test_bounds_validated(self):
        fw.ControlProcess(values=np.array([0.0, 0.5, 1.0]), bounds=(0.0, 1.0))
        with pytest.raises(ContractError):
            fw.ControlProcess(values=np.array([0.0, 1.5]), bounds=(0.0, 1.0))

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
        path = fw.simulate_state(coeffs, u, noise16, lambda m: np.full(m, 2.0))
        np.testing.assert_array_equal(path.values[:, 0], np.full(64, 2.0))
        with pytest.raises(ContractError):
            fw.simulate_state(coeffs, u, noise16, np.zeros(3))


class TestVariation:
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

    def test_bounds_carry_when_shared(self):
        a = fw.ControlProcess(values=np.array([0.2]), bounds=(0.0, 1.0))
        b = fw.ControlProcess(values=np.array([0.8]), bounds=(0.0, 1.0))
        assert fw.perturb_control(a, b, 0.5).bounds == (0.0, 1.0)


class TestCheckPartials:
    def test_correct_partials_pass(self):
        report = fw.check_partials(wealth_coeffs(), 0, [0.5, 1.5], [0.1, 0.9])
        assert max(report.values()) < 1e-6, report

    def test_wrong_partial_flagged(self):
        broken = fw.CoefficientSet(
            b=lambda n, x, u: x * x,
            sigma=lambda n, x, u: 0.0,
            b_x=lambda n, x, u: x,  # should be 2x
            b_u=lambda n, x, u: 0.0,
            sigma_x=lambda n, x, u: 0.0,
            sigma_u=lambda n, x, u: 0.0,
        )
        report = fw.check_partials(broken, 0, [1.0], [0.0])
        assert report["b_x"] > 0.5


class TestTrajectoryCsv:
    def test_rows_and_roundtrip(self, tmp_path):
        sys = fn.build_innovation_system(0.75, 4)
        noise = fn.sample_ensemble(sys, seed=8, n_paths=3)
        path = fw.simulate_state(wealth_coeffs(), fw.ControlProcess(values=np.full(4, 0.2)), noise, 1.0)
        out = tmp_path / "traj.csv"
        fw.write_trajectory_csv(path, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,n,X,u,xi"
        assert len(lines) == 1 + 3 * 4
        pid, n, x, u, xi = lines[1].split(",")
        assert (pid, n) == ("0", "0")
        assert float(x) == path.values[0, 0]
        assert float(xi) == noise.xi[0, 0]
