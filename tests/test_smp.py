"""Tests for the adjoint chain, adjoint pair, Hamiltonian, and duality."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracctrl import ContractError, NumericalError
from fracctrl import smp
from fracctrl.backward import BsdeSolution, DriverSpec, solve_truncated
from fracctrl.forward import CoefficientSet, ControlProcess, simulate_state, simulate_variation
from fracctrl.fracnoise import build_innovation_system, prediction_matrix, sample_ensemble
from fracctrl.invest import (
    InvestConfig,
    adjoint_tables,
    coefficient_set,
    cost_driver,
    run_experiment,
    solve_adjoint,
)
from fracctrl.smp import (
    bracket_values,
    check_necessary_condition,
    duality_gap,
    hamiltonian,
    hamiltonian_u,
    necessary_bracket,
    solve_adjoint_k,
    solve_adjoint_pq,
    solve_variational,
    verify_convexity,
)

# Investment-cost adjoint with consumption at {2}, N = 2 (frozen recursion):
ADJOINT_P1 = -0.07468060255179591
ADJOINT_P0 = -0.028847131249756335
# Deterministic duality model (b_x=.1, b_u=.3, f_x=.3, f_y=.4, f_u=.7,
# lam=.5, gamma=1.5, N=5, u*=.8, v_n=.5+.1n): frozen by direct recursion.
DUAL_P = [0.3735943313358468, 0.28722992789672913, 0.2696225496994974,
          0.26622592379959903, 0.23498025219292584, 0.0]
DUAL_YHAT0 = 0.6519853572420244
# Gap left by wrongly dropping the n = N bracket term on the same model.
DUAL_RANGE_GAP = 0.010042231372015209


def linear_coeffs(b_x=0.1, b_u=0.3, s_x=0.0, s_u=0.0, s0=0.05):
    return CoefficientSet(
        b=lambda n, x, u: b_x * x + b_u * u,
        sigma=lambda n, x, u: s0 + s_x * x + s_u * u,
        b_x=lambda n, x, u: b_x + 0.0 * x,
        b_u=lambda n, x, u: b_u + 0.0 * x,
        sigma_x=lambda n, x, u: s_x + 0.0 * x,
        sigma_u=lambda n, x, u: s_u + 0.0 * x,
    )


def linear_cost(f_x=0.3, f_y=0.4, f_z=0.0, f_u=0.7):
    return DriverSpec(
        f=lambda n, x, y, z, u: f_x * x + f_y * y + f_z * z + f_u * u,
        f_x=lambda n, x, y, z, u: f_x + 0.0 * y,
        f_y=lambda n, x, y, z, u: f_y + 0.0 * y,
        f_z=lambda n, x, y, z, u: f_z + 0.0 * y,
        f_u=lambda n, x, y, z, u: f_u + 0.0 * y,
    )


class TestAdjointChain:
    def test_no_cost_feedback_freezes_at_minus_one(self):
        assert_allclose(solve_adjoint_k(0.0, 0.0, 3), [0.0, -1.0, -1.0, -1.0], rtol=0, atol=0)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_constant_growth_chain(self, n):
        k = solve_adjoint_k(0.5, 0.0, n)
        want = np.concatenate([[0.0], -1.5 ** np.arange(n, dtype=float)])
        assert_allclose(k, want, rtol=1e-15, atol=0, err_msg=f"k mismatch: {k} vs {want}")

    def test_half_growth_reaches_frozen_value(self):
        assert solve_adjoint_k(0.5, 0.0, 3)[3] == pytest.approx(-2.25, abs=0)

    def test_per_step_growth_table(self):
        k = solve_adjoint_k(np.array([0.0, 0.5, 0.0, 0.5]), 0.0, 4)
        assert_allclose(k, [0.0, -1.0, -1.5, -1.5, -2.25], rtol=0, atol=0)

    def test_noise_driven_chain_is_mean_constant(self):
        rng = np.random.default_rng(17)
        eta = rng.standard_normal((100_000, 6))
        k = solve_adjoint_k(0.0, 1.0, 6, eta=eta)
        assert k.shape == (100_000, 7)
        means = k.mean(axis=0)
        # Var(k_n) = 2^{n-1} - 1; allow four standard errors at each step.
        for n in range(1, 7):
            band = 4.0 * np.sqrt((2.0 ** (n - 1) - 1.0) / 100_000 + 1e-30)
            assert abs(means[n] + 1.0) < band + 1e-12, (
                f"E[k_{n}] = {means[n]:.4f} leaves the band around -1"
            )

    def test_zero_noise_matches_deterministic_chain(self):
        eta = np.zeros((4, 5))
        k = solve_adjoint_k(0.25, 0.7, 5, eta=eta)
        want = solve_adjoint_k(0.25, 0.0, 5)
        assert_allclose(k, np.broadcast_to(want, k.shape), rtol=0, atol=0)

    def test_contract_errors(self):
        with pytest.raises(ContractError, match="noise-driven"):
            solve_adjoint_k(0.0, 1.0, 4)
        with pytest.raises(ContractError, match="shape"):
            solve_adjoint_k(0.0, 1.0, 4, eta=np.zeros((3, 2)))
        with pytest.raises(ContractError, match="n_steps"):
            solve_adjoint_k(0.0, 0.0, -1)


def loop_chain(f_y, n_steps, f_z=0.0, eta=None):
    """The chain k as the step loop over numpy values it replaced."""
    fy, fz = np.asarray(f_y, dtype=float), np.asarray(f_z, dtype=float)
    k = np.zeros(n_steps + 1 if eta is None else (eta.shape[0], n_steps + 1))
    if n_steps >= 1:
        k[..., 1] = -1.0
    for n in range(1, n_steps):
        growth = 1.0 + (fy if fy.ndim == 0 else fy[..., n])
        if eta is not None:
            growth = growth + (fz if fz.ndim == 0 else fz[..., n]) * eta[:, n]
        k[..., n + 1] = k[..., n] * growth
    return k


class TestDeterministicChain:
    @pytest.mark.parametrize(
        "f_y,n_steps",
        [(0.5, 1740), (0.5, 1751), (0.5, 1760), (0.0, 5), (0.5, 0), (0.5, 1), (0.5, 2)],
        ids=["deep", "last-finite", "overflow", "frozen", "empty", "one", "two"],
    )
    def test_scalar_growth_equals_the_step_loop(self, f_y, n_steps):
        with np.errstate(over="ignore"):
            assert np.array_equal(solve_adjoint_k(f_y, 0.0, n_steps), loop_chain(f_y, n_steps))

    def test_growth_table_equals_the_step_loop(self):
        table = np.random.default_rng(3).uniform(0.0, 1.0, 2000)
        with np.errstate(over="ignore"):
            got = solve_adjoint_k(table, 0.0, 1999)
            assert np.array_equal(got, loop_chain(table, 1999))
        assert np.isinf(got[-1]), "the table must reach the overflow"

    @pytest.mark.parametrize("tables", ["scalar", "1-D", "per-path"])
    def test_noise_driven_chain_equals_the_step_loop(self, tables):
        rng = np.random.default_rng(5)
        eta = rng.standard_normal((50, 40))
        f_y, f_z = {
            "scalar": (0.25, 0.7),
            "1-D": (rng.uniform(0, 1, 40), rng.uniform(-1, 1, 40)),
            "per-path": (rng.uniform(0, 1, (50, 40)), rng.uniform(-1, 1, (50, 40))),
        }[tables]
        for n_steps in (0, 1, 2, 40):
            got = solve_adjoint_k(f_y, f_z, n_steps, eta=eta)
            assert got.shape == (50, n_steps + 1)
            assert np.array_equal(got, loop_chain(f_y, n_steps, f_z, eta))

    def test_short_table_refused(self):
        with pytest.raises(ContractError, match="f_y has 3 steps"):
            solve_adjoint_k(np.zeros(3), 0.0, 5)
        with pytest.raises(ContractError, match="f_z has 4 steps"):
            solve_adjoint_k(0.0, np.ones(4), 5, eta=np.zeros((2, 5)))


class TestIntegerArguments:
    @staticmethod
    def calls(value):
        sys = build_innovation_system(0.75, 10)
        noise = sample_ensemble(sys, 5, 4, n_steps=9)
        state = simulate_state(linear_coeffs(), ControlProcess(values=np.zeros(9)), noise, 1.0)
        k = solve_adjoint_k(0.4, 0.0, 9)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.2, k, 9, 0.5, 1.5)
        bracket_args = (linear_coeffs(), linear_cost(), state, adjoint, k, sys, np.zeros((4, 10)))
        return {
            "n_steps": lambda: solve_adjoint_k(0.0, 0.0, value),
            "truncation": lambda: solve_adjoint_pq(0.1, 0.0, 0.2, k, value, 1.0, 2.0),
            "n_trials": lambda: check_necessary_condition(
                np.ones(3), np.zeros(3), 0.0, 1.0, n_trials=value
            ),
            "bracket truncation": lambda: bracket_values(*bracket_args, truncation=value),
            "n_pairs": lambda: verify_convexity(
                lambda x, u: x**2, lambda rng, size: (rng.random(size), rng.random(size)), value
            ),
        }

    NAMES = ["n_steps", "truncation", "n_trials", "bracket truncation", "n_pairs"]

    @pytest.mark.parametrize("value", [2.5, 7.9, True, "3"])
    @pytest.mark.parametrize("name", NAMES)
    def test_non_integers_are_contract_errors(self, name, value):
        with pytest.raises(ContractError, match="must be an integer"):
            self.calls(value)[name]()

    @pytest.mark.parametrize("name", NAMES)
    def test_numpy_integers_are_accepted(self, name):
        self.calls(np.int64(3))[name]()


class TestAdjointPair:
    def test_investment_consumption_frozen_values(self):
        chi = np.array([0.0, 0.0, 1.0])
        b_x = (1 + 0.05) * (1 - 0.5 * chi) - 1
        f_x = -1.0 * chi
        k = solve_adjoint_k(0.5, 0.0, 2)
        sol = solve_adjoint_pq(b_x, 0.0, f_x, k, 2, 1.0, 2.0)
        assert_allclose(
            sol.y[0], [ADJOINT_P0, ADJOINT_P1, 0.0], rtol=0, atol=1e-15,
            err_msg=f"adjoint pair {sol.y[0]} off the frozen recursion",
        )
        assert_allclose(sol.z, 0.0, rtol=0, atol=0)

    def test_zero_cost_gradient_gives_zero_adjoint(self):
        k = solve_adjoint_k(0.3, 0.0, 4)
        sol = solve_adjoint_pq(0.2, 0.0, 0.0, k, 4, 0.5, 1.5)
        assert_allclose(sol.y, 0.0, rtol=0, atol=0)

    def test_state_noise_partial_needs_the_system(self):
        k = solve_adjoint_k(0.0, 0.0, 3)
        with pytest.raises(ContractError, match="innovation system"):
            solve_adjoint_pq(0.1, 0.2, 0.3, k, 3, 1.0, 2.0)

    def test_white_noise_kills_the_prediction_term(self):
        sys = build_innovation_system(0.5, 5)
        noise = sample_ensemble(sys, 3, 8)
        control = ControlProcess(values=np.zeros(5))
        state = simulate_state(linear_coeffs(), control, noise, 1.0)
        k = solve_adjoint_k(0.4, 0.0, 4)
        with_g = solve_adjoint_pq(0.1, 0.3, 0.2, k, 4, 0.5, 1.5, state=state, sys=sys)
        plain = solve_adjoint_pq(0.1, 0.0, 0.2, k, 4, 0.5, 1.5)
        assert_allclose(
            with_g.y, np.broadcast_to(plain.y, with_g.y.shape), rtol=0, atol=1e-15,
            err_msg="at H = 0.5 the prediction term must contribute nothing",
        )


def generic_pq(b_x, f_x, k, truncation, lam, gamma_exp):
    """The adjoint pair through the generic exact solve, driver as in smp."""

    def at(table, m):
        table = np.asarray(table, dtype=float)
        return table if table.ndim == 0 else table[m]

    def f(m, x, y, z, u):
        return at(b_x, m) * y + 1.0 * 0.0 * z - at(f_x, m) * at(k, m)

    return solve_truncated(DriverSpec(f=f), None, None, truncation, lam, gamma_exp, backend="exact")


class TestDeterministicAdjoint:
    """The float recursion of solve_adjoint_pq against the generic exact solve."""

    @staticmethod
    def assert_same_solution(fast, generic):
        assert np.array_equal(fast.y, generic.y), f"max |dy| = {np.max(np.abs(fast.y - generic.y))}"
        assert np.array_equal(fast.z, generic.z)
        assert fast.y.shape == generic.y.shape and fast.z.shape == generic.z.shape
        assert (fast.lam, fast.gamma_exp, fast.backend) == (generic.lam, generic.gamma_exp, "exact")
        assert fast.diagnostics == generic.diagnostics

    @pytest.mark.parametrize(
        "config,truncation",
        [
            (InvestConfig(), None),
            (InvestConfig(consumption_times=(3, 7, 20, 45)), None),
            (InvestConfig(consumption_times=tuple(range(2, 25, 2)), horizon=24, lam=0.5,
                          gamma_exp=1.2), 24),
            # k overflows at step 1752 for lam = 1
            (InvestConfig(horizon=1700), 1748),
        ],
        ids=["default", "consumption-times", "duality", "near-k-overflow"],
    )
    def test_investment_adjoint_matches_the_generic_solve(self, config, truncation):
        adjoint = solve_adjoint(config, truncation=truncation)
        n_trunc = adjoint.truncation
        b_x, f_x, k = adjoint_tables(config, n_trunc)
        generic = generic_pq(b_x, f_x, k, n_trunc, config.lam, config.gamma_exp)
        self.assert_same_solution(adjoint.solution, generic)
        assert np.array_equal(adjoint.p, generic.y[0]) and np.array_equal(adjoint.q, generic.z[0])
        assert np.array_equal(adjoint.k, k)

    def test_scalar_tables(self):
        fast = solve_adjoint_pq(0.1, 0.0, 0.2, -1.5, 9, 0.5, 1.5)
        self.assert_same_solution(fast, generic_pq(0.1, 0.2, -1.5, 9, 0.5, 1.5))

    def test_tables_longer_than_the_truncation(self):
        b_x, f_x, k = adjoint_tables(InvestConfig(consumption_period=3), 60)
        fast = solve_adjoint_pq(b_x, 0.0, f_x, k, 40, 1.0, 2.0)
        assert fast.truncation == 40
        self.assert_same_solution(fast, generic_pq(b_x, f_x, k, 40, 1.0, 2.0))

    def test_numpy_integer_truncation(self):
        b_x, f_x, k = adjoint_tables(InvestConfig(), 30)
        fast = solve_adjoint_pq(b_x, 0.0, f_x, k, np.int64(30), 1.0, 2.0)
        self.assert_same_solution(fast, generic_pq(b_x, f_x, k, 30, 1.0, 2.0))

    def test_non_finite_target_names_the_step(self):
        f_x = np.zeros(6)
        f_x[4] = -1e308
        k = np.full(6, 1e10)
        for solve in (
            lambda: solve_adjoint_pq(0.1, 0.0, f_x, k, 5, 1.0, 2.0),
            lambda: generic_pq(0.1, f_x, k, 5, 1.0, 2.0),
        ):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericalError, match="non-finite at step 3"):
                    solve()

    def test_near_overflow_target_keeps_the_exact_midpoint(self):
        # 0.5 * (t + t) overflows for |t| above half the largest double: the
        # generic exact backend then stores inf and fails one step later.
        f_x = np.zeros(4)
        f_x[3] = -1.0
        k = np.full(4, 1.7e308)
        for solve in (
            lambda: solve_adjoint_pq(0.0, 0.0, f_x, k, 3, 1e-300, 1.5),
            lambda: generic_pq(0.0, f_x, k, 3, 1e-300, 1.5),
        ):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericalError, match="non-finite at step 1"):
                    solve()


class TestHamiltonian:
    coeffs = CoefficientSet(
        b=lambda n, x, u: 2.0 * x + 3.0 * u,
        sigma=lambda n, x, u: 1.0 + 0.0 * x,
        b_x=lambda n, x, u: 2.0 + 0.0 * x,
        b_u=lambda n, x, u: 3.0 + 0.0 * x,
        sigma_x=lambda n, x, u: 0.0 * x,
        sigma_u=lambda n, x, u: 0.0 * x,
    )
    cost = DriverSpec(
        f=lambda n, x, y, z, u: x + y + z + u,
        f_u=lambda n, x, y, z, u: 1.0 + 0.0 * y,
    )
    args = dict(n=0, x=1.0, y=0.5, z=0.5, u=2.0, p=1.5, q=-0.5, k=2.0, pred=0.3, beta_nn=0.9)

    def test_hand_computed_value(self):
        got = hamiltonian(self.coeffs, self.cost, **self.args)
        assert got == pytest.approx(20.0, abs=1e-14), f"H = {got}, expected 20.0"

    def test_control_derivative(self):
        got = hamiltonian_u(self.coeffs, self.cost, **self.args)
        assert got == pytest.approx(6.5, abs=1e-14)

    def test_bracket_flips_the_cost_term(self):
        bracket = necessary_bracket(self.coeffs, self.cost, **self.args)
        ham_u = hamiltonian_u(self.coeffs, self.cost, **self.args)
        assert bracket == pytest.approx(2.5, abs=1e-14)
        assert ham_u - bracket == pytest.approx(
            2.0 * 1.0 * self.args["k"], abs=1e-14
        ), "H_u and the bracket must differ by exactly twice the cost term"

    def test_missing_cost_partial_is_a_contract_error(self):
        bare = DriverSpec(f=self.cost.f)
        with pytest.raises(ContractError, match="f_u"):
            hamiltonian_u(self.coeffs, bare, **self.args)
        with pytest.raises(ContractError, match="f_u"):
            necessary_bracket(self.coeffs, bare, **self.args)


class TestBracketValues:
    def test_cost_solution_feeds_y_and_z_to_the_cost_partial(self):
        # f_u = 0.7 + 2 y + 3 z and sigma_u = 0: bracket_n = b_u p_n - f_u(Y*_n, Z*_n) k_n,
        # with Z*_N read as 0 past the last column of z.
        n_trunc, n_paths = 4, 3
        sys = build_innovation_system(0.75, n_trunc + 1)
        noise = sample_ensemble(sys, 9, n_paths, n_steps=n_trunc)
        state = simulate_state(linear_coeffs(), ControlProcess(values=np.zeros(n_trunc)), noise, 1.0)
        rng = np.random.default_rng(17)
        p, k = rng.standard_normal(n_trunc + 1), rng.standard_normal(n_trunc + 1)
        adjoint = BsdeSolution(
            y=p[None], z=np.zeros((1, n_trunc)), lam=0.5, gamma_exp=1.5, backend="exact"
        )
        y_star = rng.standard_normal((n_paths, n_trunc + 1))
        z_star = rng.standard_normal((n_paths, n_trunc))
        cost_solution = BsdeSolution(
            y=y_star, z=z_star, lam=0.5, gamma_exp=1.5, backend="regression"
        )
        cost = DriverSpec(
            f=lambda n, x, y, z, u: 0.0 * y, f_u=lambda n, x, y, z, u: 0.7 + 2.0 * y + 3.0 * z
        )
        got = bracket_values(
            linear_coeffs(b_u=0.3), cost, state, adjoint, k, sys,
            controls=np.zeros((n_paths, n_trunc + 1)), cost_solution=cost_solution,
        )
        z_read = np.hstack([z_star, np.zeros((n_paths, 1))])
        want = 0.3 * p - (0.7 + 2.0 * y_star + 3.0 * z_read) * k
        assert_allclose(got, want, rtol=0, atol=1e-14)


def per_step_bracket(coeffs, cost, state, adjoint, k, sys, controls=None, cost_solution=None,
                     truncation=None):
    """bracket_values as the step loop it replaced: necessary_bracket once per step."""
    n_trunc = adjoint.truncation if truncation is None else truncation
    n_paths = state.n_paths
    controls = state.controls if controls is None else np.asarray(controls, dtype=float)
    pred = prediction_matrix(sys, state.noise.xi, n_trunc)
    beta_diag = np.diag(sys.beta)
    k = np.asarray(k, dtype=float)
    zeros = np.zeros(n_paths)
    out = np.empty((n_paths, n_trunc + 1))
    for n in range(n_trunc + 1):
        if n < controls.shape[-1]:
            u_n = np.broadcast_to(controls[..., n], (n_paths,))
        else:
            u_n = np.full(n_paths, np.nan)
        y_n = zeros if cost_solution is None else cost_solution.y[:, n]
        z_n = zeros
        if cost_solution is not None and n < cost_solution.z.shape[1]:
            z_n = cost_solution.z[:, n]
        q_n = adjoint.z[..., n] if n < adjoint.z.shape[-1] else 0.0
        k_n = k if k.ndim == 0 else k[..., n]
        out[:, n] = necessary_bracket(
            coeffs, cost, n, state.values[:, n], y_n, z_n, u_n, adjoint.y[..., n], q_n, k_n,
            pred[:, n], beta_diag[n],
        )
    return out


class TestWholeGridBracket:
    """bracket_values evaluates blocks of paths over all steps at once; it
    must equal necessary_bracket called step by step, bit for bit."""

    n_paths, horizon = 37, 8
    # The u-partials ignore n and read x, u, y and z; u**2 squares exactly.
    coeffs = CoefficientSet(
        b=lambda n, x, u: 0.1 * x + 0.3 * u + 0.1 * x * u,
        sigma=lambda n, x, u: 0.05 + 0.15 * x + 0.2 * u - 0.025 * u * u,
        b_x=lambda n, x, u: 0.1 + 0.1 * u,
        b_u=lambda n, x, u: 0.3 + 0.1 * x,
        sigma_x=lambda n, x, u: 0.15 + 0.0 * x,
        sigma_u=lambda n, x, u: 0.2 - 0.05 * u,
    )
    cost = DriverSpec(
        f=lambda n, x, y, z, u: 0.0 * y,
        f_u=lambda n, x, y, z, u: 0.7 + 2.0 * y + 3.0 * z + u**2,
    )

    @pytest.fixture(params=[None, 64, 9], ids=["default-block", "block-7-paths", "block-1-path"])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(smp, "_BLOCK_ENTRIES", request.param)

    def setup(self, seed=19):
        sys = build_innovation_system(0.7, self.horizon + 1)
        noise = sample_ensemble(sys, seed, self.n_paths, n_steps=self.horizon)
        rng = np.random.default_rng(seed)
        control = ControlProcess(values=rng.uniform(0.0, 1.0, (self.n_paths, self.horizon)))
        state = simulate_state(self.coeffs, control, noise, 1.0)
        return sys, noise, state, rng

    def check(self, *args, **kwargs):
        got = bracket_values(*args, **kwargs)
        want = per_step_bracket(*args, **kwargs)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        return got

    def test_deterministic_adjoint(self, block):
        sys, _, state, _ = self.setup()
        k = solve_adjoint_k(0.4, 0.0, self.horizon)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, self.horizon, 0.5, 1.5)
        self.check(self.coeffs, self.cost, state, adjoint, k, sys)

    def test_cost_solution(self, block):
        sys, _, state, rng = self.setup()
        k = rng.standard_normal(self.horizon + 1)
        adjoint = BsdeSolution(
            y=rng.standard_normal((1, self.horizon + 1)), z=rng.standard_normal((1, self.horizon)),
            lam=0.5, gamma_exp=1.5, backend="exact",
        )
        cost_solution = BsdeSolution(
            y=rng.standard_normal((self.n_paths, self.horizon + 1)),
            z=rng.standard_normal((self.n_paths, self.horizon)),
            lam=0.5, gamma_exp=1.5, backend="regression",
        )
        controls = rng.uniform(0.0, 1.0, (self.n_paths, self.horizon + 1))
        self.check(self.coeffs, self.cost, state, adjoint, k, sys, controls=controls,
                   cost_solution=cost_solution)

    def test_controls_that_end_before_the_grid(self, block):
        sys, _, state, _ = self.setup()
        k = solve_adjoint_k(0.4, 0.0, self.horizon)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, self.horizon, 0.5, 1.5)
        got = self.check(self.coeffs, self.cost, state, adjoint, k, sys)  # controls end at N - 1
        assert np.isnan(got[:, -1]).all() and np.isfinite(got[:, :-1]).all()
        shared = np.linspace(0.1, 0.9, self.horizon - 2)  # 1-D, two steps short
        got = self.check(self.coeffs, self.cost, state, adjoint, k, sys, controls=shared)
        assert np.isnan(got[:, -2:]).all()

    def test_noise_driven_k_and_multi_path_adjoint(self, block):
        sys, noise, state, _ = self.setup()
        k = solve_adjoint_k(0.2, 0.25, self.horizon, eta=noise.eta)
        adjoint = solve_adjoint_pq(
            0.1, 0.15, 0.3, k, self.horizon, 0.5, 1.5, state=state, sys=sys,
            backend="regression", window=2, degree=1,
        )
        assert k.shape == adjoint.y.shape == (self.n_paths, self.horizon + 1)
        self.check(self.coeffs, self.cost, state, adjoint, k, sys)
        # A bracket range short of the adjoint reads q inside its columns.
        self.check(self.coeffs, self.cost, state, adjoint, k, sys, truncation=self.horizon - 3)

    @pytest.mark.parametrize("beta_exp", [1.5, 2.0, 3.0])
    def test_investment_bracket(self, block, beta_exp):
        # v ** (beta - 1) on contiguous blocks and on strided columns alike.
        cfg = InvestConfig(beta_exp=beta_exp, paths=301, horizon=30, seed=4)
        result = run_experiment(cfg)
        args = (coefficient_set(cfg), cost_driver(cfg), result.state, result.adjoint.solution,
                result.adjoint.k, result.system)
        got = self.check(*args, controls=result.controls, truncation=cfg.horizon)
        assert np.array_equal(got, result.bracket)

    def test_short_k_refused(self):
        sys, _, state, _ = self.setup()
        k = solve_adjoint_k(0.4, 0.0, self.horizon)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, self.horizon, 0.5, 1.5)
        with pytest.raises(ContractError, match="k has 5 steps"):
            bracket_values(self.coeffs, self.cost, state, adjoint, k[:5], sys)

    def test_partials_receive_the_step_array(self):
        sys, _, state, _ = self.setup()
        k = solve_adjoint_k(0.4, 0.0, self.horizon)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, self.horizon, 0.5, 1.5)
        seen = []

        def f_u(n, x, y, z, u):
            seen.append(np.array(n))
            return 0.7 + 0.0 * u

        bracket_values(self.coeffs, DriverSpec(f=self.cost.f, f_u=f_u), state, adjoint, k, sys)
        assert len(seen) == 1 and np.array_equal(seen[0], np.arange(self.horizon + 1))


class TestNecessaryCheck:
    def test_lower_boundary_optimum_passes(self):
        bracket = np.ones((8, 5))
        lo, hi = np.zeros((8, 5)), np.ones((8, 5))
        report = check_necessary_condition(bracket, lo, lo, hi, n_trials=20, seed=1)
        assert report["passed"] is True
        assert report["n_violations"] == 0
        assert report["min_bracket_product"] >= 0.0

    def test_upper_boundary_with_positive_bracket_fails(self):
        bracket = np.ones((4, 3))
        lo, hi = np.zeros((4, 3)), np.ones((4, 3))
        report = check_necessary_condition(bracket, hi, lo, hi, n_trials=5, seed=2)
        assert report["passed"] is False and report["n_violations"] == 12
        assert report["min_bracket_product"] == -1.0
        first = report["violations"][0]
        assert {"path", "step", "value", "u"} <= set(first)
        assert first["value"] == -1.0 and first["u"] == 0.0
        json.dumps(report)

    def test_interior_optimum_with_zero_bracket_passes(self):
        report = check_necessary_condition(
            np.zeros((3, 4)), 0.5 * np.ones((3, 4)), 0.0, 1.0, n_trials=10, seed=3
        )
        assert report["passed"] is True

    def test_one_dimensional_inputs_report_plain_indices(self):
        report = check_necessary_condition(
            np.ones(6), np.ones(6), np.zeros(6), np.ones(6), n_trials=3, seed=4
        )
        assert report["n_violations"] > 0
        assert "index" in report["violations"][0]

    def test_same_seed_gives_same_report(self):
        bracket = np.random.default_rng(5).standard_normal((16, 9))
        u_star = np.full((16, 9), 0.5)
        first = check_necessary_condition(bracket, u_star, 0.0, 1.0, n_trials=12, seed=6)
        again = check_necessary_condition(bracket, u_star, 0.0, 1.0, n_trials=12, seed=6)
        other = check_necessary_condition(bracket, u_star, 0.0, 1.0, n_trials=12, seed=7)
        assert first == again, "the trial witness must depend on the seed alone"
        assert other["min_trial_product"] != first["min_trial_product"]
        assert other["min_bracket_product"] == first["min_bracket_product"]

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-12, -np.inf, "1e-8", True, None])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        with pytest.raises(ContractError, match="tolerance must be"):
            check_necessary_condition(np.ones(3), np.zeros(3), 0.0, 1.0, tolerance=tolerance)
        assert check_necessary_condition(np.ones(3), np.zeros(3), 0.0, 1.0, tolerance=0)["passed"]

    def test_witness_is_off_by_default_and_never_gates(self):
        bracket = np.array([[1.0, -1.0], [2.0, 0.0]])
        u_star = np.array([[0.0, 1.0], [0.5, 0.3]])
        report = check_necessary_condition(bracket, u_star, 0.0, 1.0)
        assert report["trials"] == 0 and report["min_trial_product"] is None
        assert report["n_violations"] == 1 and report["passed"] is False
        assert report["min_bracket_product"] == -1.0 and report["min_index"] == [1, 0]
        witnessed = check_necessary_condition(bracket, u_star, 0.0, 1.0, n_trials=50)
        assert witnessed["min_trial_product"] >= witnessed["min_bracket_product"]
        assert witnessed["passed"] is False

    @pytest.mark.parametrize(
        "bracket, u_star, lower, upper",
        [
            ([np.nan, 1.0], [0.5, 0.0], 0.0, 1.0),
            ([np.inf, 1.0], [0.5, 0.0], 0.0, 1.0),
            ([1.0, 1.0], [np.nan, 0.0], 0.0, 1.0),
            ([1.0, 1.0], [np.inf, 0.0], 0.0, 1.0),
            ([-1.0, 1.0], [0.5, 0.0], 0.0, [np.nan, 1.0]),
            ([1.0, 1.0], [0.0, 0.0], [-np.inf, 0.0], 1.0),
        ],
    )
    def test_non_finite_entries_are_violations(self, bracket, u_star, lower, upper):
        with np.errstate(invalid="ignore"):
            report = check_necessary_condition(bracket, u_star, lower, upper)
        assert report["passed"] is False
        assert report["n_violations"] == 1
        assert report["violations"][0]["index"] == [0]

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.floats(-1e3, 1e3),  # bracket
                st.floats(-1e3, 1e3),  # lower
                st.floats(0.0, 1e3),  # box width
                st.floats(0.0, 1.0),  # position of u* in the box
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certificate_is_the_box_minimum(self, entries, seed):
        b, lo, width, frac = (np.array(col) for col in zip(*entries))
        hi = lo + width
        u_star = np.clip(lo + frac * width, lo, hi)
        report = check_necessary_condition(b, u_star, lo, hi, n_trials=3, seed=seed)
        corners = np.minimum(b * (lo - u_star), b * (hi - u_star))
        assert report["min_bracket_product"] == corners.min()
        assert corners[report["min_index"][0]] == corners.min()
        rng = np.random.default_rng(seed)
        u = np.clip(lo + rng.uniform(size=(64, b.size)) * (hi - lo), lo, hi)
        assert report["min_bracket_product"] <= (b * (u - u_star)).min()
        assert report["min_bracket_product"] <= report["min_trial_product"]

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="upper bound below"):
            check_necessary_condition(np.ones(3), np.zeros(3), 1.0, 0.0)
        with pytest.raises(ContractError, match="n_trials"):
            check_necessary_condition(np.ones(3), np.zeros(3), 0.0, 1.0, n_trials=-1)


class TestConvexity:
    @staticmethod
    def sampler(rng, size):
        return rng.standard_normal(size), rng.standard_normal(size)

    def test_quadratic_bowl_is_convex(self):
        report = verify_convexity(lambda x, u: x**2 + u**2, self.sampler, seed=8)
        assert report["convex"] is True and report["n_violations"] == 0

    def test_affine_is_convex(self):
        report = verify_convexity(lambda x, u: 2.0 * x - 3.0 * u + 1.0, self.sampler, seed=9)
        assert report["convex"] is True

    def test_needs_at_least_one_pair(self):
        with pytest.raises(ContractError, match="n_pairs must be >= 1"):
            verify_convexity(lambda x, u: x**2, self.sampler, n_pairs=0)

    def test_concave_bump_is_reported_honestly(self):
        report = verify_convexity(lambda x, u: -(u**2), self.sampler, seed=10)
        assert report["convex"] is False
        assert report["max_gap"] > 0
        assert report["violations"][0]["gap"] > 0
        json.dumps(report)


class TestVariationalDuality:
    lam, gamma_exp, n_trunc = 0.5, 1.5, 5

    def _deterministic_setup(self):
        sys = build_innovation_system(0.75, 8)
        noise = sample_ensemble(sys, 11, 16, n_steps=6)
        coeffs = linear_coeffs()  # sigma constant: no state or control noise load
        control = ControlProcess(values=np.full(6, 0.8))
        state = simulate_state(coeffs, control, noise, 1.0)
        v = 0.5 + 0.1 * np.arange(6.0)
        return sys, coeffs, state, v

    def test_deterministic_model_matches_frozen_recursion(self):
        sys, coeffs, state, v = self._deterministic_setup()
        k = solve_adjoint_k(0.4, 0.0, self.n_trunc)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, self.n_trunc, self.lam, self.gamma_exp)
        assert_allclose(adjoint.y[0], DUAL_P, rtol=0, atol=1e-14)

        variation = simulate_variation(coeffs, state, v)
        assert np.all(np.ptp(variation.values, axis=0) == 0.0), (
            "variation must be deterministic when sigma is constant"
        )
        variational = solve_variational(
            0.3, 0.4, 0.0, 0.7, variation, v, self.n_trunc, self.lam, self.gamma_exp,
            backend="exact",
        )
        assert_allclose(variational.y[0, 0], DUAL_YHAT0, rtol=0, atol=1e-14)

    def test_duality_identity_is_exact_including_terminal_term(self):
        sys, coeffs, state, v = self._deterministic_setup()
        k = solve_adjoint_k(0.4, 0.0, self.n_trunc)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, self.n_trunc, self.lam, self.gamma_exp)
        variation = simulate_variation(coeffs, state, v)
        variational = solve_variational(
            0.3, 0.4, 0.0, 0.7, variation, v, self.n_trunc, self.lam, self.gamma_exp,
            backend="exact",
        )
        bracket = bracket_values(coeffs, linear_cost(), state, adjoint, k, sys)
        report = duality_gap(bracket, v, variational)
        assert report["gap"] < 1e-12, f"duality gap {report['gap']:.3e} should be machine-zero"
        assert report["rhs"] == pytest.approx(DUAL_YHAT0, abs=1e-12)

        # Dropping the terminal bracket column must reopen a visible gap:
        # the summation range n = 0..N is part of the identity.
        grid = np.arange(self.n_trunc + 1, dtype=float)
        weights = np.exp(-self.lam * grid**self.gamma_exp)
        short = float(np.mean(np.sum((weights * bracket * v)[:, :-1], axis=1)))
        assert abs(short - report["rhs"]) == pytest.approx(DUAL_RANGE_GAP, rel=1e-6)

    def test_regression_backend_reproduces_the_deterministic_answer(self):
        sys, coeffs, state, v = self._deterministic_setup()
        variation = simulate_variation(coeffs, state, v)
        variational = solve_variational(
            0.3, 0.4, 0.0, 0.7, variation, v, self.n_trunc, self.lam, self.gamma_exp,
            backend="regression", window=2,
        )
        assert_allclose(
            variational.y[:, 0], DUAL_YHAT0, rtol=0, atol=1e-9,
            err_msg="regression must reproduce deterministic targets exactly",
        )

    def test_duality_holds_in_expectation_with_all_terms_live(self):
        sys = build_innovation_system(0.75, 8)
        noise = sample_ensemble(sys, 29, 20_000, n_steps=6)
        coeffs = linear_coeffs(b_x=0.1, b_u=0.3, s_x=0.15, s_u=0.2, s0=0.05)
        cost = linear_cost(f_x=0.3, f_y=0.2, f_z=0.25, f_u=0.7)
        control = ControlProcess(values=np.full(6, 0.8))
        state = simulate_state(coeffs, control, noise, 1.0)
        v = 0.5 + 0.1 * np.arange(6.0)

        k = solve_adjoint_k(0.2, 0.25, self.n_trunc, eta=noise.eta)
        adjoint = solve_adjoint_pq(
            0.1, 0.15, 0.3, k, self.n_trunc, self.lam, self.gamma_exp,
            state=state, sys=sys, backend="regression", window=5,
        )
        variation = simulate_variation(coeffs, state, v)
        variational = solve_variational(
            0.3, 0.2, 0.25, 0.7, variation, v, self.n_trunc, self.lam, self.gamma_exp,
            backend="regression", window=5,
        )
        bracket = bracket_values(coeffs, cost, state, adjoint, k, sys)
        report = duality_gap(bracket, v, variational)
        # Least squares with an intercept preserves sample means step by step,
        # so the identity is nearly exact in-sample (observed gap ~4e-7 here),
        # not merely within Monte Carlo error.
        assert report["rhs"] > 0.1, f"vacuous configuration: {report}"
        assert report["gap"] < 1e-5, f"duality gap too wide: {report}"
