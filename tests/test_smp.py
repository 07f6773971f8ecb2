"""Tests for the adjoint chain, adjoint pair, bracket, certificate, and duality."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracctrl import ContractError, NumericalError
from fracctrl import backward, smp
from fracctrl.backward import BsdeSolution, DriverSpec, solve_truncated
from fracctrl.forward import (
    CoefficientSet,
    ControlProcess,
    StatePath,
    simulate_state,
    simulate_variation,
)
from fracctrl.fracnoise import (
    NoiseEnsemble,
    build_innovation_system,
    prediction_matrix,
    sample_ensemble,
)
from fracctrl.invest import (
    InvestConfig,
    adjoint_tables,
    coefficient_set,
    consumption_indicator,
    cost_driver,
    run_experiment,
    solve_adjoint,
)
from fracctrl.smp import (
    bracket_values,
    check_necessary_condition,
    duality_gap,
    necessary_bracket,
    solve_adjoint_k,
    solve_adjoint_pq,
    solve_variational,
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

    @pytest.mark.parametrize(
        "f_y,f_z,name,shown",
        [("a", 0.0, "f_y", "'a'"), (np.nan, 0.0, "f_y", "nan"), (0.5, [0.0, "b"], "f_z", "[0.0, 'b']")],
        ids=["string", "nan", "string-in-table"],
    )
    def test_tables_must_be_finite_numbers(self, f_y, f_z, name, shown):
        # A string raised numpy's ValueError, and NaN gave a NaN chain.
        message = f"{name} must be a finite number or a per-step table of them, got {shown}"
        with pytest.raises(ContractError, match=re.escape(message)):
            solve_adjoint_k(f_y, f_z, 4)


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
            "seed": lambda: check_necessary_condition(
                np.ones(3), np.zeros(3), 0.0, 1.0, n_trials=2, seed=value
            ),
        }

    NAMES = ["n_steps", "truncation", "n_trials", "bracket truncation", "seed"]

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

    @staticmethod
    def solve(state=None, **tables):
        """solve_adjoint_pq at truncation 4 with default tables, ``tables`` replacing some."""
        args = dict(b_x=0.1, sigma_x=0.0, f_x=0.3, k=solve_adjoint_k(0.4, 0.0, 4))
        args.update(tables)
        return solve_adjoint_pq(**args, truncation=4, lam=0.5, gamma_exp=1.5, state=state)

    @pytest.mark.parametrize("name", ["b_x", "sigma_x", "f_x", "k"])
    @pytest.mark.parametrize("table", ["a", ["0.1", "x"], None], ids=["string", "strings", "none"])
    def test_non_numeric_tables_are_refused_by_name(self, name, table):
        with pytest.raises(ContractError, match=f"^{name} must be a finite number"):
            self.solve(**{name: table})

    @pytest.mark.parametrize("name", ["b_x", "sigma_x", "f_x", "k"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tables_are_refused_by_name(self, name, bad):
        table = np.full(5, 0.1)
        table[3] = bad
        with pytest.raises(ContractError, match=f"^{name} must be a finite number"):
            self.solve(**{name: table})
        with pytest.raises(ContractError, match=f"^{name} must be a finite number"):
            self.solve(**{name: bad})

    @pytest.mark.parametrize("name", ["b_x", "sigma_x", "f_x", "k"])
    def test_tables_short_of_the_truncation_are_refused_by_name(self, name):
        for steps in (0, 1, 4):
            with pytest.raises(ContractError, match=rf"^{name} has {steps} steps, {5 - steps} short of the 5 read \(shape \({steps},\)\)"):
                self.solve(**{name: np.zeros(steps)})
        assert self.solve(**{name: np.zeros(5)}).truncation == 4

    @pytest.mark.parametrize("name", ["b_x", "f_x", "k"])
    def test_two_dimensional_tables_of_the_wrong_shape_are_refused_by_name(self, name):
        sys = build_innovation_system(0.75, 5)
        noise = sample_ensemble(sys, 5, 3, n_steps=4)
        state = simulate_state(linear_coeffs(), ControlProcess(values=np.zeros(4)), noise, 1.0)
        for table, state_of in (
            (np.zeros((3, 5)), None),  # per-path rows with no state
            (np.zeros((2, 5)), state),  # rows for another path count
            (np.zeros((3, 4)), state),  # a step short
            (np.zeros((1, 3, 5)), state),
        ):
            with pytest.raises(ContractError, match=rf"^{name} (must be .* got|has \d+ steps, .* \(shape) {re.escape(str(table.shape))}"):
                self.solve(state_of, **{name: table})
        one_row = self.solve(**{name: np.full(5, 0.2)})
        per_path = self.solve(state, **{name: np.full((3, 5), 0.2)})
        assert np.array_equal(per_path.y, np.broadcast_to(one_row.y, (3, 5)))

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


def one_path_zeros(truncation):
    """An explicit one-path state of zeros, its controls all NaN."""
    noise = NoiseEnsemble(seed=0, eta=np.zeros((1, truncation)), xi=np.zeros((1, truncation)))
    return StatePath(
        values=np.zeros((1, truncation + 1)), controls=np.full((1, truncation), np.nan), noise=noise
    )


def generic_pq(b_x, f_x, k, truncation, lam, gamma_exp):
    """The adjoint pair through the array loop of the exact solve, run on an
    explicit one-path ensemble of zeros, driver as in smp."""

    def at(table, m):
        table = np.asarray(table, dtype=float)
        return table if table.ndim == 0 else table[m]

    def f(m, x, y, z, u):
        return at(b_x, m) * y + 1.0 * 0.0 * z - at(f_x, m) * at(k, m)

    return solve_truncated(
        DriverSpec(f=f), one_path_zeros(int(truncation)), None, truncation, lam, gamma_exp,
        backend="exact",
    )


class TestDeterministicAdjoint:
    """The one-path float recursion of solve_adjoint_pq against the array loop."""

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

    def test_a_deterministic_solve_takes_no_conditional_expectation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("conditional_expectation called on a state=None solve")

        monkeypatch.setattr(backward, "conditional_expectation", refuse)
        b_x, f_x, k = adjoint_tables(InvestConfig(), 40)
        assert solve_adjoint_pq(b_x, 0.0, f_x, k, 40, 1.0, 2.0).truncation == 40
        solution = solve_truncated(DriverSpec(f=lambda n, x, y, z, u: 1.0), None, None, 6, 0.5, 1.5,
                                   backend="exact")
        assert solution.y.shape == (1, 7) and np.array_equal(solution.z, np.zeros((1, 6)))


class TestHamiltonian:
    """The bracket against the Hamiltonian's control derivative, by hand:
    H_u = b_u p + sigma_u (p pred + beta(n,n) q) + f_u k = bracket + 2 f_u k."""

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

    def test_bracket_flips_the_cost_term(self):
        bracket = necessary_bracket(self.coeffs, self.cost, **self.args)
        ham_u = 3.0 * 1.5 + 0.0 * (1.5 * 0.3 + 0.9 * -0.5) + 1.0 * 2.0
        assert bracket == pytest.approx(2.5, abs=1e-14)
        assert ham_u - bracket == pytest.approx(
            2.0 * 1.0 * self.args["k"], abs=1e-14
        ), "H_u and the bracket must differ by exactly twice the cost term"

    def test_missing_cost_partial_is_a_contract_error(self):
        bare = DriverSpec(f=self.cost.f)
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

    def test_negative_truncation_refused(self):
        sys = build_innovation_system(0.75, 5)
        noise = sample_ensemble(sys, 9, 3, n_steps=4)
        state = simulate_state(linear_coeffs(), ControlProcess(values=np.zeros(4)), noise, 1.0)
        k = solve_adjoint_k(0.4, 0.0, 4)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, 4, 0.5, 1.5)
        with pytest.raises(ContractError, match="truncation must be >= 0"):
            bracket_values(linear_coeffs(), linear_cost(), state, adjoint, k, sys, truncation=-1)


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

    def test_controls_and_k_of_other_paths_are_refused(self):
        # A broadcast inside the first block raised numpy's ValueError.
        sys, _, state, _ = self.setup()
        k = solve_adjoint_k(0.4, 0.0, self.horizon)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, self.horizon, 0.5, 1.5)
        for bad in ((5, self.horizon + 1), (1, self.n_paths, self.horizon + 1)):
            for name, kwargs in (("controls", {"controls": np.zeros(bad)}), ("k", {"k": np.ones(bad)})):
                kwargs = {"k": k, **kwargs}
                message = f"{name} must be a scalar, (steps,) or (37, steps), got {bad}"
                with pytest.raises(ContractError, match=re.escape(message)):
                    bracket_values(self.coeffs, self.cost, state, adjoint, sys=sys, **kwargs)

    def test_solutions_of_other_paths_are_refused(self):
        # numpy's "operands could not be broadcast together" leaked from the
        # first block.
        sys, _, state, rng = self.setup()
        k = solve_adjoint_k(0.4, 0.0, self.horizon)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, self.horizon, 0.5, 1.5)
        other = BsdeSolution(
            y=rng.standard_normal((5, self.horizon + 1)), z=rng.standard_normal((5, self.horizon)),
            lam=0.5, gamma_exp=1.5, backend="regression",
        )
        steps = self.horizon + 1
        for name, kwargs in (("adjoint.y", {"adjoint": other}),
                             ("cost_solution.y", {"adjoint": adjoint, "cost_solution": other})):
            message = f"{name} must have shape (37, steps), got (5, {steps})"
            with pytest.raises(ContractError, match=re.escape(message)):
                bracket_values(self.coeffs, self.cost, state, k=k, sys=sys, **kwargs)

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
        for n_trials in (0, 2):
            with pytest.raises(ContractError, match="seed must be >= 0"):
                check_necessary_condition(np.ones(3), np.zeros(3), 0.0, 1.0, n_trials=n_trials, seed=-1)

    @pytest.mark.parametrize(
        "shapes,message",
        [
            (((3,), (4,), (), ()), "bracket (3,), u_star (4,), lower (), upper ()"),
            (((2, 3), (2, 3), (3, 3), ()), "bracket (2, 3), u_star (2, 3), lower (3, 3), upper ()"),
            (((5, 1), (), (1, 4), (2,)), "bracket (5, 1), u_star (), lower (1, 4), upper (2,)"),
        ],
    )
    def test_inputs_that_do_not_broadcast_are_refused(self, shapes, message):
        # np.broadcast_arrays raised numpy's ValueError.
        bracket, u_star, lower, upper = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ContractError, match=re.escape(message)):
            check_necessary_condition(bracket, u_star, lower, upper + 1.0)

    # Entries that make ties (signed zeros included), NaN and inf products,
    # and many violations.
    special = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.nan, np.inf, -np.inf])

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(1, 13),
        cols=st.integers(1, 13),
        block_entries=st.sampled_from([1, 3, 16, 1 << 14]),
        tolerance=st.sampled_from([0.0, 1e-8, 1.5]),
    )
    def test_every_layout_gives_the_whole_grid_report(self, data, rows, cols, block_entries, tolerance):
        grid = st.lists(self.special, min_size=rows * cols, max_size=rows * cols)
        bracket, u_star = (np.reshape(data.draw(grid), (rows, cols)) for _ in range(2))
        lower_row = np.array(data.draw(st.lists(self.special, min_size=cols, max_size=cols)))
        width = np.reshape(data.draw(st.lists(st.sampled_from([0.0, 1.0, 4.0, np.inf]),
                                              min_size=rows * cols, max_size=rows * cols)), (rows, cols))
        with np.errstate(invalid="ignore"):
            upper = np.maximum(lower_row + width, lower_row)  # NaN where inf meets -inf
            want = whole_grid_report(bracket, u_star, lower_row, upper, tolerance)
            whole = (bracket, u_star, np.broadcast_to(lower_row, (rows, cols)), upper)
            layouts = {
                "C": [np.ascontiguousarray(a) for a in whole],
                "F": [np.asfortranarray(a) for a in whole],
                "broadcast": [np.repeat(bracket, 2, axis=1)[:, ::2], u_star, lower_row,
                              np.asfortranarray(upper)],
            }
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(smp, "_BLOCK_ENTRIES", block_entries)
                reports = {
                    name: check_necessary_condition(*args, tolerance=tolerance)
                    for name, args in layouts.items()
                }
        texts = {name: json.dumps(report) for name, report in reports.items()}
        assert texts["F"] == texts["C"] and texts["broadcast"] == texts["C"]
        assert_same_report(reports["C"], want)

    def test_the_first_ten_violations_are_path_major(self, monkeypatch):
        # Every entry violates; one step per block walks the grid step-major.
        monkeypatch.setattr(smp, "_BLOCK_ENTRIES", 1)
        bracket = np.asfortranarray(np.ones((12, 9)))
        report = check_necessary_condition(bracket, 1.0, 0.0, 1.0)
        assert report["n_violations"] == 108 and report["min_index"] == [0, 0]
        got = [(v["path"], v["step"]) for v in report["violations"]]
        assert got == [(0, step) for step in range(9)] + [(1, 0)]

    def test_a_nan_minimum_wins_and_a_zero_minimum_reads_plus_zero(self):
        bracket = np.array([[-1.0, 1.0, 2.0], [np.nan, 1.0, np.nan]])
        report = check_necessary_condition(bracket, 0.0, 0.0, 0.0)
        assert np.isnan(report["min_bracket_product"]) and report["min_index"] == [1, 0]
        # (0 - 0) * -1 is -0.0 at [0, 0]; the other corners give +0.0.
        report = check_necessary_condition(bracket[:1], 0.0, 0.0, 0.0)
        assert report["min_index"] == [0, 0]
        assert json.dumps(report["min_bracket_product"]) == "0.0"

    @pytest.mark.parametrize("block_entries", [None, 1000])
    def test_run_experiment_reports_the_whole_grid_certificate(self, monkeypatch, block_entries):
        # At tolerance 0 the rounding-level negative products are violations.
        if block_entries is not None:
            monkeypatch.setattr(smp, "_BLOCK_ENTRIES", block_entries)
        cfg = InvestConfig(paths=1000, horizon=20, seed=0)
        result = run_experiment(cfg, tolerance=0.0)
        chi = consumption_indicator(cfg, cfg.horizon)
        caps = np.maximum(result.state.values * (1 - cfg.c * chi), 0.0)
        want = whole_grid_report(
            np.ascontiguousarray(result.bracket), np.ascontiguousarray(result.controls), 0.0, caps, 0.0
        )
        assert want["n_violations"] > 10 and len({v["path"] for v in want["violations"]}) > 1
        assert_same_report(result.check, want)


def whole_grid_report(bracket, u_star, lower, upper, tolerance):
    """The certificate's report fields from whole-grid arrays, in C order."""
    b, us, lo, hi = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (bracket, u_star, lower, upper))
    )
    worst = (np.where(b > 0, lo, hi) - us) * b
    bad = np.flatnonzero(~(worst >= -tolerance))
    violations = []
    for flat in bad[:10]:
        path, step = np.unravel_index(flat, worst.shape)
        corner = lo[path, step] if b[path, step] > 0 else hi[path, step]
        violations.append({"value": float(worst[path, step]), "u": float(corner),
                           "path": int(path), "step": int(step)})
    return {
        "min_bracket_product": float(worst.min()),
        "min_index": [int(i) for i in np.unravel_index(np.argmin(worst), worst.shape)],
        "n_violations": int(bad.size),
        "violations": violations,
        "passed": bad.size == 0,
    }


def assert_same_report(got, want):
    """Equal report fields, a NaN equal to a NaN."""
    for key in ("min_index", "n_violations", "passed"):
        assert got[key] == want[key], key
    where = [[(v["path"], v["step"]) for v in r["violations"]] for r in (got, want)]
    assert where[0] == where[1]
    numbers = [
        [r["min_bracket_product"]] + [v[k] for v in r["violations"] for k in ("value", "u")]
        for r in (got, want)
    ]
    assert np.array_equal(*numbers, equal_nan=True)


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

    @pytest.mark.parametrize("backend", ["exact", "regression"])
    def test_directions_one_step_short_are_a_contract_error(self, backend):
        sys, coeffs, state, v = self._deterministic_setup()
        variation = simulate_variation(coeffs, state, v)
        for short in (v, np.tile(v, (state.n_paths, 1))):
            with pytest.raises(ContractError, match="directions has 6 steps, 1 short of the 7"):
                solve_variational(
                    0.3, 0.4, 0.0, 0.7, variation, short, 6, self.lam, self.gamma_exp,
                    backend=backend,
                )

    def test_directions_for_other_paths_are_a_contract_error(self):
        sys, coeffs, state, v = self._deterministic_setup()
        variation = simulate_variation(coeffs, state, v)
        for bad in (np.tile(v, (3, 1)), v[None, None, :]):
            with pytest.raises(ContractError, match=r"directions must have shape \(steps,\) or \(16, steps\)"):
                solve_variational(
                    0.3, 0.4, 0.0, 0.7, variation, bad, self.n_trunc, self.lam, self.gamma_exp,
                    backend="exact",
                )

    def test_duality_gap_refuses_directions_that_miss_the_bracket(self):
        sys, coeffs, state, v = self._deterministic_setup()
        k = solve_adjoint_k(0.4, 0.0, self.n_trunc)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, self.n_trunc, self.lam, self.gamma_exp)
        variational = solve_variational(
            0.3, 0.4, 0.0, 0.7, simulate_variation(coeffs, state, v), v, self.n_trunc,
            self.lam, self.gamma_exp, backend="exact",
        )
        bracket = bracket_values(coeffs, linear_cost(), state, adjoint, k, sys)
        for bad in (v[:-1], np.tile(v[:-1], (16, 1)), np.tile(v, (3, 1)), np.append(v, 1.0)):
            with pytest.raises(ContractError, match=rf"directions of shape \({bad.shape[0]},"):
                duality_gap(bracket, bad, variational)
        per_path = duality_gap(bracket, np.tile(v, (16, 1)), variational)
        assert per_path == duality_gap(bracket, v, variational)

    def test_duality_gap_refuses_a_bracket_that_is_not_two_dimensional(self):
        # A (2, paths, steps) bracket was averaged over both leading axes.
        sys, coeffs, state, v = self._deterministic_setup()
        k = solve_adjoint_k(0.4, 0.0, self.n_trunc)
        adjoint = solve_adjoint_pq(0.1, 0.0, 0.3, k, self.n_trunc, self.lam, self.gamma_exp)
        variational = solve_variational(
            0.3, 0.4, 0.0, 0.7, simulate_variation(coeffs, state, v), v, self.n_trunc,
            self.lam, self.gamma_exp, backend="exact",
        )
        bracket = bracket_values(coeffs, linear_cost(), state, adjoint, k, sys)
        for bad in (np.stack([bracket, bracket]), bracket[0], bracket[0, 0]):
            with pytest.raises(ContractError, match=re.escape(f"bracket must have shape (paths, steps), got {bad.shape}")):
                duality_gap(bad, v, variational)

    def test_duality_gap_sums_each_path_in_one_order(self):
        # A sum along a strided axis adds in another order than along a
        # contiguous one; the terms are formed in C order whatever the inputs.
        rng = np.random.default_rng(23)
        bracket = rng.standard_normal((20_000, 25))
        v = rng.standard_normal((20_000, 25))
        variational = BsdeSolution(
            y=rng.standard_normal((20_000, 25)), z=np.zeros((20_000, 24)), lam=0.5,
            gamma_exp=1.2, backend="regression",
        )
        weights = np.exp(-0.5 * np.arange(25.0) ** 1.2)
        want = float(np.mean(np.sum(weights * bracket * v, axis=-1)))
        for b, d in ((bracket, v), (np.asfortranarray(bracket), v),
                     (np.asfortranarray(bracket), np.asfortranarray(v))):
            assert duality_gap(b, d, variational)["lhs"] == want

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

    # Coefficients on a 1e-3 grid in [-1, 1]: no subnormal bracket terms,
    # whose rounding is not relative.
    milli = st.integers(-1000, 1000).map(lambda i: i / 1000)

    @settings(max_examples=60, deadline=None)
    @given(
        partials=st.lists(milli, min_size=5, max_size=5),
        lam=st.floats(0.05, 2.0),
        gamma_exp=st.floats(1.05, 2.5),
        n_trunc=st.integers(1, 12),
        u_star=milli,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_duality_identity_on_random_deterministic_models(
        self, partials, lam, gamma_exp, n_trunc, u_star, seed
    ):
        b_x, b_u, f_x, f_y, f_u = partials
        sys = build_innovation_system(0.75, n_trunc + 1)
        noise = sample_ensemble(sys, seed, 4, n_steps=n_trunc)
        coeffs = linear_coeffs(b_x=b_x, b_u=b_u)  # sigma constant: a deterministic variation
        state = simulate_state(coeffs, ControlProcess(values=np.full(n_trunc, u_star)), noise, 1.0)
        v = np.random.default_rng(seed).uniform(-1.0, 1.0, n_trunc + 1)
        k = solve_adjoint_k(f_y, 0.0, n_trunc)
        adjoint = solve_adjoint_pq(b_x, 0.0, f_x, k, n_trunc, lam, gamma_exp)
        variational = solve_variational(
            f_x, f_y, 0.0, f_u, simulate_variation(coeffs, state, v), v, n_trunc, lam, gamma_exp,
            backend="exact",
        )
        bracket = bracket_values(coeffs, linear_cost(f_x=f_x, f_y=f_y, f_u=f_u), state, adjoint, k, sys)
        report = duality_gap(bracket, v, variational)
        weights = np.exp(-lam * np.arange(n_trunc + 1.0) ** gamma_exp)
        scale = float(np.sum(np.abs(weights * bracket[0] * v)))
        assert report["gap"] <= 1e-12 * scale, f"{report}, term scale {scale:.3e}"
