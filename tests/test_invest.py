"""Tests for the investment/consumption application."""
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracctrl import invest as invest_module
from fracctrl.backward import solve_truncated
from fracctrl.errors import ContractError, NumericalError
from fracctrl.forward import ControlProcess, simulate_state, simulate_variation
from fracctrl.fracnoise import (
    NoiseEnsemble,
    build_innovation_system,
    predict_next,
    prediction_matrix,
    sample_ensemble,
)
from fracctrl.invest import (
    InvestConfig,
    _Clamps,
    adjoint_tables,
    closed_form_control,
    coefficient_set,
    consumption_indicator,
    control_rule,
    cost_driver,
    run_experiment,
    solve_adjoint,
)
from fracctrl.smp import (
    bracket_values,
    check_necessary_condition,
    duality_gap,
    solve_adjoint_k,
    solve_variational,
)

# Frozen independently of the package (plain recursions written out by hand):
# adjoint of the consumption problem with times {2}, truncation 2, lam=1,
# gamma_exp=2, r=0.05, c=0.5, Q=1.
ADJOINT_P1 = -0.07468060255179591
ADJOINT_P0 = -0.028847131249756335


def small_config(**overrides):
    """Fast deterministic configuration used throughout."""
    base = dict(
        consumption_period=4,
        horizon=12,
        paths=64,
        seed=11,
        hurst=0.75,
    )
    base.update(overrides)
    return InvestConfig(**base)


class TestConfig:
    def test_defaults_match_reference_market(self):
        cfg = InvestConfig()
        assert (cfg.mu, cfg.r, cfg.sigma) == (0.15, 0.05, 0.2)
        assert (cfg.lam, cfg.gamma_exp, cfg.beta_exp) == (1.0, 2.0, 2.0)
        assert (cfg.c, cfg.wealth_weight, cfg.risk_weight) == (0.5, 1.0, 0.01)
        assert cfg.consumption_period == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hurst": 0.0},
            {"hurst": 1.0},
            {"r": 0.0},
            {"mu": 0.05},  # mu must exceed r
            {"sigma": 0.0},
            {"lam": 0.0},
            {"gamma_exp": 1.0},
            {"beta_exp": 1.0},
            {"c": 0.0},
            {"c": 1.0},
            {"wealth_weight": 0.0},
            {"risk_weight": -0.01},
            {"consumption_period": 0},
            {"consumption_times": ()},
            {"consumption_times": (0, 5)},
            {"x0": np.inf},
            {"horizon": 0},
            {"paths": 0},
            {"sigma": np.nan},
            {"lam": np.nan},
            {"mu": np.inf},
            {"horizon": 2.5},
            {"paths": True},
            {"consumption_times": 5},
            {"consumption_times": (2, 4.5)},
            {"mu": 10**400},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ContractError):
            InvestConfig(**kwargs)

    def test_explicit_times_are_sorted_and_deduplicated(self):
        cfg = InvestConfig(consumption_times=(7, 3, 3))
        assert cfg.consumption_times == (3, 7)

    def test_periodic_indicator(self):
        cfg = InvestConfig()
        chi = consumption_indicator(cfg, 25)
        expected = np.zeros(26)
        expected[[10, 20]] = 1.0
        assert_allclose(chi, expected, rtol=0, atol=0)

    @pytest.mark.parametrize("n_max", [4.5, 4.0, True, "4"])
    def test_indicator_length_must_be_an_integer(self, n_max):
        with pytest.raises(ContractError, match="n_max must be an integer"):
            consumption_indicator(small_config(), n_max)
        assert consumption_indicator(small_config(), np.int64(4)).tolist() == [0, 0, 0, 0, 1]

    # Any value of any field: NaN, inf, bools, strings, None, huge and
    # negative integers, floats for integer fields, sequences of either.
    FUZZED = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(min_value=-(10**400), max_value=10**400),
        st.integers(min_value=-3, max_value=60),
        st.booleans(),
        st.text(max_size=3),
        st.none(),
        st.lists(st.one_of(st.integers(-3, 60), st.floats(), st.booleans()), max_size=4),
    )

    @settings(max_examples=400, deadline=None)
    @given(st.dictionaries(st.sampled_from([f.name for f in fields(InvestConfig)]), FUZZED, max_size=4))
    def test_fuzzed_fields_only_raise_contract_errors(self, kwargs):
        try:
            InvestConfig(**kwargs)
        except ContractError:
            pass

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"consumption_period": 1},
            {"consumption_period": 7},
            {"consumption_period": 40},  # longer than n_max
            {"consumption_period": 10**30},
            {"consumption_times": (1, 5, 30)},
            {"consumption_times": (3, 31, 10**6, 10**30)},  # dates past n_max
            {"consumption_times": (31,)},
        ],
    )
    def test_indicator_is_chi_at_every_step(self, kwargs):
        cfg = InvestConfig(**kwargs)
        for n_max in (0, 1, 30):
            chi = consumption_indicator(cfg, n_max)
            assert chi.dtype == np.float64
            assert chi.tolist() == [cfg.chi(n) for n in range(n_max + 1)]

    def test_explicit_indicator_ignores_period(self):
        cfg = InvestConfig(consumption_times=(3, 7), consumption_period=2)
        chi = consumption_indicator(cfg, 10)
        assert chi.sum() == 2.0
        assert chi[3] == 1.0 and chi[7] == 1.0

    def test_adjoint_truncation_covers_future_consumption(self):
        assert InvestConfig().adjoint_truncation() == 70
        assert InvestConfig(consumption_times=(2,), horizon=2).adjoint_truncation() == 22
        assert InvestConfig(consumption_times=(5,), horizon=30).adjoint_truncation() == 50


class TestCoefficients:
    def test_drift_partials_match_closed_forms(self):
        cfg = small_config()
        coeffs = coefficient_set(cfg)
        x, u = np.array([1.3, 0.4]), np.array([0.2, 0.1])
        for n, chi in ((0, 0.0), (cfg.consumption_period, 1.0)):  # plain and consumption step
            # b = ((1 + r)(1 - c chi_n) - 1) x + (mu - r) u and sigma = sigma u
            # are linear in (x, u), so each is its partials' combination.
            closed = {
                "b_x": (1 + cfg.r) * (1 - cfg.c * chi) - 1,
                "b_u": cfg.mu - cfg.r,
                "sigma_x": 0.0,
                "sigma_u": cfg.sigma,
            }
            for name, want in closed.items():
                err = np.max(np.abs(getattr(coeffs, name)(n, x, u) - want))
                assert err < 1e-8, f"partial {name} off by {err} at step {n}"
            for func, wrt_x, wrt_u in (("b", "b_x", "b_u"), ("sigma", "sigma_x", "sigma_u")):
                linear = closed[wrt_x] * x + closed[wrt_u] * u
                err = np.max(np.abs(getattr(coeffs, func)(n, x, u) - linear))
                assert err < 1e-8, f"{func} is not its partials' combination at step {n}"

    def test_consumption_step_drift(self):
        cfg = small_config()
        coeffs = coefficient_set(cfg)
        # (1 + r)(1 - c) - 1 = 1.05 * 0.5 - 1 on consumption steps, r otherwise
        assert_allclose(coeffs.b_x(4, 1.0, 0.0), -0.475, rtol=1e-15)
        assert_allclose(coeffs.b_x(5, 1.0, 0.0), 0.05, rtol=1e-15)
        assert_allclose(coeffs.b(4, 2.0, 1.0), -0.475 * 2.0 + 0.1, rtol=1e-15)

    def test_cost_partials(self):
        cfg = small_config()
        cost = cost_driver(cfg)
        # f = (lam/2) y - Q x chi + R u^2 at a consumption step
        assert_allclose(cost.f(4, 3.0, 2.0, 0.0, 2.0), 0.5 * 2.0 - 3.0 + 0.01 * 4.0, rtol=1e-15)
        f_x = adjoint_tables(cfg, 5)[1]
        assert_allclose(f_x[4], -1.0, rtol=0)
        assert_allclose(f_x[5], 0.0, rtol=0)
        assert_allclose(cost.f_u(0, 0, 0, 0, 2.0), 0.04, rtol=1e-15)
        step = 1e-6
        fd = (cost.f(0, 0, 0, 0, 2.0 + step) - cost.f(0, 0, 0, 0, 2.0 - step)) / (2 * step)
        assert_allclose(cost.f_u(0, 0, 0, 0, 2.0), fd, rtol=1e-8)


class TestAdjoint:
    def test_matches_frozen_mini_case(self):
        cfg = InvestConfig(consumption_times=(2,), horizon=2, lam=1.0, gamma_exp=2.0)
        adj = solve_adjoint(cfg, truncation=2)
        assert_allclose(adj.p[1], ADJOINT_P1, rtol=1e-14, err_msg=f"p_1 = {adj.p[1]}")
        assert_allclose(adj.p[0], ADJOINT_P0, rtol=1e-14, err_msg=f"p_0 = {adj.p[0]}")
        assert adj.p[2] == 0.0

    def test_q_vanishes_identically(self):
        adj = solve_adjoint(small_config())
        assert np.all(adj.q == 0.0), f"max |q| = {np.max(np.abs(adj.q))}"

    def test_k_matches_closed_form_and_chain(self):
        cfg = small_config()
        adj = solve_adjoint(cfg)
        n = np.arange(1, adj.truncation + 1)
        closed = -((1 + cfg.lam / 2) ** (n - 1))
        assert adj.k[0] == 0.0
        assert_allclose(adj.k[1:], closed, rtol=1e-12)
        assert_allclose(adj.k, solve_adjoint_k(cfg.lam / 2, 0.0, adj.truncation), rtol=0, atol=0)

    def test_p_vanishes_after_last_consumption(self):
        cfg = InvestConfig(consumption_times=(5,), horizon=8)
        adj = solve_adjoint(cfg)
        assert np.all(adj.p[5:] == 0.0), "no sources remain past the last consumption date"
        assert np.all(adj.p[:5] < 0.0), f"p before the date must be negative, got {adj.p[:5]}"

    @pytest.mark.parametrize("truncation", [12.7, True, "20"])
    def test_truncation_must_be_an_integer(self, truncation):
        with pytest.raises(ContractError, match="truncation must be an integer"):
            solve_adjoint(small_config(), truncation=truncation)

    def test_pair_is_read_off_the_stored_solution(self):
        adj = solve_adjoint(small_config(), truncation=np.int64(20))
        assert [f.name for f in fields(adj)] == ["k", "solution"]
        assert adj.truncation == adj.solution.truncation == 20
        assert np.array_equal(adj.p, adj.solution.y[0]) and np.shares_memory(adj.p, adj.solution.y)
        assert np.array_equal(adj.q, adj.solution.z[0]) and np.shares_memory(adj.q, adj.solution.z)

    def test_truncation_must_reach_horizon(self):
        with pytest.raises(ContractError, match="truncation"):
            solve_adjoint(small_config(), truncation=5)

    def test_chain_overflow_names_step_and_growth(self):
        # k_n = -(1.5)^(n-1) passes the largest double at n = 1752, the
        # default truncation of horizon 1732; one step less stays finite.
        with pytest.raises(NumericalError, match=r"overflows at step 1752: .* = 1\.5 per step"):
            solve_adjoint(InvestConfig(horizon=1732))
        with pytest.raises(NumericalError, match="step 1752"):
            solve_adjoint(small_config(), truncation=1752)
        assert np.isfinite(solve_adjoint(small_config(), truncation=1751).k).all()


class TestControlFormula:
    # slope = (mu - r + sigma * pred) * p = -0.2 for p=-1, pred=0.5
    def test_interior_root_quadratic_penalty(self):
        cfg = InvestConfig()
        v = closed_form_control(cfg, 3, x=20.0, p_n=-1.0, k_n=-1.0, pred=0.5)
        assert_allclose(v, 10.0, rtol=1e-15, err_msg=f"interior root {v}")

    def test_interior_root_cubic_penalty(self):
        cfg = InvestConfig(beta_exp=3.0)
        v = closed_form_control(cfg, 3, x=20.0, p_n=-1.0, k_n=-1.0, pred=0.5)
        assert_allclose(v, 2.581988897471611, rtol=1e-15)

    def test_cap_at_post_consumption_wealth(self):
        cfg = InvestConfig(consumption_times=(5,))
        v_plain = closed_form_control(cfg, 3, x=4.0, p_n=-1.0, k_n=-1.0, pred=0.5)
        v_consume = closed_form_control(cfg, 5, x=4.0, p_n=-1.0, k_n=-1.0, pred=0.5)
        assert_allclose(v_plain, 4.0, rtol=0)
        assert_allclose(v_consume, 2.0, rtol=0, err_msg="cap must shrink by 1 - c on consumption steps")

    def test_positive_slope_floors_at_zero(self):
        v = closed_form_control(InvestConfig(), 3, x=20.0, p_n=1.0, k_n=-1.0, pred=0.5)
        assert v == 0.0

    def test_zero_p_gives_zero(self):
        v = closed_form_control(InvestConfig(), 3, x=20.0, p_n=0.0, k_n=-1.0, pred=0.0)
        assert v == 0.0

    def test_step_zero_is_bang_bang(self):
        cfg = InvestConfig()
        assert closed_form_control(cfg, 0, x=2.0, p_n=-1.0, k_n=0.0, pred=0.0) == 2.0
        assert closed_form_control(cfg, 0, x=2.0, p_n=1.0, k_n=0.0, pred=0.0) == 0.0
        assert closed_form_control(cfg, 0, x=2.0, p_n=0.0, k_n=0.0, pred=0.0) == 0.0

    def test_negative_wealth_invests_nothing(self):
        v = closed_form_control(InvestConfig(), 3, x=-3.0, p_n=-1.0, k_n=-1.0, pred=0.5)
        assert v == 0.0

    def test_vanishing_k_rejected_past_step_zero(self):
        with pytest.raises(ContractError, match="step 3"):
            closed_form_control(InvestConfig(), 3, x=1.0, p_n=-1.0, k_n=0.0, pred=0.0)

    @pytest.mark.parametrize("beta_exp", [2.0, 1.5])
    def test_interior_root_takes_the_power_unless_it_is_one(self, beta_exp):
        cfg = InvestConfig(beta_exp=beta_exp)
        slope = np.random.default_rng(1).standard_normal(1000)
        k = -0.7
        base = np.maximum(slope / (cfg.beta_exp * cfg.risk_weight * k), 0.0)
        root = invest_module._interior_root(cfg, slope, k)
        assert np.array_equal(root, base ** (1.0 / (cfg.beta_exp - 1.0)))
        assert np.array_equal(root, base) is (beta_exp == 2.0)

    def test_vectorizes_over_paths(self):
        cfg = InvestConfig()
        x = np.array([20.0, 4.0, -1.0])
        v = closed_form_control(cfg, 3, x, p_n=-1.0, k_n=-1.0, pred=np.array([0.5, 0.5, 0.5]))
        assert_allclose(v, [10.0, 4.0, 0.0], rtol=0)


class TestRunExperiment:
    def test_small_run_satisfies_first_order_conditions(self):
        result = run_experiment(small_config())
        assert result.check["passed"], f"violations: {result.check['violations']}"
        assert result.check["n_violations"] == 0
        assert result.check["min_bracket_product"] >= -result.check["tolerance"]
        assert result.check["min_trial_product"] is None, "trials are off by default"

    def test_certificate_bounds_the_trial_witness(self):
        result = run_experiment(small_config(), n_trials=20)
        assert result.check["trials"] == 20
        assert result.check["min_bracket_product"] <= result.check["min_trial_product"]

    def test_shapes_and_bounds(self):
        cfg = small_config()
        result = run_experiment(cfg, n_trials=5)
        assert result.state.controls.shape == (cfg.paths, cfg.horizon + 1)
        assert run_bracket(result).shape == (cfg.paths, cfg.horizon + 1)
        assert result.clamp_stats["max_bound_violation"] == 0.0
        fractions = [
            result.clamp_stats["floor_fraction"],
            result.clamp_stats["cap_fraction"],
            result.clamp_stats["interior_fraction"],
        ]
        assert_allclose(sum(fractions), 1.0, rtol=1e-15)

    def test_state_controls_are_a_view_of_the_one_controls_array(self):
        cfg = small_config()
        simulated = []

        def recording_simulate_state(*args, **kwargs):
            simulated.append(simulate_state(*args, **kwargs))
            return simulated[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(invest_module, "simulate_state", recording_simulate_state)
            result = run_experiment(cfg)
        # The simulator's step-major buffer itself, terminal control included.
        assert result.state.controls is simulated[0].controls
        assert result.state.controls.shape == (cfg.paths, cfg.horizon + 1)
        assert result.state.controls.flags.f_contiguous
        sys = build_innovation_system(cfg.hurst, cfg.horizon + 1)
        noise = sample_ensemble(sys, cfg.seed, cfg.paths, n_steps=cfg.horizon)
        pred = prediction_matrix(sys, noise.xi, cfg.horizon)
        rule = control_rule(cfg, sys, solve_adjoint(cfg), pred)
        state = simulate_state(coefficient_set(cfg), ControlProcess(rule=rule), noise, cfg.x0, terminal=True)
        assert np.array_equal(result.state.controls, state.controls)
        assert np.array_equal(result.state.values, state.values)

    def test_step_zero_goes_all_in(self):
        # k_0 = 0 and p_0 < 0 make step 0 bang-bang at the cap, which is x0.
        cfg = small_config()
        result = run_experiment(cfg, n_trials=1)
        assert result.adjoint.p[0] < 0.0
        assert_allclose(result.state.controls[:, 0], cfg.x0, rtol=0, atol=0)

    def test_the_cost_solve_along_the_run_reads_its_terminal_control(self):
        # The cost's R v_N^beta reads the terminal position, which the run's
        # state carries: without it the solve meets NaN at step horizon - 1.
        cfg = small_config()
        result = run_experiment(cfg)
        cost = solve_truncated(cost_driver(cfg), result.state, None, cfg.horizon, cfg.lam, cfg.gamma_exp)
        assert np.all(np.isfinite(cost.y)) and np.all(np.isfinite(cost.z))
        assert cost.y.shape == (cfg.paths, cfg.horizon + 1)

    def test_wealth_halves_at_consumption_when_uninvested(self):
        # With lam=1, gamma_exp=2 the position is ~0 after step 0, so wealth
        # compounds at 1 + r and drops by the factor 1 - c across each
        # consumption step: X_{n+1} ~ (1 + r)(1 - c) X_n there.
        cfg = small_config(paths=8)
        result = run_experiment(cfg, n_trials=1)
        X = result.state.values
        ratio = X[:, 5] / X[:, 4]
        assert_allclose(ratio, (1 + cfg.r) * (1 - cfg.c), rtol=1e-6)

    def test_outputs_are_byte_deterministic(self, tmp_path):
        cfg = small_config(paths=16)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out_dir=dir_a, n_trials=3)
        run_experiment(cfg, out_dir=dir_b, n_trials=3)
        for name in ("wealth.csv", "adjoint.csv", "config.resolved.json", "plot_wealth.py"):
            a = (dir_a / name).read_bytes()
            b = (dir_b / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_wealth_csv_layout(self, tmp_path):
        cfg = small_config(paths=3)
        run_experiment(cfg, out_dir=tmp_path, n_trials=1)
        lines = (tmp_path / "wealth.csv").read_text().splitlines()
        assert lines[0] == "path_id,n,X,v"
        assert len(lines) == 1 + cfg.paths * (cfg.horizon + 1)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == cfg.x0

    def test_adjoint_csv_layout(self, tmp_path):
        cfg = small_config(paths=2)
        result = run_experiment(cfg, out_dir=tmp_path, n_trials=1)
        lines = (tmp_path / "adjoint.csv").read_text().splitlines()
        assert lines[0] == "n,p,q,k"
        assert len(lines) == 2 + result.adjoint.truncation
        assert lines[-1].split(",")[2] == "", "q column must be empty at the terminal row"

    def test_config_snapshot_resolves_consumption_times(self, tmp_path):
        cfg = small_config(paths=2)
        run_experiment(cfg, out_dir=tmp_path, n_trials=1)
        snap = json.loads((tmp_path / "config.resolved.json").read_text())
        assert snap["consumption_times_resolved"] == [4, 8, 12]
        assert snap["adjoint_truncation"] == cfg.adjoint_truncation()
        assert snap["horizon"] == cfg.horizon
        assert snap["check_passed"] is True

    def test_plot_script_compiles(self, tmp_path):
        run_experiment(small_config(paths=2), out_dir=tmp_path, n_trials=1)
        src = (tmp_path / "plot_wealth.py").read_text()
        compile(src, "plot_wealth.py", "exec")

    def test_rule_rejects_steps_past_truncation(self):
        cfg = small_config()
        adj = solve_adjoint(cfg)
        sys = build_innovation_system(cfg.hurst, cfg.horizon + 1)
        rule = control_rule(cfg, sys, adj)
        with pytest.raises(ContractError, match="truncation"):
            rule(adj.truncation + 1, np.ones(2), np.zeros((2, 2)))


class TestDroppedInnovations:
    """run_experiment's ensemble holds no innovations; a regression solve
    along its state redraws them from the seed, bit for bit."""

    @pytest.mark.parametrize(
        "config",
        [
            small_config(paths=3001),
            InvestConfig(hurst=0.3, horizon=30, paths=40, seed=2, consumption_times=(4, 9, 33)),
        ],
        ids=["small", "csv-run"],
    )
    def test_solves_along_the_run_read_the_sampled_innovations(self, config):
        result = run_experiment(config)
        assert result.state.noise.eta is None
        sys = build_innovation_system(config.hurst, config.horizon + 1)
        sampled = sample_ensemble(sys, config.seed, config.paths, n_steps=config.horizon)
        assert np.array_equal(result.state.noise.xi, sampled.xi)
        held = replace(result.state, noise=sampled)
        chi = consumption_indicator(config, config.horizon)
        controls = result.state.controls
        directions = 0.3 * np.maximum(result.state.values * (1 - config.c * chi), 0.0) - controls
        coeffs = coefficient_set(config)
        for solve in (
            lambda state: solve_truncated(
                cost_driver(config), state, None, config.horizon, config.lam, config.gamma_exp,
            ),
            lambda state: solve_variational(
                -config.wealth_weight * chi, 0.5 * config.lam, 0.0, 0.02 * controls,
                simulate_variation(coeffs, state, directions[:, :-1]), directions,
                config.horizon, config.lam, config.gamma_exp, window=2,
            ),
        ):
            got, want = solve(result.state), solve(held)
            assert np.array_equal(got.y, want.y) and np.array_equal(got.z, want.z)
            assert np.any(got.z != 0.0), "Z must read the innovations for the check to bite"
            assert got.diagnostics == want.diagnostics

    def test_the_run_holds_at_most_five_grids(self):
        # At its peak a run holds four grids: the noise, the predictions, the
        # wealth and the controls.  The rule's x-free part, the bracket and
        # the caps are made one block of steps at a time.
        config = InvestConfig(paths=20000, horizon=50)
        grid = config.paths * (config.horizon + 1) * 8
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 4.5 * grid, f"peak {peak} bytes is {peak / grid:.2f} grids of {grid} bytes"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="ru_maxrss is in kilobytes, and the heap is glibc's, on Linux only",
    )
    def test_a_third_run_peaks_where_the_first_did(self):
        # tracemalloc sees no holes in the heap, so the resident peak of a
        # fresh process is read after the first and the third run.  A grid
        # allocated after the scratch that fills it leaves a hole below it,
        # which the later grids split: the third run then peaks most of a
        # grid higher than the first.
        script = """
import json, resource
from fracctrl.invest import InvestConfig, run_experiment
peaks = []
for _ in range(3):
    run_experiment(InvestConfig(paths=20000, horizon=50))
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
print(json.dumps(peaks))
"""
        src = str(Path(invest_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        peaks = json.loads(done.stdout)
        grid = 20000 * 51 * 8
        growth = (peaks[2] - peaks[0]) / grid
        assert growth <= 0.25, f"resident peaks {peaks} bytes: the third run grew {growth:.2f} grids of {grid} bytes"


def per_step_prediction_run(config):
    """run_experiment's check and clamp statistics with predict_next at each step."""
    sys = build_innovation_system(config.hurst, config.horizon + 1)
    noise = sample_ensemble(sys, config.seed, config.paths, n_steps=config.horizon)
    adjoint = solve_adjoint(config)
    rule = control_rule(config, sys, adjoint)
    coeffs = coefficient_set(config)
    state = simulate_state(coeffs, ControlProcess(rule=rule), noise, config.x0, terminal=True)
    controls = state.controls
    bracket = bracket_values(
        coeffs, cost_driver(config), state, adjoint.solution, adjoint.k, sys, truncation=config.horizon
    )
    chi = consumption_indicator(config, config.horizon)
    caps = np.maximum(state.values * (1 - config.c * chi), 0.0)
    clamps = _Clamps()
    clamps.add(controls, caps)  # the whole grid as one block
    return check_necessary_condition(bracket, controls, 0.0, caps), clamps.stats()


def run_bracket(result):
    """The bracket of a run, rebuilt as the InvestResult docstring says."""
    cfg = result.config
    return bracket_values(
        coefficient_set(cfg), cost_driver(cfg), result.state, result.adjoint.solution,
        result.adjoint.k, result.system, truncation=cfg.horizon,
        predictions=prediction_matrix(result.system, result.state.noise.xi, cfg.horizon),
    )


class TestSharedPredictions:
    @pytest.mark.parametrize(
        "hurst,paths,horizon", [(0.25, 100, 1700), (0.75, 50_000, 50)], ids=["deep", "wide"]
    )
    def test_rule_with_and_without_predictions(self, hurst, paths, horizon):
        cfg = InvestConfig(hurst=hurst, paths=paths, horizon=horizon, seed=3)
        sys = build_innovation_system(hurst, horizon + 1)
        xi = sample_ensemble(sys, cfg.seed, paths, n_steps=horizon).xi
        adjoint = solve_adjoint(cfg)
        pred = prediction_matrix(sys, xi, horizon)
        shared, per_step = control_rule(cfg, sys, adjoint, pred), control_rule(cfg, sys, adjoint)
        x = np.linspace(0.5, 2.0, paths)
        worst_pred = worst_control = 0.0
        for n in range(horizon + 1):
            worst_pred = max(worst_pred, np.max(np.abs(pred[:, n] - predict_next(sys, xi[:, :n]))))
            delta = shared(n, x, xi[:, :n]) - per_step(n, x, xi[:, :n])
            worst_control = max(worst_control, np.max(np.abs(delta)))
        assert worst_pred <= 1e-15, f"GEMM and per-step predictions differ by {worst_pred:.2e}"
        assert worst_control <= 1e-15, f"controls differ by {worst_control:.2e}"

    def test_bracket_and_controls_read_one_prediction_matrix(self):
        cfg = small_config()
        result = run_experiment(cfg)
        pred = prediction_matrix(result.system, result.state.noise.xi, cfg.horizon)
        for n in range(cfg.horizon + 1):
            v = closed_form_control(
                cfg, n, result.state.values[:, n], result.adjoint.p[n], result.adjoint.k[n],
                pred[:, n],
            )
            assert np.array_equal(result.state.controls[:, n], v), f"control at step {n}"
        bracket = bracket_values(
            coefficient_set(cfg), cost_driver(cfg), result.state, result.adjoint.solution,
            result.adjoint.k, result.system, truncation=cfg.horizon, predictions=pred,
        )
        caps = np.maximum(result.state.values * (1 - cfg.c * consumption_indicator(cfg, cfg.horizon)), 0.0)
        assert result.check == check_necessary_condition(bracket, result.state.controls, 0.0, caps)

    def test_bracket_rejects_predictions_of_the_wrong_shape(self):
        cfg = small_config()
        result = run_experiment(cfg)
        args = (coefficient_set(cfg), cost_driver(cfg), result.state, result.adjoint.solution,
                result.adjoint.k, result.system)
        with pytest.raises(ContractError, match=r"predictions has \d+ steps, 1 short of the \d+ read"):
            bracket_values(*args, truncation=cfg.horizon, predictions=np.zeros((cfg.paths, cfg.horizon)))

    def test_the_rule_holds_one_block_and_the_run_keeps_no_predictions(self, monkeypatch):
        # Made over the whole grid at once, the rule's x-free part was as
        # large as the predictions and raised a run's peak by a grid.  It is
        # made one block of steps at a time, here 3 steps over all paths.
        cfg = small_config()
        monkeypatch.setattr("fracctrl.smp._BLOCK_ENTRIES", 3 * cfg.paths)
        made, sizes = [], []

        def recording_prediction_matrix(*args):
            out = prediction_matrix(*args)
            made.append(weakref.ref(out))
            return out

        def recording_control_rule(config, sys, adjoint, predictions=None):
            rule = control_rule(config, sys, adjoint, predictions)

            def recorded(*args):
                out = rule(*args)
                for cell in rule.__closure__:
                    held = cell.cell_contents if isinstance(cell.cell_contents, list) else [cell.cell_contents]
                    sizes.extend(
                        a.size for a in held if isinstance(a, np.ndarray) and a.ndim == 2 and a is not predictions
                    )
                return out

            return recorded

        monkeypatch.setattr(invest_module, "prediction_matrix", recording_prediction_matrix)
        monkeypatch.setattr(invest_module, "control_rule", recording_control_rule)
        assert run_experiment(cfg).check["passed"]
        assert sizes and max(sizes) == 3 * cfg.paths, f"the rule held arrays of {sorted(set(sizes))} entries"
        assert made and made[0]() is None, "the run kept the prediction matrix"

    def test_run_certificate_with_witness_is_the_whole_grid_check(self):
        # The run's block pass against the public certificate on whole grids,
        # at tolerance 0 (rounding-level violations included) with a witness.
        cfg = InvestConfig(paths=20000, horizon=50, seed=7919)
        result = run_experiment(cfg, n_trials=7, tolerance=0.0)
        caps = np.maximum(result.state.values * (1 - cfg.c * consumption_indicator(cfg, cfg.horizon)), 0.0)
        want = check_necessary_condition(
            run_bracket(result), result.state.controls, 0.0, caps, n_trials=7, seed=cfg.seed, tolerance=0.0
        )
        assert want["n_violations"] > 0 and want["min_trial_product"] is not None
        assert result.check == want

    @pytest.mark.parametrize("beta_exp", [1.5, 2.0, 2.5, 3.0])
    def test_grid_rule_equals_the_closed_form_per_step(self, beta_exp):
        cfg = small_config(beta_exp=beta_exp, paths=301)
        sys = build_innovation_system(cfg.hurst, cfg.horizon + 1)
        xi = sample_ensemble(sys, cfg.seed, cfg.paths, n_steps=cfg.horizon).xi
        adjoint = solve_adjoint(cfg)
        pred = prediction_matrix(sys, xi, cfg.horizon)
        rule = control_rule(cfg, sys, adjoint, pred)
        x = np.linspace(-0.5, 3.0, cfg.paths)
        for n in range(cfg.horizon + 1):
            want = closed_form_control(cfg, n, x, adjoint.p[n], adjoint.k[n], pred[:, n])
            assert np.array_equal(rule(n, x, xi[:, :n]), want), f"step {n}"

    def test_grid_rule_refuses_vanishing_k_at_its_step(self):
        cfg = small_config()
        sys = build_innovation_system(cfg.hurst, cfg.horizon + 1)
        xi = sample_ensemble(sys, cfg.seed, cfg.paths, n_steps=cfg.horizon).xi
        solved = solve_adjoint(cfg)
        k = solved.k.copy()
        k[5] = 0.0
        adjoint = invest_module.InvestAdjoint(k=k, solution=solved.solution)
        pred = prediction_matrix(sys, xi, cfg.horizon)
        rule = control_rule(cfg, sys, adjoint, pred)
        x = np.ones(cfg.paths)
        # The rule makes its block of steps 0..12 at its first call: no 1/k
        # is formed at k = 0.
        with np.errstate(all="raise"):
            for n in (0, 4, 6):
                want = closed_form_control(cfg, n, x, adjoint.p[n], k[n], pred[:, n])
                assert np.array_equal(rule(n, x, xi[:, :n]), want)
            with pytest.raises(ContractError, match="k vanishes at step 5"):
                rule(5, x, xi[:, :5])

    @pytest.mark.parametrize(
        "config",
        [
            InvestConfig(horizon=50, paths=10**4, hurst=0.75, seed=8),
            InvestConfig(hurst=0.75, paths=500, seed=10),
            InvestConfig(hurst=0.25, paths=500, seed=10),
        ],
        ids=["criterion-08", "criterion-10-h75", "criterion-10-h25"],
    )
    def test_verdict_and_clamps_match_per_step_predictions(self, config):
        result = run_experiment(config)
        check, clamp_stats = per_step_prediction_run(config)
        assert result.check["passed"] is check["passed"] is True
        assert result.check["n_violations"] == check["n_violations"]
        assert result.clamp_stats == clamp_stats


def path_major(noise):
    """The same ensemble with both arrays copied path-major (C order)."""
    return NoiseEnsemble(
        seed=noise.seed, eta=np.ascontiguousarray(noise.eta), xi=np.ascontiguousarray(noise.xi)
    )


def criterion_09_chain(config, sys, noise):
    """The duality chain of criterion 09, its rule predicting at each call."""
    adjoint = solve_adjoint(config, truncation=config.horizon)
    coeffs = coefficient_set(config)
    rule = control_rule(config, sys, adjoint)
    state = simulate_state(coeffs, ControlProcess(rule=rule), noise, config.x0, terminal=True)
    controls = state.controls
    bracket = bracket_values(coeffs, cost_driver(config), state, adjoint.solution, adjoint.k, sys)
    chi = consumption_indicator(config, config.horizon)
    caps = np.maximum(state.values * (1 - config.c * chi), 0.0)
    directions = 0.3 * caps - controls
    variation = simulate_variation(coeffs, state, directions[:, :-1])
    f_u = config.beta_exp * config.risk_weight * controls ** (config.beta_exp - 1)
    variational = solve_variational(
        -config.wealth_weight * chi, 0.5 * config.lam, 0.0, f_u, variation, directions,
        config.horizon, config.lam, config.gamma_exp, backend="regression", window=5, degree=2,
    )
    return rule, adjoint, state, controls, duality_gap(bracket, directions, variational)


class TestNoiseLayout:
    """Sampled noise is step-major; an ensemble built path-major by hand must
    give the same run."""

    @pytest.mark.parametrize(
        "config",
        [
            small_config(paths=3001),
            InvestConfig(hurst=0.25, paths=100, horizon=300, seed=3),
            InvestConfig(horizon=50, paths=10**4, hurst=0.75, seed=8),
        ],
        ids=["small", "deep-like", "criterion-08"],
    )
    def test_path_major_noise_gives_the_same_run(self, monkeypatch, config):
        want = run_experiment(config)
        assert want.state.noise.xi.flags.f_contiguous

        def path_major_sampling(*args, **kwargs):
            return path_major(sample_ensemble(*args, **kwargs))

        monkeypatch.setattr(invest_module, "sample_ensemble", path_major_sampling)
        got = run_experiment(config)
        assert got.state.noise.xi.flags.c_contiguous
        assert np.array_equal(got.state.noise.xi, want.state.noise.xi)
        assert np.array_equal(got.state.values, want.state.values)
        assert np.array_equal(got.state.controls, want.state.controls)
        assert np.array_equal(run_bracket(got), run_bracket(want))
        assert got.check == want.check
        assert got.clamp_stats == want.clamp_stats

    def test_per_call_rule_moves_within_the_prediction_bound(self):
        # Through the per-call rule the predictions come from predict_next on
        # prefixes of xi, which sum in an order set by the prefix layout.  At
        # beta_exp 2 the control is 1-Lipschitz in its free part
        # sigma p_n pred / (2 R k_n), so predict_next's bound of 1e-14 of the
        # summed magnitudes carries over.  Observed over the whole chain at
        # 1e5 paths x 24 steps: controls within 1.8e-15 (largest |v| 10.7),
        # states within 3.8e-14 relative, lhs and rhs unchanged.
        config = InvestConfig(
            consumption_times=(2, 4, 6, 8, 10, 12), horizon=12, paths=10**4, lam=0.5,
            gamma_exp=1.2, hurst=0.75, seed=9,
        )
        sys = build_innovation_system(config.hurst, config.horizon + 1)
        noise = sample_ensemble(sys, config.seed, config.paths, n_steps=config.horizon)
        rule, adjoint, state, controls, report = criterion_09_chain(config, sys, noise)
        *_, state_c, controls_c, report_c = criterion_09_chain(config, sys, path_major(noise))

        xi = noise.xi
        for n in range(1, config.horizon + 1):
            x = state.values[:, n]
            moved = rule(n, x, xi[:, :n]) - rule(n, x, np.ascontiguousarray(xi[:, :n]))
            slope = abs(config.sigma * adjoint.p[n] / (2 * config.risk_weight * adjoint.k[n]))
            magnitude = np.abs(xi[:, :n]) @ np.abs(sys.gamma[n, :n])
            assert np.all(np.abs(moved) <= 1e-14 * slope * magnitude), f"step {n}"

        assert_allclose(controls, controls_c, rtol=0, atol=1e-13 * np.max(np.abs(controls_c)))
        assert_allclose(state.values, state_c.values, rtol=1e-12)
        for side in ("lhs", "rhs"):
            assert_allclose(report[side], report_c[side], rtol=1e-12)
