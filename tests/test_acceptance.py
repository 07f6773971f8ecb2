"""Acceptance suite: the package-level guarantees, one criterion per test.

Each test prints one PASS line (with the measured numbers) once every
assertion holds; a failing criterion shows up as the matching pytest FAIL.
Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""
import time

import numpy as np
from numpy.testing import assert_allclose

from fracctrl.backward import DriverSpec, cauchy_diagnostic, solve_truncated
from fracctrl.forward import ControlProcess, perturb_control, simulate_state, simulate_variation
from fracctrl.fracnoise import (
    autocovariance_matrix,
    build_innovation_system,
    fgn_autocovariance,
    gaussian_abs_moment,
    prediction_matrix,
    sample_ensemble,
)
from fracctrl.invest import (
    InvestConfig,
    coefficient_set,
    consumption_indicator,
    control_rule,
    cost_driver,
    run_experiment,
    solve_adjoint,
)
from fracctrl.smp import bracket_values, duality_gap, solve_adjoint_k, solve_variational
from fracctrl.spaces import WeightedNormParams, delta_products, product_lower_bound, weighted_norm


def _report(index: int, detail: str) -> None:
    print(f"criterion {index:2d}: PASS — {detail}")


def test_criterion_01_innovation_algebra():
    t0 = time.perf_counter()
    worst_fact = worst_inv = 0.0
    eye = np.eye(256)
    for h in np.arange(1, 10) / 10:
        system = build_innovation_system(h, 256)
        worst_fact = max(worst_fact, float(np.max(np.abs(system.beta @ system.beta.T - system.covariance))))
        worst_inv = max(worst_inv, float(np.max(np.abs(system.beta @ system.alpha - eye))))
    elapsed = time.perf_counter() - t0
    assert worst_fact < 1e-10, f"factorization identity off by {worst_fact}"
    assert worst_inv < 1e-10, f"inverse identity off by {worst_inv}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"
    _report(1, f"max|bb^T-Cov|={worst_fact:.2e}, max|ba-I|={worst_inv:.2e}, {elapsed:.2f}s")


def test_criterion_02_prediction_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for h in (0.25, 0.75):
        system = build_innovation_system(h, 65)
        for n in range(1, 65):
            lags = np.arange(n, 0, -1)
            oracle = np.linalg.solve(autocovariance_matrix(h, n), fgn_autocovariance(h, lags))
            xi = rng.standard_normal((100, n))
            worst = max(worst, float(np.max(np.abs(xi @ (system.gamma[n, :n] - oracle)))))
    assert worst < 1e-8, f"prediction weights differ from the normal equations by {worst}"
    half = build_innovation_system(0.5, 65)
    assert np.all(half.gamma == 0.0), "H=1/2 must have exactly zero prediction weights"
    preds = prediction_matrix(half, rng.standard_normal((100, 64)), 64)
    assert np.all(preds == 0.0)
    _report(2, f"max oracle deviation={worst:.2e}, H=0.5 predictions exactly 0")


def test_criterion_03_delta_product_bounds():
    # exp(2^{1-theta}/(1-theta) + 2^{1-2 theta}/(1-2 theta)) at theta=2 is
    # exp(-13/24); frozen from independent arithmetic.
    frozen = 0.5817778142098083
    assert abs(product_lower_bound(2.0) - frozen) < 1e-5
    margins = {}
    for theta in (1.5, 2.0, 3.0, 5.0):
        products = delta_products(theta, 10**6)
        bound = product_lower_bound(theta)
        low = float(products.min())
        assert low >= bound, f"theta={theta}: product {low} fell below bound {bound}"
        margins[theta] = low - bound
    worst = min(margins.values())
    _report(3, f"theta=2 bound={product_lower_bound(2.0):.10f}, smallest margin={worst:.2e}")


def test_criterion_04_gaussian_moments():
    assert gaussian_abs_moment(2) == 1.0
    assert gaussian_abs_moment(4) == 3.0
    draws = np.abs(np.random.default_rng(4).standard_normal(10**6))
    worst_sigmas = 0.0
    for m in range(1, 7):
        powered = draws ** float(m)
        est, ref = float(powered.mean()), gaussian_abs_moment(m)
        stderr = float(powered.std()) / np.sqrt(powered.size)
        sigmas = abs(est - ref) / stderr
        assert sigmas < 4.0, f"moment {m}: estimate {est} is {sigmas:.1f} stderr from {ref}"
        worst_sigmas = max(worst_sigmas, sigmas)
    _report(4, f"(2)=1 and (4)=3 exact, worst MC deviation {worst_sigmas:.2f} stderr")


def test_criterion_05_constant_driver_exactness():
    c, lam, gamma_exp, n_trunc = 0.7, 1.0, 2.0, 12
    solution = solve_truncated(
        DriverSpec(f=lambda n, x, y, z, u: c), None, None, n_trunc, lam, gamma_exp, backend="exact"
    )
    closed = np.array(
        [
            c * sum(np.exp(-lam * (j**gamma_exp - n**gamma_exp)) for j in range(n + 1, n_trunc + 1))
            for n in range(n_trunc + 1)
        ]
    )
    y_err = float(np.max(np.abs(solution.y[0] - closed)))
    z_err = float(np.max(np.abs(solution.z)))
    assert y_err < 1e-10, f"closed form reproduced only to {y_err}"
    assert z_err < 1e-12, f"Z must vanish, max |Z| = {z_err}"
    _report(5, f"max|Y-closed|={y_err:.2e}, max|Z|={z_err:.2e}")


def test_criterion_06_truncation_cauchy():
    # The figure discount (lam=1, exponent 2) underflows every difference to
    # exactly 0.0, so decay is measured on the same adjoint family at a
    # gentler discount (see the decisions ledger).
    t0 = time.perf_counter()
    lam, gamma_exp = 0.2, 1.2
    n_list = (20, 40, 80, 160)
    config = InvestConfig(lam=lam, gamma_exp=gamma_exp)
    chi = consumption_indicator(config, n_list[-1])
    k = solve_adjoint_k(0.5 * lam, 0.0, n_list[-1])
    b_x = (1 + config.r) * (1 - config.c * chi) - 1
    f_x = -config.wealth_weight * chi
    driver = DriverSpec(f=lambda n, x, y, z, u: b_x[n] * y - f_x[n] * k[n])
    params = WeightedNormParams(lam=lam, gamma_exp=gamma_exp, base_power=1.0, direction="backward")
    rows = cauchy_diagnostic(driver, None, None, n_list, params)
    elapsed = time.perf_counter() - t0
    norms = [row["norm_y"] for row in rows]
    assert all(b < a for a, b in zip(norms, norms[1:])), f"differences not strictly decreasing: {norms}"
    assert norms[-1] < 1e-8, f"final difference {norms[-1]} above 1e-8"
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"
    _report(6, f"norms {', '.join(f'{v:.2e}' for v in norms)}, {elapsed:.2f}s")


def test_criterion_07_variation_rates():
    config = InvestConfig(
        consumption_times=(2, 4, 6, 8, 10, 12),
        horizon=12,
        paths=400,
        lam=0.5,
        gamma_exp=1.2,
        hurst=0.75,
        seed=7,
    )
    sys = build_innovation_system(config.hurst, config.horizon + 1)
    noise = sample_ensemble(sys, config.seed, config.paths, n_steps=config.horizon)
    adjoint = solve_adjoint(config)
    coeffs = coefficient_set(config)
    state = simulate_state(coeffs, ControlProcess(rule=control_rule(config, sys, adjoint)), noise, config.x0)
    chi = consumption_indicator(config, config.horizon)
    caps = np.maximum(state.values * (1 - config.c * chi), 0.0)
    u_star = state.controls
    u_tilde = 0.3 * caps[:, :-1]
    variation = simulate_variation(coeffs, state, u_tilde - u_star)
    params = WeightedNormParams(lam=config.lam, gamma_exp=config.gamma_exp, base_power=2.0, direction="forward")

    sq_norms, resid_norms = [], []
    for eps in (1e-1, 1e-2, 1e-3):
        perturbed = simulate_state(coeffs, perturb_control(u_star, u_tilde, eps), noise, config.x0)
        diff = perturbed.values - state.values
        sq_norms.append(weighted_norm(diff, params).value)
        resid_norms.append(weighted_norm(diff / eps - variation.values, params).value)
    for lo, hi in zip(sq_norms[1:], sq_norms[:-1]):
        ratio = hi / lo
        assert 100 / 3 < ratio < 300, f"squared norm ratio {ratio} departs from the eps^2 rate"
    # affine dynamics make the quotient equal the variation exactly; the
    # residual norm is pure float cancellation noise (ledgered noise floor)
    assert max(resid_norms) <= 1e-18, f"quotient residuals {resid_norms} above the noise floor"
    ratios = [hi / lo for lo, hi in zip(sq_norms[1:], sq_norms[:-1])]
    _report(7, f"eps^2 ratios {', '.join(f'{r:.1f}' for r in ratios)}, max residual {max(resid_norms):.1e}")


def test_criterion_08_investment_smp():
    t0 = time.perf_counter()
    config = InvestConfig(horizon=50, paths=10**4, hurst=0.75, seed=8)
    result = run_experiment(config, n_trials=100, tolerance=1e-8)
    assert np.all(result.adjoint.q == 0.0), "q must vanish identically"
    steps = np.arange(1, result.adjoint.truncation + 1, dtype=float)
    assert result.adjoint.k[0] == 0.0
    assert_allclose(result.adjoint.k[1:], -(1.5 ** (steps - 1)), rtol=1e-12)
    assert result.check["n_violations"] == 0, f"violations: {result.check['violations']}"
    assert result.check["passed"]
    assert result.check["min_bracket_product"] <= result.check["min_trial_product"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"
    _report(
        8,
        f"q=0 exact, k matches -(1.5)^(n-1), 0 violations in {result.check['trials']} trials "
        f"(min product {result.check['min_bracket_product']:.1e}), {elapsed:.1f}s",
    )


def test_criterion_09_duality_identity():
    # Matched truncation with early consumption and a gentle discount so both
    # sides are far from zero (see the decisions ledger).
    config = InvestConfig(
        consumption_times=(2, 4, 6, 8, 10, 12),
        horizon=12,
        paths=10**5,
        lam=0.5,
        gamma_exp=1.2,
        hurst=0.75,
        seed=9,
    )
    sys = build_innovation_system(config.hurst, config.horizon + 1)
    noise = sample_ensemble(sys, config.seed, config.paths, n_steps=config.horizon)
    adjoint = solve_adjoint(config, truncation=config.horizon)
    coeffs = coefficient_set(config)
    rule = control_rule(config, sys, adjoint)
    state = simulate_state(coeffs, ControlProcess(rule=rule), noise, config.x0)
    terminal_v = rule(config.horizon, state.values[:, -1], noise.xi)
    controls = np.hstack([state.controls, np.asarray(terminal_v)[:, None]])

    bracket = bracket_values(
        coeffs, cost_driver(config), state, adjoint.solution, adjoint.k, sys, controls=controls
    )
    chi = consumption_indicator(config, config.horizon)
    caps = np.maximum(state.values * (1 - config.c * chi), 0.0)
    directions = 0.3 * caps - controls
    variation = simulate_variation(coeffs, state, directions[:, :-1])
    f_u_table = config.beta_exp * config.risk_weight * controls ** (config.beta_exp - 1)
    variational = solve_variational(
        -config.wealth_weight * chi,
        0.5 * config.lam,
        0.0,
        f_u_table,
        variation,
        directions,
        config.horizon,
        config.lam,
        config.gamma_exp,
        backend="regression",
        window=5,
        degree=2,
    )
    report = duality_gap(bracket, directions, variational)
    assert abs(report["rhs"]) > 1e-3, f"identity is vacuous, Yhat_0 = {report['rhs']}"
    assert report["gap"] < 1e-2, f"duality gap {report['gap']} above 1e-2 (lhs {report['lhs']}, rhs {report['rhs']})"
    _report(9, f"lhs={report['lhs']:.6f}, rhs={report['rhs']:.6f}, gap={report['gap']:.1e} at 1e5 paths")


def test_criterion_10_figure_experiments(tmp_path):
    details = []
    for hurst in (0.75, 0.25):
        config = InvestConfig(hurst=hurst, paths=500, seed=10)
        out = tmp_path / f"h{int(hurst * 100)}"
        result = run_experiment(config, out_dir=out, n_trials=10)
        for name in ("wealth.csv", "adjoint.csv", "config.resolved.json", "plot_wealth.py"):
            assert (out / name).exists(), f"H={hurst}: {name} missing"
        chi = consumption_indicator(config, config.horizon)
        caps = np.maximum(result.state.values * (1 - config.c * chi), 0.0)
        assert np.all(result.controls >= 0.0), f"H={hurst}: negative position"
        assert np.all(result.controls <= caps), f"H={hurst}: position above the admissible cap"
        assert result.clamp_stats["max_bound_violation"] == 0.0
        details.append(f"H={hurst} ok")
    # exact figure values are not reproducible (unpublished seeds); the runs,
    # outputs, and the admissibility invariant are what is checked
    _report(10, f"{'; '.join(details)}, CSVs+plot scripts written, v in [0, cap] everywhere")
