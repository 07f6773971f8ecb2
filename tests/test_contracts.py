"""One contract for every public array argument: malformed input raises a
ContractError that names the argument, never numpy's ValueError or
IndexError, and never comes back as NaN."""

import re

import numpy as np
import pytest

from fracctrl.backward import BsdeSolution, DriverSpec, conditional_expectation, solve_truncated
from fracctrl.errors import ContractError, floats
from fracctrl.forward import (
    CoefficientSet,
    ControlProcess,
    perturb_control,
    simulate_state,
    simulate_variation,
)
from fracctrl.fracnoise import build_innovation_system, predict_next, prediction_matrix, sample_ensemble
from fracctrl.invest import InvestConfig, closed_form_control
from fracctrl.smp import (
    bracket_values,
    check_necessary_condition,
    duality_gap,
    solve_adjoint_k,
    solve_adjoint_pq,
    solve_variational,
)
from fracctrl.spaces import weighted_norm

PATHS, TRUNCATION = 4, 4


def with_nan(shape, index):
    values = np.zeros(shape)
    values[index] = np.nan
    return values


@pytest.fixture(scope="module")
def case():
    """A 4-path state over 5 steps, its first variation, and the chain and
    adjoint at truncation 4."""
    sys = build_innovation_system(0.75, 6)
    noise = sample_ensemble(sys, 1, PATHS, n_steps=5)
    coeffs = CoefficientSet(
        b=lambda n, x, u: 0.05 * x + 0.1 * u,
        sigma=lambda n, x, u: 0.2 * u,
        b_x=lambda n, x, u: 0.05,
        b_u=lambda n, x, u: 0.1,
        sigma_x=lambda n, x, u: 0.0,
        sigma_u=lambda n, x, u: 0.2,
    )
    state = simulate_state(coeffs, ControlProcess(values=np.full(5, 0.3)), noise, 1.0)
    k = solve_adjoint_k(0.4, 0.0, TRUNCATION)
    return {
        "sys": sys,
        "noise": noise,
        "coeffs": coeffs,
        "cost": DriverSpec(f=lambda n, x, y, z, u: 0.0, f_u=lambda n, x, y, z, u: 0.0 * u),
        "state": state,
        "variation": simulate_variation(coeffs, state, np.ones(5)),
        "k": k,
        "adjoint": solve_adjoint_pq(0.1, 0.0, 0.3, k, TRUNCATION, 0.5, 1.5),
        "variational": BsdeSolution(
            y=np.zeros((PATHS, 5)), z=np.zeros((PATHS, 4)), lam=0.5, gamma_exp=1.5, backend="exact"
        ),
    }


def variational(s, **tables):
    args = dict(f_x=0.1, f_y=0.2, f_z=0.0, f_u=0.3, directions=np.ones(5))
    args.update(tables)
    return solve_variational(
        variation=s["variation"], truncation=TRUNCATION, lam=0.5, gamma_exp=1.5, backend="exact", **args
    )


def rule_run(s, value):
    return simulate_state(s["coeffs"], ControlProcess(rule=lambda n, x, hist: value), s["noise"], 1.0)


# (id, argument the message names, call on the case)
ROWS = [
    # Leaked numpy errors.
    ("solve_variational-string", "f_x", lambda s: variational(s, f_x="a")),
    ("simulate_variation-string", "direction", lambda s: simulate_variation(s["coeffs"], s["state"], "a")),
    ("perturb_control-string", "u_star", lambda s: perturb_control("a", np.zeros(5), 0.5)),
    ("ControlProcess-string", "values", lambda s: ControlProcess(values="a")),
    ("check_necessary_condition-string", "bracket", lambda s: check_necessary_condition("a", 0.0, 0.0, 1.0)),
    (
        "solve_truncated-string",
        "control_values",
        lambda s: solve_truncated(
            s["cost"], s["state"], None, TRUNCATION, 0.5, 1.5, backend="exact", control_values="a"
        ),
    ),
    ("predict_next-string", "prefix", lambda s: predict_next(s["sys"], "a")),
    (
        "bracket_values-string",
        "controls",
        lambda s: bracket_values(s["coeffs"], s["cost"], s["state"], s["adjoint"], s["k"], s["sys"], controls="a"),
    ),
    ("conditional_expectation-string", "targets", lambda s: conditional_expectation("a", None, "exact")),
    ("solve_adjoint_k-string", "eta", lambda s: solve_adjoint_k(0.0, 1.0, 4, eta="a")),
    (
        "closed_form_control-string",
        "pred",
        lambda s: closed_form_control(InvestConfig(), 1, np.ones(PATHS), 0.5, -1.0, "a"),
    ),
    ("duality_gap-bracket-string", "bracket", lambda s: duality_gap("a", np.ones(5), s["variational"])),
    (
        "duality_gap-directions-string",
        "directions",
        lambda s: duality_gap(np.zeros((PATHS, 5)), "a", s["variational"]),
    ),
    ("ControlProcess-ragged", "values", lambda s: ControlProcess(values=[1, [2, 3]])),
    ("solve_variational-short-f_u", "f_u", lambda s: variational(s, f_u=np.zeros(3))),
    ("solve_variational-f_x-other-paths", "f_x", lambda s: variational(s, f_x=np.zeros((2, 5)))),
    ("rule-string", "rule", lambda s: rule_run(s, "a")),
    ("rule-other-paths", "rule", lambda s: rule_run(s, np.zeros(3))),
    ("weighted_norm-params", "params", lambda s: weighted_norm(np.ones(3), None)),
    # Silent NaNs.
    ("solve_variational-nan-f_y", "f_y", lambda s: variational(s, f_y=np.nan)),
    (
        "simulate_variation-nan",
        "direction",
        lambda s: simulate_variation(s["coeffs"], s["state"], with_nan(5, 2)),
    ),
    ("predict_next-nan", "prefix", lambda s: predict_next(s["sys"], with_nan((PATHS, 3), (1, 2)))),
    ("prediction_matrix-nan", "xi", lambda s: prediction_matrix(s["sys"], with_nan((PATHS, 5), (2, 1)), 4)),
    ("solve_adjoint_k-nan-eta", "eta", lambda s: solve_adjoint_k(0.0, 1.0, 4, eta=with_nan((PATHS, 4), (0, 2)))),
]


@pytest.mark.parametrize("name, call", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_malformed_arguments_raise_a_contract_error_naming_them(case, name, call):
    with pytest.raises(ContractError, match=f"^{re.escape(name)} "):
        call(case)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_a_float64_array_passes_without_a_copy(layout):
    values = np.asarray(np.random.default_rng(3).standard_normal((5, 7)), order=layout)
    got = floats("values", values, 2, paths=5, steps=7)
    assert got is values and np.shares_memory(got, values)
    window = values[:, 2:5]
    assert floats("window", window, 2) is window
