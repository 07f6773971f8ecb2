"""Optimal investment with periodic consumption under fractional noise.

Wealth follows

    X_{n+1} = (1 + r)(X_n - c X_n chi_n) + (mu - r) v_n + sigma v_n xi_n,

where chi_n indicates the consumption times, v_n is the amount held in the
risky asset, and the admissible set at step n is [0, X_n (1 - c chi_n)]
(no shorting, no leverage beyond post-consumption wealth).  Running cost

    f(n, x, y, z, v) = (lam / 2) y - Q x chi_n + R v^beta_exp

rewards wealth at consumption times and penalises the risky position, both
discounted by exp(-lam n^gamma_exp).

The first-order chain is k_0 = 0, k_n = -(1 + lam/2)^{n-1} for n >= 1, and
the adjoint pair (p, q) solves a deterministic backward recursion whose
truncated solution has q identically zero.  The candidate control is

    v_n = (0 max [(mu - r) p_n + sigma p_n pred_n] / (beta_exp k_n R))
              ^ (1 / (beta_exp - 1))   capped at  X_n (1 - c chi_n),

with the max-with-zero applied before the exponent (the interior root only
exists when the bracket at zero is negative; a fractional exponent of a
negative base is meaningless).  At n = 0 the chain gives k_0 = 0 and the
bracket no longer depends on v, so the rule degenerates to bang-bang: the
full cap when the bracket slope is negative, zero otherwise.

The adjoint is solved past the run horizon (consumption dates beyond the
horizon still pull on p_n for n inside it); run_experiment then certifies
the bracket inequality along the realized paths over the admissible box and
writes byte-deterministic CSV/JSON outputs plus a standalone plot script.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from ._csv import _replacing, write_csv, write_json
from .backward import BsdeSolution, DriverSpec
from .errors import ContractError, NumericalError, floats, require
from .forward import CoefficientSet, ControlProcess, StatePath, simulate_state
from .fracnoise import (
    InnovationSystem,
    build_innovation_system,
    predict_next,
    prediction_matrix,
    sample_ensemble,
)
from .smp import _bracket_blocks, _Certificate, _step_blocks, _witness, solve_adjoint_k, solve_adjoint_pq

__all__ = [
    "InvestConfig",
    "InvestAdjoint",
    "InvestResult",
    "consumption_indicator",
    "adjoint_tables",
    "coefficient_set",
    "cost_driver",
    "solve_adjoint",
    "closed_form_control",
    "control_rule",
    "run_experiment",
    "write_wealth_csv",
    "write_adjoint_csv",
]


@dataclass(frozen=True)
class InvestConfig:
    """Market, cost, and sampling parameters of the investment problem.

    Consumption happens at every positive multiple of ``consumption_period``
    unless ``consumption_times`` pins an explicit finite set of steps (the
    period is then ignored).  ``wealth_weight`` is the reward loading Q on
    consumption-time wealth, ``risk_weight`` the penalty loading R on the
    risky position raised to ``beta_exp``.
    """

    mu: float = 0.15
    r: float = 0.05
    sigma: float = 0.2
    lam: float = 1.0
    gamma_exp: float = 2.0
    beta_exp: float = 2.0
    c: float = 0.5
    wealth_weight: float = 1.0
    risk_weight: float = 0.01
    consumption_period: int = 10
    consumption_times: Optional[tuple] = None
    hurst: float = 0.75
    x0: float = 1.0
    horizon: int = 50
    paths: int = 10000
    seed: int = 0

    def __post_init__(self):
        for name in ("consumption_period", "horizon", "paths", "seed"):
            require(name, getattr(self, name), int)
        for name in ("mu", "r", "sigma", "lam", "gamma_exp", "beta_exp", "c", "wealth_weight",
                     "risk_weight", "hurst", "x0"):
            require(name, getattr(self, name), float)
        if not 0 < self.hurst < 1:
            raise ContractError(f"hurst must lie in (0, 1), got {self.hurst}")
        for name, floor in (("r", 0), ("sigma", 0), ("lam", 0), ("gamma_exp", 1), ("beta_exp", 1),
                            ("wealth_weight", 0), ("risk_weight", 0)):
            if getattr(self, name) <= floor:
                raise ContractError(f"{name} must be > {floor}, got {getattr(self, name)}")
        if self.mu <= self.r:
            raise ContractError(f"mu must exceed r, got mu={self.mu}, r={self.r}")
        if not 0 < self.c < 1:
            raise ContractError(f"c must lie in (0, 1), got {self.c}")
        if self.consumption_times is not None:
            if not np.iterable(self.consumption_times):
                raise ContractError(
                    f"consumption_times must be a sequence of steps, got {self.consumption_times!r}"
                )
            for t in self.consumption_times:
                require("consumption time", t, int)
            times = tuple(sorted({int(t) for t in self.consumption_times}))
            if not times:
                raise ContractError("consumption_times must not be empty; omit it for the periodic set")
            if times[0] < 1:
                raise ContractError(f"consumption times must be positive steps, got {times[0]}")
            object.__setattr__(self, "consumption_times", times)
        elif self.consumption_period < 1:
            raise ContractError(f"consumption_period must be >= 1, got {self.consumption_period}")
        if self.horizon < 1:
            raise ContractError(f"horizon must be >= 1, got {self.horizon}")
        if self.paths < 1:
            raise ContractError(f"paths must be >= 1, got {self.paths}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")

    def chi(self, n: int) -> float:
        """Consumption indicator chi_n: 1.0 at a consumption step, else 0.0."""
        if self.consumption_times is not None:
            return float(n in self.consumption_times)
        return float(n >= self.consumption_period and n % self.consumption_period == 0)

    def adjoint_truncation(self) -> int:
        """Default solve horizon for (p, q): past every consumption date that
        can still move p on the run horizon."""
        if self.consumption_times is not None:
            return max(max(self.consumption_times), self.horizon) + 20
        return self.horizon + max(2 * self.consumption_period, 20)


def consumption_indicator(config: InvestConfig, n_max: int) -> np.ndarray:
    """0/1 table chi_n for n = 0, ..., n_max."""
    require("n_max", n_max, int)
    chi = np.zeros(max(n_max + 1, 0))
    if config.consumption_times is None:
        chi[config.consumption_period :: config.consumption_period] = 1.0
    else:
        chi[[t for t in config.consumption_times if t <= n_max]] = 1.0
    return chi


def adjoint_tables(config: InvestConfig, truncation: int):
    """Per-step tables (b_x, f_x, k) over 0..truncation of the adjoint solve.

    Raises NumericalError naming the first step where the chain k overflows.
    """
    with np.errstate(over="ignore"):
        k = solve_adjoint_k(0.5 * config.lam, 0.0, truncation)
    if not np.all(np.isfinite(k)):
        step, growth = int(np.argmin(np.isfinite(k))), 1 + 0.5 * config.lam
        raise NumericalError(
            f"adjoint chain k overflows at step {step}: it grows by the factor "
            f"1 + lam/2 = {growth:g} per step over the adjoint truncation {truncation}",
            detail={"step": step, "growth": growth},
        )
    chi = consumption_indicator(config, truncation)
    b_x = (1 + config.r) * (1 - config.c * chi) - 1
    f_x = -config.wealth_weight * chi
    return b_x, f_x, k


def coefficient_set(config: InvestConfig) -> CoefficientSet:
    """Wealth drift/noise coefficients with their exact partials."""
    mu, r, sig, c = config.mu, config.r, config.sigma, config.c
    return CoefficientSet(
        b=lambda n, x, u: ((1 + r) * (1 - c * config.chi(n)) - 1) * x + (mu - r) * u,
        sigma=lambda n, x, u: sig * u,
        b_x=lambda n, x, u: (1 + r) * (1 - c * config.chi(n)) - 1,
        b_u=lambda n, x, u: mu - r,
        sigma_x=lambda n, x, u: 0.0,
        sigma_u=lambda n, x, u: sig,
    )


def cost_driver(config: InvestConfig) -> DriverSpec:
    """Running cost (lam/2) y - Q x chi_n + R v^beta with its control partial f_u."""
    lam, q_w, r_w, beta = config.lam, config.wealth_weight, config.risk_weight, config.beta_exp
    return DriverSpec(
        f=lambda n, x, y, z, u: 0.5 * lam * y - q_w * x * config.chi(n) + r_w * u**beta,
        f_u=lambda n, x, y, z, u: beta * r_w * u ** (beta - 1),
    )


@dataclass(frozen=True)
class InvestAdjoint:
    """First-order quantities of the investment problem.

    ``k`` is the chain over 0..truncation and ``solution`` the deterministic
    backward solve of (p, q), kept whole for reuse in bracket evaluations.
    ``p`` over 0..truncation and ``q`` over 0..truncation-1 are read off it;
    q is identically zero because the adjoint recursion is deterministic.
    """

    k: np.ndarray
    solution: BsdeSolution

    @property
    def p(self) -> np.ndarray:
        return self.solution.y[0]

    @property
    def q(self) -> np.ndarray:
        return self.solution.z[0]

    @property
    def truncation(self) -> int:
        return self.solution.truncation


def solve_adjoint(config: InvestConfig, truncation: Optional[int] = None) -> InvestAdjoint:
    """Solve the chain k and the pair (p, q) on an extended horizon.

    The recursion is deterministic (coefficients do not depend on the state),
    so the exact backend applies and q vanishes identically.
    """
    n_trunc = config.adjoint_truncation() if truncation is None else truncation
    require("truncation", n_trunc, int)
    if n_trunc < config.horizon:
        raise ContractError(
            f"adjoint truncation {n_trunc} must reach the run horizon {config.horizon}"
        )
    b_x, f_x, k = adjoint_tables(config, n_trunc)
    solution = solve_adjoint_pq(
        b_x, 0.0, f_x, k, n_trunc, config.lam, config.gamma_exp, backend="exact"
    )
    return InvestAdjoint(k=k, solution=solution)


def _bracket_slope(config: InvestConfig, p, pred, out=None):
    """Slope (mu - r + sigma pred) p of the bracket in v; it reads neither x nor k."""
    slope = np.multiply(config.sigma, pred, out=out)
    slope = np.add(config.mu - config.r, slope, out=out)
    return np.multiply(slope, p, out=out)


def _interior_root(config: InvestConfig, slope, k, out=None):
    """Interior root of the bracket at chain value k != 0, floored at zero
    before the 1/(beta-1) power."""
    base = np.divide(slope, config.beta_exp * config.risk_weight * k, out=out)
    base = np.maximum(base, 0.0, out=out)
    power = 1.0 / (config.beta_exp - 1.0)
    if power != 1.0:  # x ** 1.0 == x: skip a full pass at the default beta_exp 2
        base **= power
    return base


def _cap_clamp(config: InvestConfig, n: int, x, free, k_n: float):
    """The control at step n from its x-free part ``free``: the interior root
    capped at post-consumption wealth, or, where k_n = 0, bang-bang on the
    sign of the slope that ``free`` then holds."""
    cap = np.maximum(np.asarray(x, dtype=float) * (1 - config.c * config.chi(n)), 0.0)
    if k_n == 0.0:
        if n != 0:
            raise ContractError(f"k vanishes at step {n}; only step 0 admits that")
        return np.where(free < 0, cap, 0.0)
    return np.minimum(free, cap)


def closed_form_control(config: InvestConfig, n: int, x, p_n: float, k_n: float, pred):
    """Candidate optimal risky position at step n.

    Interior root of the bracket, floored at zero before the 1/(beta-1)
    power and capped at post-consumption wealth.  k_0 = 0 removes v from the
    bracket, so step 0 is bang-bang on the sign of the slope.  ``x`` and
    ``pred`` are finite numbers or per-path arrays of them.
    """
    x = floats("x", x, (0, 1))
    pred = floats("pred", pred, (0, 1), paths=x.shape[0] if x.ndim else None)
    return _closed_form(config, n, x, p_n, k_n, pred)


def _closed_form(config: InvestConfig, n: int, x, p_n: float, k_n: float, pred):
    """closed_form_control on checked arrays, as the rule calls it per step."""
    free = _bracket_slope(config, p_n, pred)
    if k_n != 0.0:
        free = _interior_root(config, free, k_n)
    return _cap_clamp(config, n, x, free, k_n)


def control_rule(
    config: InvestConfig, sys: InnovationSystem, adjoint: InvestAdjoint, predictions=None
):
    """Feedback rule (n, x, xi_hist) -> v_n built on the adjoint tables.

    ``predictions``, the prediction_matrix of the noise the rule will see,
    supplies E[xi_n | F_n] as column n.  The x-free part of the control is
    then made for one block of steps (smp._step_blocks) when a call first
    enters it, and each call only caps its row.  Without it each call
    predicts from ``xi_hist``.
    """
    p, k, n_trunc = adjoint.p, adjoint.k, adjoint.truncation
    if predictions is not None:
        predictions = floats("predictions", predictions, 2, finite=False)
        blocks = _step_blocks(predictions.shape[0], min(predictions.shape[1], n_trunc + 1))
        held = [slice(0, 0), None]  # the block of steps in hand and its x-free part

    def rule(n: int, x, xi_hist):
        if n > n_trunc:
            raise ContractError(f"step {n} is past the adjoint truncation {n_trunc}")
        if predictions is None:
            return _closed_form(config, n, x, p[n], k[n], predict_next(sys, xi_hist))
        if not held[0].start <= n < held[0].stop:
            rows = held[0] = blocks[n // blocks[0].stop]
            free = held[1] = np.empty((rows.stop - rows.start, predictions.shape[0]))
            _bracket_slope(config, p[rows, None], predictions[:, rows].T, out=free)
            # The root in place on each run of steps where k != 0: no 1/k at k = 0.
            live = np.concatenate(([False], k[rows] != 0.0, [False]))
            for start, stop in np.flatnonzero(np.diff(live)).reshape(-1, 2):
                run = slice(start, stop)
                _interior_root(config, free[run], k[rows][run, None], out=free[run])
        return _cap_clamp(config, n, x, held[1][n - held[0].start], k[n])

    return rule


@dataclass(frozen=True)
class InvestResult:
    """One full experiment: paths, controls, first-order checks, outputs.

    ``state.controls`` is the simulator's step-major (Fortran-order) buffer
    of horizon + 1 columns, terminal control included, as ``state.values``
    is.  The run certifies the bracket block by block and keeps none:
    bracket_values(..., truncation=horizon, predictions=prediction_matrix(
    system, state.noise.xi, horizon)) on the run's fields rebuilds it, bit
    for bit.  ``state.noise.eta`` is None: the run drops the innovations
    once the noise is made, and a regression solve along ``state`` redraws
    them from ``state.noise.seed``, bit for bit.
    """

    config: InvestConfig
    system: InnovationSystem
    adjoint: InvestAdjoint
    state: StatePath
    check: dict
    clamp_stats: dict
    out_dir: Optional[Path] = None


class _Clamps:
    """Fractions of (path, step) entries at each clamp, plus the invariant,
    fed one block of controls and caps at a time.

    The rule writes the clamps by np.minimum/np.maximum, so equality tests
    are exact: v == 0 at the floor, v == cap at the ceiling.  Counts and
    maxima are exact, so the blocks may be of any size.
    """

    floor = cap = total = 0
    over = under = 0.0

    def add(self, v, c) -> None:
        at_floor = v == 0.0
        self.floor += np.count_nonzero(at_floor)
        self.cap += np.count_nonzero((v == c) & ~at_floor)
        self.over = np.max(v - c, initial=self.over)
        self.under = np.max(-v, initial=self.under)
        self.total += v.size

    def stats(self) -> dict:
        return {
            "floor_fraction": self.floor / self.total,
            "cap_fraction": self.cap / self.total,
            "interior_fraction": (self.total - self.floor - self.cap) / self.total,
            "max_bound_violation": max(float(self.over), float(self.under)),
        }


def write_wealth_csv(result: InvestResult, path) -> None:
    """Dump (path_id, n, X, v) rows over n = 0..horizon, 17 digits."""
    state = result.state
    write_csv(path, "path_id,n,X,v", [(state.controls.shape, [0, 1, state.values, state.controls])])


def write_adjoint_csv(adjoint: InvestAdjoint, path) -> None:
    """Dump (n, p, q, k) rows, 17 digits; q is empty at the terminal."""
    write_csv(path, "n,p,q,k", [(adjoint.p.shape, [0, adjoint.p, adjoint.q, adjoint.k])])


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot wealth paths and the adjoint tables from the CSVs next to this file.\"\"\"

import csv
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = Path(__file__).resolve().parent


def read_columns(name, fields):
    rows = {f: [] for f in fields}
    with open(here / name, newline="") as fh:
        for row in csv.DictReader(fh):
            for f in fields:
                rows[f].append(float(row[f]) if row[f] != "" else np.nan)
    return {f: np.asarray(v) for f, v in rows.items()}


wealth = read_columns("wealth.csv", ("path_id", "n", "X", "v"))
n_steps = int(wealth["n"].max()) + 1
n_paths = int(wealth["path_id"].max()) + 1
X = wealth["X"].reshape(n_paths, n_steps)
v = wealth["v"].reshape(n_paths, n_steps)
steps = np.arange(n_steps)

fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(8, 8), sharex=True)
shown = min(n_paths, 40)
for i in range(shown):
    ax1.plot(steps, X[i], lw=0.6, alpha=0.5)
    ax2.plot(steps, v[i], lw=0.6, alpha=0.5)
ax1.plot(steps, X.mean(axis=0), "k-", lw=2, label="mean wealth")
ax2.plot(steps, v.mean(axis=0), "k-", lw=2, label="mean position")
ax1.set_ylabel("wealth X_n")
ax2.set_ylabel("risky position v_n")
ax2.set_xlabel("step n")
ax1.legend(loc="best")
ax2.legend(loc="best")
fig.tight_layout()
fig.savefig(here / "wealth.png", dpi=150)

adj = read_columns("adjoint.csv", ("n", "p", "q", "k"))
fig2, ax = plt.subplots(figsize=(8, 4))
ax.plot(adj["n"], adj["p"], label="p_n")
ax.plot(adj["n"], adj["k"], label="k_n")
ax.set_xlabel("step n")
ax.legend(loc="best")
fig2.tight_layout()
fig2.savefig(here / "adjoint.png", dpi=150)
print(f"wrote {here / 'wealth.png'} and {here / 'adjoint.png'}")
"""


def run_experiment(
    config: InvestConfig, out_dir=None, n_trials: int = 0, tolerance: float = 1e-8
) -> InvestResult:
    """Simulate the candidate control and check it first-order.

    Runs the wealth recursion under the closed-form rule, evaluates the
    necessary-condition bracket along the realized paths (terminal step
    included), and certifies it over the admissible box [0, cap];
    ``n_trials`` > 0 adds the random-trial witness of check_necessary_condition.
    With ``out_dir`` set, writes wealth.csv, adjoint.csv, a resolved-config
    snapshot, and a standalone plot script; outputs are byte-identical for
    equal configs.
    """
    sys = build_innovation_system(config.hurst, config.horizon + 1)
    noise = sample_ensemble(sys, config.seed, config.paths, n_steps=config.horizon)
    # Nothing below reads the innovations, and a regression solve along the
    # state redraws them from the seed: hold one (paths, steps) grid fewer.
    noise = replace(noise, eta=None)
    adjoint = solve_adjoint(config)
    # The predictions depend on the noise alone: one product serves the rule
    # at every step and the bracket.
    pred = prediction_matrix(sys, noise.xi, config.horizon)
    rule = control_rule(config, sys, adjoint, pred)
    coeffs = coefficient_set(config)
    state = simulate_state(coeffs, ControlProcess(rule=rule), noise, config.x0, terminal=True)
    del rule
    controls = state.controls

    # One pass over blocks of steps: each block of the bracket and of the
    # caps feeds the certificate and the clamp counts, and is then dropped.
    blocks, bracket_block = _bracket_blocks(
        coeffs, cost_driver(config), state, adjoint.solution, adjoint.k, sys,
        None, None, config.horizon, pred,
    )
    certificate = _Certificate(controls.shape, n_trials, config.seed, tolerance)
    clamps = _Clamps()
    factor = 1 - config.c * consumption_indicator(config, config.horizon)
    # The witness draws over whole grids: only then are the bracket and caps kept.
    whole = [np.empty(controls.shape[::-1]).T for _ in range(2)] if n_trials > 0 else None
    for cols in blocks:
        bracket = bracket_block(cols)
        caps = np.maximum(state.values[:, cols] * factor[cols], 0.0)
        certificate.add(cols, bracket, controls[:, cols], 0.0, caps)
        clamps.add(controls[:, cols], caps)
        if whole is not None:
            whole[0][:, cols], whole[1][:, cols] = bracket, caps
    witness = None if whole is None else _witness(whole[0], controls, 0.0, whole[1], n_trials, config.seed)
    del pred, bracket_block, whole  # the CSV writer below needs no more than the result

    result = InvestResult(
        config=config,
        system=sys,
        adjoint=adjoint,
        state=state,
        check=certificate.report(witness),
        clamp_stats=clamps.stats(),
        out_dir=None if out_dir is None else Path(out_dir),
    )
    if out_dir is not None:
        _write_outputs(result)
    return result


def _write_outputs(result: InvestResult) -> None:
    out = result.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_wealth_csv(result, out / "wealth.csv")
    write_adjoint_csv(result.adjoint, out / "adjoint.csv")

    resolved = asdict(result.config)
    resolved["consumption_times_resolved"] = np.flatnonzero(
        consumption_indicator(result.config, result.config.horizon)
    ).tolist()
    resolved["adjoint_truncation"] = result.adjoint.truncation
    resolved["check_passed"] = result.check["passed"]
    resolved["clamp_stats"] = result.clamp_stats
    write_json(out / "config.resolved.json", resolved)

    with _replacing(out / "plot_wealth.py") as fh:
        fh.write(_PLOT_SCRIPT.encode())
