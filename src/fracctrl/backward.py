"""Truncated backward equations under super-geometric discounting.

The backward pair (Y, Z) solves, step by step for n = N-1, ..., 0,

    Y_n + Z_n eta_n = d_{n+1} * [ Y_{n+1} + f(n+1, X_{n+1}, Y_{n+1}, Z_{n+1}, u_{n+1}) ]
                      + d_{n+1} * g(n+1, ...) * E[xi_{n+1} | F_{n+1}],

    d_{n+1} = exp(-lam * ((n+1)^gamma_exp - n^gamma_exp)),

with terminal condition Y_N = 0 and the terminal step using the reduced driver
f1 (default: f evaluated at z = 0, flagged in diagnostics).  The equation holds
in projection: Y_n is the conditional expectation of the right side given F_n
and Z_n the conditional expectation of eta_n times it, eta_n being the step-n
innovation.  This is the discounted change of variables solved in place; the
per-step ratio form keeps every intermediate at the scale of Y itself, which
matters because exp(+lam * n^gamma_exp) overflows float64 long before the
horizons of interest when the discount is steep.

Two backends realize the conditional expectations:

    exact        targets must be constant across paths (deterministic
                 problems); the constant is the expectation and Z vanishes.
    regression   least-squares projection on a polynomial basis in a sliding
                 window of recent increments (default degree 2, window 3).
                 Y_n and Z_n are projections on the same F_n, so each step
                 builds one design and fits the two targets as the columns
                 of one least-squares problem: by the semi-normal equations
                 with one refinement step when the design's condition number
                 is at most SEMI_NORMAL_MAX_COND, by an SVD solve otherwise.
                 The solution diagnostics record the smallest singular value
                 and the largest condition number of the designs, and how
                 many steps took the SVD solve.

The truncation diagnostic re-solves at increasing horizons and reports
backward-direction weighted norms of the differences, which should form a
Cauchy sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_solve, cholesky

from ._csv import write_csv
from .errors import ContractError, NumericalError, require
from .forward import StatePath
from .fracnoise import InnovationSystem, prediction_matrix
from .spaces import WeightedNormParams, weighted_norm

__all__ = [
    "DriverSpec",
    "BsdeSolution",
    "conditional_expectation",
    "solve_truncated",
    "cauchy_diagnostic",
    "write_solution_csv",
]


@dataclass(frozen=True)
class DriverSpec:
    """Driver of a backward equation.

    ``f(n, x, y, z, u)`` is the generator; the optional ``g(n, x, y, z, u)``
    multiplies the predicted next increment.  ``f1(n, y)`` is the reduced
    terminal driver; without it the terminal step evaluates f at z = 0.  g is
    always evaluated at z = 0 there.  The solution diagnostics record both
    defaults.
    Along a state ensemble x, y, z and u are per-path arrays; a solve with
    no state calls f and f1 with Python floats (x = z = 0, u NaN past the
    controls) and needs a float back.  The optional control partial f_u
    follows the signature of f.  The bracket calls it once per block of
    paths over all steps: n is then the array of step indices 0..N and x,
    y, z, u are (paths, N + 1) arrays, so f_u must broadcast in n as well
    (or ignore it).
    """

    f: Callable
    g: Optional[Callable] = None
    f1: Optional[Callable] = None
    f_u: Optional[Callable] = None


@dataclass(frozen=True)
class BsdeSolution:
    """Backward pair on a truncated horizon: y over 0..N, z over 0..N-1."""

    y: np.ndarray
    z: np.ndarray
    lam: float
    gamma_exp: float
    backend: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def truncation(self) -> int:
        return self.y.shape[1] - 1


def _poly_design(features: np.ndarray, degree: int):
    """Monomial design matrix up to total ``degree``; returns (matrix, names).

    Each monomial column is its parent monomial's column (the combination
    without its last factor; the constant column for degree 1) times one
    feature column, written in place into one Fortran-order array.
    """
    # A Fortran-order copy: contiguous columns make the products fast.  A
    # window of sampled xi is already Fortran-contiguous, so this is a plain
    # memcpy.  It is kept even then: using the window in place raised the
    # duality workload's peak RSS from 322 to 331 MB, through the allocator's
    # layout (the tracemalloc peak did not move).
    features = np.array(features, dtype=float, order="F")
    window = range(features.shape[1])
    combos = [c for d in range(degree + 1) for c in combinations_with_replacement(window, d)]
    column = {combo: j for j, combo in enumerate(combos)}
    design = np.empty((features.shape[0], len(combos)), order="F")
    design[:, 0] = 1.0  # the empty combination
    for j, combo in enumerate(combos[1:], start=1):
        np.multiply(design[:, column[combo[:-1]]], features[:, combo[-1]], out=design[:, j])
    return design, ["*".join(f"x{i}" for i in combo) or "1" for combo in combos]


# Largest condition number of a design fitted by the semi-normal equations.
# On near-collinear quadratic designs of 2000 rows, their refined fit was
# within 2e-12 (relative) of an SVD solve's at condition number 5e4, but only
# 5e-7 at 5e6.
SEMI_NORMAL_MAX_COND = 1e4


def _semi_normal_fit(design: np.ndarray, targets: np.ndarray):
    """(fitted values, singular values of the design) by the corrected
    semi-normal equations: R from the Cholesky factor of design^T design,
    one solve with R^T R and one refinement on the residual (Bjorck 1987;
    Higham, Accuracy and Stability of Numerical Algorithms, ch. 20).  The
    singular values are those of R, which equal the design's.  None when the
    factorization fails or the condition number exceeds SEMI_NORMAL_MAX_COND.
    """
    rows = design.T
    try:
        factor = cholesky(rows @ design, check_finite=False)
        singular = np.linalg.svd(factor, compute_uv=False)
    except np.linalg.LinAlgError:
        return None
    if not singular[0] <= SEMI_NORMAL_MAX_COND * singular[-1]:
        return None
    coef = cho_solve((factor, False), rows @ targets, check_finite=False)
    # (coef^T design^T)^T: each fitted column comes out contiguous.
    coef += cho_solve((factor, False), rows @ (targets - (coef.T @ rows).T), check_finite=False)
    return (coef.T @ rows).T, singular


def conditional_expectation(
    targets, features, backend: str, degree: int = 2, *, health: Optional[dict] = None
) -> np.ndarray:
    """Project per-path ``targets`` onto step-n information.

    ``targets`` has shape (n_paths,) or (n_paths, k); each column is
    projected on its own and the result has the shape of ``targets``.
    exact: requires every column to be constant across paths and returns
    that constant.  regression: least-squares fit on the polynomial basis of
    the given feature columns (shape (n_paths, window)); one design serves
    all k columns.  The fit solves the semi-normal equations with one
    refinement step; a design whose Cholesky factorization fails, or whose
    condition number exceeds SEMI_NORMAL_MAX_COND, is fitted by an SVD
    least-squares solve instead, which raises NumericalError on a
    rank-deficient design.  A regression fit given a ``health`` dict stores
    in it the design's singular values (``singular_values``) and whether it
    took the SVD solve (``fallback``).
    """
    targets = np.asarray(targets, dtype=float)
    if backend == "exact":
        lo, hi = targets.min(axis=0), targets.max(axis=0)
        spread = hi - lo
        if (spread > 1e-10 * np.maximum(1.0, np.maximum(abs(lo), abs(hi)))).any():
            raise ContractError(
                "exact backend requires deterministic targets; spread "
                f"{np.max(spread):.3e} across paths (use the regression backend)"
            )
        return np.full(targets.shape, 0.5 * (lo + hi))
    if backend != "regression":
        raise ContractError(f"backend must be 'exact' or 'regression', got {backend!r}")
    design, names = _poly_design(features, degree)
    if targets.shape[0] < design.shape[1]:
        raise ContractError(
            f"{targets.shape[0]} paths cannot support a {design.shape[1]}-column basis"
        )
    fit = _semi_normal_fit(design, targets)
    fallback = fit is None
    if fallback:
        coef, _, rank, singular = np.linalg.lstsq(design, targets, rcond=None)
        if rank < design.shape[1]:
            raise NumericalError(
                f"regression design is rank-deficient ({rank} < {design.shape[1]})",
                detail={"basis": names, "singular_values": singular.tolist()},
            )
        fit = design @ coef, singular
    fitted, singular = fit
    if health is not None:
        health.update(singular_values=singular, fallback=fallback)
    return fitted


def _control_at(control_values: Optional[np.ndarray], n: int, n_paths: int) -> np.ndarray:
    # NaN poisons drivers that genuinely need an out-of-range control value;
    # the non-finite check below then points at the offending step.
    if control_values is None or n >= control_values.shape[-1]:
        return np.full(n_paths, np.nan)
    return np.broadcast_to(control_values[..., n], (n_paths,))


_NON_FINITE = (
    "backward target became non-finite at step {} (a NaN here often "
    "means the terminal step needed a control value past the horizon)"
)


def _one_path(driver: DriverSpec, ratios: list, control_values) -> list:
    """Y_0, ..., Y_N of a deterministic exact solve as a recursion over floats:
    the driver sees x = z = 0 and u NaN past the controls, and a target t is
    its own expectation, the exact backend's midpoint 0.5 (t + t), which
    overflows where 2 |t| does."""
    n_trunc = len(ratios)
    u = np.full(n_trunc + 1, np.nan)
    if control_values is not None:
        known = min(control_values.shape[-1], n_trunc + 1)
        u[:known] = control_values[..., :known]
    u = u.tolist()
    y = [0.0] * (n_trunc + 1)
    for n in range(n_trunc - 1, -1, -1):
        m = n + 1
        if m == n_trunc and driver.f1 is not None:
            f_val = driver.f1(m, y[m])
        else:
            f_val = driver.f(m, 0.0, y[m], 0.0, u[m])
        target = ratios[n] * (y[m] + f_val)
        if not math.isfinite(target):
            raise NumericalError(_NON_FINITE.format(n))
        y[n] = 0.5 * (target + target)
    return y


def solve_truncated(
    driver: DriverSpec,
    state: Optional[StatePath],
    sys: Optional[InnovationSystem],
    truncation: int,
    lam: float,
    gamma_exp: float,
    backend: str = "regression",
    control_values=None,
    window: int = 3,
    degree: int = 2,
) -> BsdeSolution:
    """Solve the truncated backward pair along ``state``.

    ``state`` may be None for deterministic problems on the exact backend
    without a g-term: Y is then one path, solved as a recursion over Python
    floats with no conditional_expectation call, and Z is zero.  ``sys`` is
    required whenever the driver has a g-term, and must extend one row past
    the truncation so the prediction at prefix length N exists.
    ``control_values`` defaults to the controls realized in ``state``.
    """
    require("truncation", truncation, int)
    require("lam", lam, float)
    require("gamma_exp", gamma_exp, float)
    require("window", window, int)
    require("degree", degree, int)
    if truncation < 1:
        raise ContractError(f"truncation must be >= 1, got {truncation}")
    if lam <= 0 or gamma_exp <= 1:
        raise ContractError(f"need lam > 0 and gamma_exp > 1, got {lam}, {gamma_exp}")
    if window < 0 or degree < 0:
        raise ContractError(f"need window >= 0 and degree >= 0, got {window}, {degree}")
    n_trunc = int(truncation)
    steps = np.arange(n_trunc + 1, dtype=float)
    ratios = np.exp(-lam * np.diff(steps**gamma_exp))  # d_1, ..., d_N
    if state is None:
        if backend != "exact":
            raise ContractError("the regression backend needs a simulated state ensemble")
        xi = eta = None
    else:
        if state.horizon < n_trunc:
            raise ContractError(
                f"state horizon {state.horizon} is shorter than truncation {n_trunc}"
            )
        n_paths = state.n_paths
        x_all = state.values
        xi, eta = state.noise.xi, state.noise.eta
    if control_values is None and state is not None:
        control_values = state.controls
    if control_values is not None:
        control_values = np.asarray(control_values, dtype=float)

    predictions = None
    if driver.g is not None:
        if sys is None:
            raise ContractError("a g-term needs the innovation system for predictions")
        if sys.horizon < n_trunc + 1:
            raise ContractError(
                f"prediction at prefix length {n_trunc} needs system horizon "
                f">= {n_trunc + 1}, got {sys.horizon}"
            )
        if xi is None:
            raise ContractError("a g-term needs noise paths; solve along a simulated state")
        predictions = prediction_matrix(sys, xi, n_trunc)

    diagnostics = {
        "used_default_terminal": driver.f1 is None,
        "used_default_terminal_noise": driver.g is not None,
        "window": window,
        "degree": degree,
    }
    if state is None:
        y = _one_path(driver, ratios.tolist(), control_values)
        return BsdeSolution(
            y=np.array([y]), z=np.zeros((1, n_trunc)), lam=lam, gamma_exp=gamma_exp,
            backend=backend, diagnostics=diagnostics,
        )

    # Step-major buffers: each step reads and writes one contiguous row.
    y = np.zeros((n_trunc + 1, n_paths))
    z = np.zeros((n_trunc, n_paths))
    zeros = np.zeros(n_paths)
    stacked = np.empty((n_paths, 2), order="F")  # Y and Z targets of a regression step
    health = {}
    singular_min, cond_max, fallbacks = np.inf, 0.0, 0
    for n in range(n_trunc - 1, -1, -1):
        m = n + 1
        x_m = x_all[:, m]
        u_m = _control_at(control_values, m, n_paths)
        y_m = y[m]
        terminal = m == n_trunc
        z_m = zeros if terminal else z[m]
        if terminal and driver.f1 is not None:
            f_val = driver.f1(m, y_m)
        else:
            f_val = driver.f(m, x_m, y_m, z_m, u_m)
        g_val = None if driver.g is None else driver.g(m, x_m, y_m, z_m, u_m)
        target = ratios[n] * (y_m + f_val)
        if g_val is not None:
            target = target + ratios[n] * np.broadcast_to(g_val, (n_paths,)) * predictions[:, m]
        target = np.broadcast_to(target, (n_paths,))
        if not np.all(np.isfinite(target)):
            raise NumericalError(_NON_FINITE.format(n))
        if backend == "exact":
            y[n] = conditional_expectation(target, None, "exact")
        else:
            stacked[:, 0] = target
            np.multiply(eta[:, n], target, out=stacked[:, 1])
            feats = xi[:, max(0, n - window) : n]
            try:
                fitted = conditional_expectation(
                    stacked, feats, "regression", degree, health=health
                )
            except NumericalError as err:
                raise NumericalError(
                    f"step {n}: {err}", detail={**(err.detail or {}), "step": n}
                ) from err
            y[n], z[n] = fitted[:, 0], fitted[:, 1]
            singular = health["singular_values"]
            singular_min = min(singular_min, float(singular[-1]))
            cond_max = max(cond_max, float(singular[0] / singular[-1]))
            fallbacks += health["fallback"]

    if backend != "exact":
        diagnostics.update(
            fit_min_singular=singular_min, fit_max_cond=cond_max, fit_fallbacks=fallbacks
        )
    return BsdeSolution(
        y=y.T, z=z.T, lam=lam, gamma_exp=gamma_exp, backend=backend, diagnostics=diagnostics
    )


def _difference_arrays(long: BsdeSolution, short: BsdeSolution):
    """Tail-extension differences: Y^N - Y^M below M, Y^N itself on [M, N]."""
    n_lo = short.truncation
    dy = long.y.copy()
    dy[:, : n_lo + 1] -= short.y
    dz = long.z.copy()
    dz[:, :n_lo] -= short.z
    return dy, dz


def cauchy_diagnostic(
    driver: DriverSpec,
    state: Optional[StatePath],
    sys: Optional[InnovationSystem],
    n_list,
    norm_params: WeightedNormParams,
    backend: str = "exact",
) -> list[dict]:
    """Weighted-norm differences between consecutive truncations.

    Solves at each distinct horizon in ``n_list`` (sorted ascending) on the
    same ensemble and reports, per consecutive pair, the backward-direction
    weighted norms of the Y and Z differences with the tail term of the
    Y-norm.
    """
    levels = list(n_list)
    for n in levels:
        require("truncation level", n, int)
    n_list = sorted(int(n) for n in levels)
    if len(n_list) < 2:
        raise ContractError("need at least two truncation levels")
    if len(set(n_list)) < len(n_list):
        raise ContractError(f"truncation levels must be distinct, got {levels}")
    solutions = {
        n: solve_truncated(
            driver, state, sys, n, norm_params.lam, norm_params.gamma_exp, backend=backend
        )
        for n in n_list
    }
    rows = []
    for n_lo, n_hi in zip(n_list, n_list[1:]):
        dy, dz = _difference_arrays(solutions[n_hi], solutions[n_lo])
        ny = weighted_norm(dy, norm_params)
        nz = weighted_norm(dz, norm_params)
        rows.append(
            {
                "n_low": n_lo,
                "n_high": n_hi,
                "norm_y": ny.value,
                "norm_z": nz.value,
                "tail_term": ny.tail_term,
            }
        )
    return rows


def write_solution_csv(solution: BsdeSolution, path) -> None:
    """Dump (path_id, n, Y, Z) rows, 17 digits; Z is empty at the terminal."""
    write_csv(path, "path_id,n,Y,Z", [(solution.y.shape, [0, 1, solution.y, solution.z])])
