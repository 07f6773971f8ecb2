"""Truncated backward equations under super-geometric discounting.

The backward pair (Y, Z) solves, step by step for n = N-1, ..., 0,

    Y_n + Z_n eta_n = d_{n+1} * [ Y_{n+1} + f(n+1, X_{n+1}, Y_{n+1}, Z_{n+1}, u_{n+1}) ]
                      + d_{n+1} * g(n+1, ...) * E[xi_{n+1} | F_{n+1}],

    d_{n+1} = exp(-lam * ((n+1)^gamma_exp - n^gamma_exp)),

with terminal condition Y_N = 0; Z_N does not exist, so the terminal step
evaluates f and g at z = 0.  The equation holds in projection: Y_n is the
conditional expectation of the right side given F_n and Z_n the conditional
expectation of eta_n times it, eta_n being the step-n innovation.  This is
the discounted change of variables solved in place; the per-step ratio form
keeps every intermediate at the scale of Y itself, which matters because
exp(+lam * n^gamma_exp) overflows float64 long before the horizons of
interest when the discount is steep.

Two backends realize the conditional expectations:

    exact        targets must be constant across paths (deterministic
                 problems); the constant is the expectation and Z vanishes.
    regression   least-squares projection on a polynomial basis in a sliding
                 window of recent increments (default degree 2, window 3),
                 the regression Monte Carlo scheme of Gobet, Lemor & Warin
                 (2005).  Y_n and Z_n are projections on the same F_n, so a
                 step fits the two targets as the columns of one
                 least-squares problem: by the semi-normal equations with
                 one refinement step when the design's condition number is
                 at most SEMI_NORMAL_MAX_COND, by an SVD solve otherwise.
                 Consecutive windows share all but one increment, so a solve
                 keeps one design buffer and its Gram matrix across steps:
                 a step writes only the monomials of the increment it adds,
                 and one product gives their Gram entries and the targets'
                 moments.  The solution diagnostics record the smallest
                 singular value and the largest condition number of the
                 designs, and how many steps took the SVD solve.

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

from ._lapack import potrf, potrs
from .errors import ContractError, NumericalError, floats, require
from .forward import StatePath
from .fracnoise import InnovationSystem, _draw_innovations, prediction_matrix
from .spaces import WeightedNormParams, weighted_norm

__all__ = [
    "DriverSpec",
    "BsdeSolution",
    "conditional_expectation",
    "solve_truncated",
    "cauchy_diagnostic",
]


@dataclass(frozen=True)
class DriverSpec:
    """Driver of a backward equation.

    ``f(n, x, y, z, u)`` is the generator; the optional ``g(n, x, y, z, u)``
    multiplies the predicted next increment.  The terminal step evaluates
    both at z = 0.
    Along a state ensemble x, y, z and u are per-path arrays; a solve with
    no state calls f with Python floats (x = z = 0, u NaN) and needs a
    float back.  The optional control partial f_u follows the signature of
    f.  The bracket calls it once per block of paths over all steps: n is
    then the array of step indices 0..N and x, y, z, u are (paths, N + 1)
    arrays, so f_u must broadcast in n as well (or ignore it).
    """

    f: Callable
    g: Optional[Callable] = None
    f_u: Optional[Callable] = None


@dataclass(frozen=True)
class BsdeSolution:
    """Backward pair on a truncated horizon: y over 0..N, z over 0..N-1.

    ``y`` has shape (paths, N + 1) with N >= 0 and ``z`` shape (paths, N);
    other shapes raise ContractError.  ``diagnostics`` holds the regression
    fits' health (``fit_min_singular``, ``fit_max_cond``, ``fit_fallbacks``);
    it is empty exactly when the solve was exact.
    """

    y: np.ndarray
    z: np.ndarray
    lam: float
    gamma_exp: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        y_shape, z_shape = np.shape(self.y), np.shape(self.z)
        if len(y_shape) != 2 or y_shape[1] < 1:
            raise ContractError(f"y must have shape (paths, N + 1) with N >= 0, got {y_shape}")
        if z_shape != (y_shape[0], y_shape[1] - 1):
            raise ContractError(
                f"z must have shape {(y_shape[0], y_shape[1] - 1)} to match y of shape {y_shape}, "
                f"got {z_shape}"
            )

    @property
    def truncation(self) -> int:
        return self.y.shape[1] - 1


def _monomials(width: int, degree: int) -> list:
    """Monomials of total degree <= ``degree`` in ``width`` features as
    sorted tuples of feature indices, in the canonical column order: by
    degree, then lexicographically, the constant () first."""
    return [m for d in range(degree + 1) for m in combinations_with_replacement(range(width), d)]


def _basis_names(width: int, degree: int) -> list:
    """Names of the canonical columns: "1", "x0", ..., "x0*x1", ..."""
    return ["*".join(f"x{i}" for i in m) or "1" for m in _monomials(width, degree)]


class _Design:
    """Monomial design of a window of increments and its Gram matrix, kept
    in one Fortran-order buffer across the steps of a backward solve.

    A column is keyed by its monomial over absolute step indices: feature
    column i holds the increment of step ``first + i``.  The first ``build``
    writes every column in the canonical order.  A later one keeps every
    column, with its Gram entries, whose monomial is still in the window.
    So when a solve moves its window one step back, only the monomials of
    the added increment are written, into the slots of the dropped ones,
    and a shrinking window compacts its kept columns to the front.  Each
    column is its parent's (the monomial without its last factor) times one
    feature column.

    ``block`` holds the ``n_targets`` target columns, then a copy of the
    added columns, so that one product with the design gives both
    design^T targets and the Gram entries of the added columns.  A single
    fit has no targets there and is built once.  ``order`` lists the
    design's columns in the canonical order.
    """

    def __init__(self, n_rows: int, window: int, degree: int, n_targets: int = 0):
        width = math.comb(window + degree, degree)
        # The most columns a step adds: the monomials that hold one increment.
        added = width - math.comb(window - 1 + degree, degree) if window and n_targets else 0
        self.degree = degree
        self.columns = np.empty((n_rows, width), order="F")
        self.gram = np.empty((width, width))
        self.block = np.empty((n_rows, n_targets + added), order="F")
        self.targets = self.block[:, :n_targets]
        self.slot = {}  # monomial, as a tuple of absolute steps -> column
        self.order = []
        self.first = 0

    def build(self, features: np.ndarray, targets: np.ndarray):
        """(design, Gram matrix, design^T targets) of the window ``features``,
        whose columns hold steps ``first``, ``first + 1``, ...; after the
        first build, ``targets`` must be ``self.targets``."""
        wanted = [
            tuple(self.first + i for i in m) for m in _monomials(features.shape[1], self.degree)
        ]
        width = len(wanted)
        design, gram = self.columns[:, :width], self.gram[:width, :width]
        if not self.slot:
            self.slot = {m: j for j, m in enumerate(wanted)}
            self.order = list(range(width))
            self._write(features, wanted)
            gram[...] = design.T @ design
            return design, gram, design.T @ targets
        old = self.slot
        self.slot = {m: old[m] for m in wanted if old.get(m, width) < width}
        free = iter(sorted(set(range(width)) - set(self.slot.values())))
        for m in wanted:
            if m in self.slot:
                continue
            j = self.slot[m] = next(free)
            if m in old:  # kept, but beyond the new width
                self.columns[:, j] = self.columns[:, old[m]]
                self.gram[j] = self.gram[old[m]]
                self.gram[:, j] = self.gram[:, old[m]]
        self.order = [self.slot[m] for m in wanted]
        added = [m for m in wanted if m not in old]
        self._write(features, added)
        slots = [self.slot[m] for m in added]
        n_targets = self.targets.shape[1]
        for i, j in enumerate(slots, start=n_targets):
            self.block[:, i] = self.columns[:, j]
        products = design.T @ self.block[:, : n_targets + len(slots)]
        gram[:, slots] = products[:, n_targets:]
        gram[slots, :] = products[:, n_targets:].T
        return design, gram, products[:, :n_targets]

    def _write(self, features: np.ndarray, monomials: list) -> None:
        for m in monomials:
            out = self.columns[:, self.slot[m]]
            if m:
                parent = self.columns[:, self.slot[m[:-1]]]
                np.multiply(parent, features[:, m[-1] - self.first], out=out)
            else:
                out[:] = 1.0


# Largest condition number of a design fitted by the semi-normal equations.
# On near-collinear quadratic designs of 2000 rows, their refined fit was
# within 2e-12 (relative) of an SVD solve's at condition number 5e4, but only
# 5e-7 at 5e6.
SEMI_NORMAL_MAX_COND = 1e4


def _semi_normal_fit(design: np.ndarray, gram: np.ndarray, moments: np.ndarray, targets):
    """(fitted values, singular values of the design) by the corrected
    semi-normal equations: R from the Cholesky factor of the Gram matrix
    design^T design, one solve with R^T R and the moments design^T targets,
    and one refinement on the residual (Bjorck 1987; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 20).  The singular values are
    those of R, which equal the design's.  None when the factorization fails
    or the condition number exceeds SEMI_NORMAL_MAX_COND.
    """
    rows = design.T
    factor = np.array(gram, order="F")
    if potrf(factor, lower=False) != 0:
        return None
    try:
        singular = np.linalg.svd(factor, compute_uv=False)
    except np.linalg.LinAlgError:
        return None
    if not singular[0] <= SEMI_NORMAL_MAX_COND * singular[-1]:
        return None
    coef = potrs(factor, moments, lower=False)
    # (coef^T design^T)^T: each fitted column comes out contiguous.
    coef += potrs(factor, rows @ (targets - (coef.T @ rows).T), lower=False)
    return (coef.T @ rows).T, singular


def conditional_expectation(
    targets, features, backend: str, degree: int = 2, *, health: Optional[dict] = None,
    cache: Optional[_Design] = None,
) -> np.ndarray:
    """Project per-path ``targets`` onto step-n information.

    ``targets`` has shape (n_paths,) or (n_paths, k), finite; each column is
    projected on its own and the result has the shape of ``targets``.
    exact: requires every column to be constant across paths and returns
    that constant.  regression: least-squares fit on the polynomial basis of
    the given finite feature columns (shape (n_paths, window)); one design
    serves all k columns.  The fit solves the semi-normal equations with one
    refinement step; a design whose Cholesky factorization fails, or whose
    condition number exceeds SEMI_NORMAL_MAX_COND, is fitted by an SVD
    least-squares solve instead, which raises NumericalError on a
    rank-deficient design.  A regression fit given a ``health`` dict stores
    in it the design's singular values (``singular_values``) and whether it
    took the SVD solve (``fallback``).  ``cache`` is the design a backward
    solve keeps across its steps; a single fit builds its own.
    """
    targets = floats("targets", targets)
    if targets.ndim not in (1, 2) or len(targets) == 0:
        raise ContractError(
            f"targets must have shape (n_paths,) or (n_paths, k) with n_paths >= 1, "
            f"got {targets.shape}"
        )
    require("degree", degree, int)
    if degree < 0:
        raise ContractError(f"degree must be >= 0, got {degree}")
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
    features = floats("features", features, 2, paths=len(targets))
    width = math.comb(features.shape[1] + degree, degree)
    if targets.shape[0] < width:
        raise ContractError(f"{targets.shape[0]} paths cannot support a {width}-column basis")
    if cache is None:
        cache = _Design(targets.shape[0], features.shape[1], degree)
    design, gram, moments = cache.build(features, targets)
    fit = _semi_normal_fit(design, gram, moments, targets)
    fallback = fit is None
    if fallback:
        # In the canonical column order, an ill-conditioned design is solved
        # to the bit as a single fit solves it.
        design = design[:, cache.order]
        coef, _, rank, singular = np.linalg.lstsq(design, targets, rcond=None)
        if rank < width:
            names = _basis_names(features.shape[1], degree)
            raise NumericalError(
                f"regression design is rank-deficient ({rank} < {width})",
                detail={"basis": names, "singular_values": singular.tolist()},
            )
        fit = design @ coef, singular
    fitted, singular = fit
    if health is not None:
        health.update(singular_values=singular, fallback=fallback)
    return fitted


def _control_at(controls: np.ndarray, n: int, n_paths: int) -> np.ndarray:
    # NaN poisons drivers that genuinely need an out-of-range control value;
    # the non-finite check below then points at the offending step.
    if n >= controls.shape[-1]:
        return np.full(n_paths, np.nan)
    return np.broadcast_to(controls[..., n], (n_paths,))


_NON_FINITE = (
    "backward target became non-finite at step {} (a NaN here often "
    "means the terminal step needed a control value past the horizon)"
)


def _one_path(driver: DriverSpec, ratios: list) -> list:
    """Y_0, ..., Y_N of a deterministic exact solve as a recursion over floats:
    the driver sees x = z = 0 and u = NaN, and a target t is its own
    expectation, the exact backend's midpoint 0.5 (t + t), which overflows
    where 2 |t| does."""
    n_trunc = len(ratios)
    y = [0.0] * (n_trunc + 1)
    for n in range(n_trunc - 1, -1, -1):
        m = n + 1
        target = ratios[n] * (y[m] + driver.f(m, 0.0, y[m], 0.0, math.nan))
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
    window: int = 3,
    degree: int = 2,
) -> BsdeSolution:
    """Solve the truncated backward pair along ``state``.

    ``state`` may be None for deterministic problems on the exact backend
    without a g-term: Y is then one path, solved as a recursion over Python
    floats with no conditional_expectation call, and Z is zero.  ``sys`` is
    required whenever the driver has a g-term, and must extend one row past
    the truncation so the prediction at prefix length N exists.  The driver
    reads u off ``state.controls``, the terminal column included where the
    state has one, and NaN past its last column.  The regression backend
    reads the state's innovations; where its noise holds ``eta = None``
    (run_experiment's ensemble) they are redrawn from the noise's seed, the
    same draws sample_ensemble made, bit for bit.
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
        xi = None
    else:
        if state.horizon < n_trunc:
            raise ContractError(
                f"state horizon {state.horizon} is shorter than truncation {n_trunc}"
            )
        n_paths = state.n_paths
        x_all = state.values
        xi = state.noise.xi

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

    if state is None:
        y = _one_path(driver, ratios.tolist())
        return BsdeSolution(y=np.array([y]), z=np.zeros((1, n_trunc)), lam=lam, gamma_exp=gamma_exp)

    # Step-major buffers: each step reads and writes one contiguous row.  Row
    # N of z stays zero: the terminal step evaluates f and g at z = 0.
    y = np.zeros((n_trunc + 1, n_paths))
    z = np.zeros((n_trunc + 1, n_paths))
    # One design for the whole solve; its targets hold a step's Y and Z targets.
    cache = None if backend == "exact" else _Design(n_paths, min(window, n_trunc - 1), degree, 2)
    if cache is not None:
        eta = state.noise.eta
        if eta is None:  # run_experiment's ensemble: the seed's draws, redrawn
            eta = _draw_innovations(state.noise.seed, xi.shape)
    health = {}
    singular_min, cond_max, fallbacks = np.inf, 0.0, 0
    for n in range(n_trunc - 1, -1, -1):
        m = n + 1
        x_m = x_all[:, m]
        u_m = _control_at(state.controls, m, n_paths)
        y_m, z_m = y[m], z[m]
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
            stacked = cache.targets
            stacked[:, 0] = target
            np.multiply(eta[:, n], target, out=stacked[:, 1])
            cache.first = max(0, n - window)
            try:
                fitted = conditional_expectation(
                    stacked, xi[:, cache.first : n], "regression", degree, health=health,
                    cache=cache,
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

    diagnostics = {} if backend == "exact" else dict(
        fit_min_singular=singular_min, fit_max_cond=cond_max, fit_fallbacks=fallbacks
    )
    return BsdeSolution(
        y=y.T, z=z[:n_trunc].T, lam=lam, gamma_exp=gamma_exp, diagnostics=diagnostics
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
