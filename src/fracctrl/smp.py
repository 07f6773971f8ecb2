"""Adjoint processes and first-order optimality checks.

Along a candidate optimal pair (X*, u*) three adjoint objects are built:

    k      cost-propagation chain: k_0 = 0, k_1 = -1, and for n >= 1
           k_{n+1} = k_n (1 + f_y*(n) + f_z*(n) eta_n);
    (p,q)  a backward pair with generator
           f(m, y, z) = b_x*(m) y + beta(m,m) sigma_x*(m) z - f_x*(m) k_m
           and noise-prediction coefficient g(m, y) = sigma_x*(m) y.

First-order optimality of u* is the pointwise inequality

    bracket_n * (u_n - u*_n) >= 0,
    bracket_n = b_u*(n) p_n + sigma_u*(n) p_n E[xi_n | F_n]
                + beta(n,n) sigma_u*(n) q_n - f_u*(n) k_n,

for every admissible u.  Over a per-entry box the worst u sits at a corner,
so check_necessary_condition certifies the inequality exactly: the
open-loop inequality for the p and k it is given.  It does not certify p
itself, nor a feedback rule built from the same p and k.  The
Hamiltonian aggregates the same ingredients but carries the running cost
with the opposite sign,

    H = b p + sigma p E[xi | F] + beta(n,n) sigma q + f k,

so H_u = bracket + 2 f_u k.  Every check here reads the bracket; the sign
difference is deliberate, not a bug.

The duality identity ties the bracket to the first variation of the cost:
with (p, q) and the variational pair (Yhat, Zhat) solved at the same
truncation N (so p_N = 0, q_N treated as 0),

    E sum_{n=0}^{N} e^{-lam n^gamma} bracket_n v_n  =  Yhat_0,

including the degenerate terminal term -f_u*(N) k_N v_N.  The identity is
exact under exact conditional expectations.  Under the regression backend
it holds in expectation only while the adjoint is deterministic: least
squares with an intercept preserves target means, and the variational
driver is then linear with deterministic per-step coefficients.

Array arguments are read through errors.floats, which names the argument
in its ContractError; check_necessary_condition alone takes NaN and inf,
as violations.
"""

from __future__ import annotations

import numpy as np

from .backward import BsdeSolution, DriverSpec, solve_truncated
from .errors import ContractError, floats, require
from .forward import CoefficientSet, StatePath
from .fracnoise import InnovationSystem, prediction_matrix

__all__ = [
    "solve_adjoint_k",
    "solve_adjoint_pq",
    "necessary_bracket",
    "bracket_values",
    "check_necessary_condition",
    "solve_variational",
    "duality_gap",
]


# Entries of the (paths, steps) grid per block of steps in the bracket, the
# certificate and the clamp statistics: each temporary stays about 128 KB
# (or one step over all paths, if that is more), so the blocks add little to
# the peak memory of a run.
_BLOCK_ENTRIES = 1 << 14


def solve_adjoint_k(f_y, f_z, n_steps: int, eta=None) -> np.ndarray:
    """Cost-propagation chain k over steps 0..n_steps.

    ``f_y``/``f_z`` are finite numbers or per-step tables of them indexed by
    n (only indices 1..n_steps-1 are read).  A nonzero f_z makes the chain
    noise-driven and requires ``eta`` of shape (M, >= n_steps); the result
    is then (M, n_steps+1), otherwise (n_steps+1,).
    """
    require("n_steps", n_steps, int)
    if n_steps < 0:
        raise ContractError(f"n_steps must be >= 0, got {n_steps}")
    if eta is not None:
        eta = floats("eta", eta, 2, steps=n_steps)
    # The chain reads steps 1..n_steps-1 of a table; per-path rows need eta.
    ndim, rows = ((0, 1), None) if eta is None else ((0, 1, 2), eta.shape[0])
    fy, fz = (
        floats(name, table, ndim, paths=rows, steps=n_steps if n_steps > 1 else 0)
        for name, table in (("f_y", f_y), ("f_z", f_z))
    )
    fy, fz = (t if t.ndim == 0 else t[..., 1:n_steps] for t in (fy, fz))
    if n_steps > 1 and eta is None and np.any(fz != 0.0):
        raise ContractError("a nonzero f_z makes k noise-driven; pass the innovation array")
    k = np.zeros(n_steps + 1 if eta is None else (eta.shape[0], n_steps + 1))
    if n_steps >= 1:
        k[..., 1] = -1.0
    # k_{n+1} = k_n g_n from k_1 = -1 is minus the running product of the
    # factors g_n = 1 + f_y(n) (+ f_z(n) eta_n), which accumulate forms left
    # to right, as a step loop does; the sign flip is exact.
    growth = 1.0 + fy
    if eta is not None:
        growth = growth + fz * eta[:, 1:n_steps]
    k[..., 2:] = -np.multiply.accumulate(np.broadcast_to(growth, k[..., 2:].shape), axis=-1)
    return k


def solve_adjoint_pq(
    b_x,
    sigma_x,
    f_x,
    k,
    truncation: int,
    lam: float,
    gamma_exp: float,
    state: StatePath | None = None,
    sys: InnovationSystem | None = None,
    backend: str = "exact",
    window: int = 3,
    degree: int = 2,
) -> BsdeSolution:
    """Backward adjoint pair (p, q) = (y, z) of the returned solution.

    ``b_x``, ``sigma_x``, ``f_x`` are scalars or per-step tables of the state
    and cost partials along the candidate pair; ``k`` is the chain from
    solve_adjoint_k.  A nonzero sigma_x brings in the prediction term and
    therefore needs ``sys``; otherwise the solve is free of the innovation
    system and, for deterministic tables, of any simulated state.  Scalar or
    1-D tables are read as Python floats, so a deterministic solve does no
    per-step array work.  A table must hold finite numbers over steps
    0..truncation at least, 1-D or, along a state, one row per path (or one
    row shared by all); any other table raises ContractError naming it.
    """
    require("truncation", truncation, int)
    n_steps = int(truncation) + 1
    ndim, rows = ((0, 1), None) if state is None else ((0, 1, 2), state.n_paths)
    bx, sx, fx, kk = (
        floats(name, table, ndim, paths=rows, steps=n_steps)
        for name, table in (("b_x", b_x), ("sigma_x", sigma_x), ("f_x", f_x), ("k", k))
    )
    need_g = bool(np.any(sx != 0.0))
    if need_g and sys is None:
        raise ContractError("a nonzero sigma_x needs the innovation system for predictions")
    bd = np.diag(sys.beta)[:n_steps].tolist() if sys is not None else [1.0] * n_steps
    bx, sx, fx, kk = (_per_step(t, n_steps) for t in (bx, sx, fx, kk))

    def f(m, x, y, z, u):
        return bx[m] * y + bd[m] * sx[m] * z - fx[m] * kk[m]

    g = (lambda m, x, y, z, u: sx[m] * y) if need_g else None
    return solve_truncated(
        DriverSpec(f=f, g=g), state, sys, truncation, lam, gamma_exp,
        backend=backend, window=window, degree=degree,
    )


def _per_step(table, n_steps: int) -> list:
    """Entries 0..n_steps-1 of a scalar or per-step table, one per step:
    floats for a scalar or 1-D table, per-path columns for a 2-D one."""
    if table.ndim == 0:
        return [float(table)] * n_steps
    steps = np.moveaxis(table[..., :n_steps], -1, 0)
    return steps.tolist() if table.ndim == 1 else list(steps)


def necessary_bracket(coeffs: CoefficientSet, cost: DriverSpec, n, x, y, z, u, p, q, k, pred, beta_nn):
    """First-order coefficient of the optimality inequality (cost term minus).

    Elementwise in its arguments: one step (n an int) or a grid of steps (n
    the array of step indices, the other arguments broadcasting to (paths,
    steps)), as bracket_values calls it.
    """
    if cost.f_u is None:
        raise ContractError("necessary_bracket needs the declared cost partial f_u")
    sig_u = coeffs.sigma_u(n, x, u)
    return coeffs.b_u(n, x, u) * p + sig_u * (p * pred + beta_nn * q) - cost.f_u(n, x, y, z, u) * k


def bracket_values(
    coeffs: CoefficientSet,
    cost: DriverSpec,
    state: StatePath,
    adjoint: BsdeSolution,
    k,
    sys: InnovationSystem,
    controls=None,
    cost_solution: BsdeSolution | None = None,
    truncation: int | None = None,
    predictions=None,
) -> np.ndarray:
    """Necessary-condition bracket per (path, step) over n = 0..truncation.

    ``truncation`` defaults to the adjoint's; pass a shorter horizon when the
    adjoint was solved past the simulated range.  p is read off the adjoint
    wherever defined and q wherever it exists (0 at the adjoint's own
    terminal), so at matched truncation the last column degenerates to
    -f_u*(N) k_N.  ``controls`` defaults to the controls realized in
    ``state``; provide an array covering the last step when the cost partials
    need the terminal control.  ``cost_solution`` supplies (Y*, Z*) for cost
    partials that read them (zeros otherwise).  ``predictions`` is the
    prediction_matrix of ``state``'s noise through at least the bracket range,
    when the caller already has it; otherwise it is computed here.

    The bracket is pointwise in (path, step), so necessary_bracket is called
    once per block of steps over all paths, with n the array of the block's
    step indices; every temporary is one block in size.  The result is the
    transpose of a step-major (n_cols, n_paths) buffer, like the state and
    the predictions: a window of steps is Fortran-contiguous.
    """
    n_trunc = adjoint.truncation if truncation is None else truncation
    require("truncation", n_trunc, int)
    if n_trunc < 0:
        raise ContractError(f"truncation must be >= 0, got {n_trunc}")
    if n_trunc > adjoint.truncation:
        raise ContractError(
            f"bracket through step {n_trunc} needs an adjoint solved at least "
            f"that far, got truncation {adjoint.truncation}"
        )
    if state.horizon < n_trunc:
        raise ContractError(
            f"state horizon {state.horizon} is shorter than the bracket range {n_trunc}"
        )
    n_paths, n_cols = state.n_paths, n_trunc + 1
    k = floats("k", k, (0, 1, 2), paths=n_paths, steps=n_cols)
    controls = state.controls if controls is None else floats("controls", controls, (0, 1, 2), paths=n_paths)
    floats("adjoint.y", adjoint.y, 2, paths=n_paths)
    if cost_solution is not None:
        floats("cost_solution.y", cost_solution.y, 2, paths=n_paths, steps=n_cols)
    if predictions is None:
        pred = prediction_matrix(sys, state.noise.xi, n_trunc)
    else:
        pred = floats("predictions", predictions, 2, paths=n_paths, steps=n_cols)
    steps = np.arange(n_cols)
    beta_diag = np.diag(sys.beta)[:n_cols]
    out = np.empty((n_cols, n_paths)).T
    blocks = _step_blocks(n_paths, n_cols)
    zeros = np.zeros((n_paths, blocks[0].stop), order="F")
    for cols in blocks:
        if cost_solution is None:
            y = z = zeros[:, : cols.stop - cols.start]
        else:
            y, z = (_grid_block(t, cols) for t in (cost_solution.y, cost_solution.z))
        out[:, cols] = necessary_bracket(
            coeffs, cost, steps[cols], state.values[:, cols], y, z,
            _grid_block(controls, cols, fill=np.nan),
            _grid_block(adjoint.y, cols), _grid_block(adjoint.z, cols),
            _grid_block(k, cols), pred[:, cols], beta_diag[cols],
        )
    return out


def _step_blocks(n_paths: int, n_cols: int) -> list:
    """Slices that cover steps 0..n_cols-1 of an (n_paths, n_cols) grid,
    _BLOCK_ENTRIES // n_paths steps (at least one) to a block."""
    block = max(1, _BLOCK_ENTRIES // n_paths)
    return [slice(start, min(start + block, n_cols)) for start in range(0, n_cols, block)]


def _grid_block(table, cols: slice, fill: float = 0.0) -> np.ndarray:
    """Steps ``cols`` of a per-step table on every path.

    A scalar, a 1-D table or a one-row 2-D table is shared by every path.
    Past the table's last step the entries are ``fill``: NaN for a control
    that ends before the grid, 0 for q and Z at their terminal.
    """
    if table.ndim == 0:
        return table
    block = table[..., cols]
    width = cols.stop - cols.start
    if block.shape[-1] == width:
        return block
    padded = np.full(block.shape[:-1] + (width,), fill)
    padded[..., : block.shape[-1]] = block
    return padded


def check_necessary_condition(
    bracket,
    u_star,
    lower,
    upper,
    n_trials: int = 0,
    seed: int = 0,
    tolerance: float = 1e-8,
) -> dict:
    """Certify bracket * (u - u*) >= 0 for every u in the box [lower, upper].

    The product is affine in each entry's u, so its minimum over the box sits
    at a corner: bracket * (lower - u*) where bracket > 0, bracket * (upper -
    u*) otherwise.  Every entry whose worst product is not >= -tolerance
    (NaN and inf included) is a violation; the first ten are reported with
    the worst admissible control ``u``.  ``n_trials`` > 0 adds a serial
    witness, the least product over that many uniform draws from the box
    under per-trial generators spawned from ``seed``.  No draw can go below
    the certificate, and the witness never gates ``passed``.  ``seed`` is
    an integer >= 0 and ``tolerance`` a finite number >= 0.

    The corners are taken in blocks of steps (the last axis), as the
    step-major grids of a run are stored, and no temporary is larger than a
    block.  The report reads the grid in path-major (C) order whatever the
    inputs' layouts: ``min_index`` is the first minimum as argmin takes it (a
    NaN before any number), ``min_bracket_product`` the entry there (a zero
    as +0.0, whatever sign its corner product has), and the violations are
    the first ten.
    """
    names = ("bracket", "u_star", "lower", "upper")
    arrays = [floats(name, a, finite=False) for name, a in zip(names, (bracket, u_star, lower, upper))]
    try:
        b, us, lo, hi = np.broadcast_arrays(*arrays)
    except ValueError:
        shapes = ", ".join(f"{n} {a.shape}" for n, a in zip(names, arrays))
        raise ContractError(f"the certificate's inputs do not broadcast together: {shapes}") from None
    require("n_trials", n_trials, int)
    if n_trials < 0:
        raise ContractError(f"n_trials must be >= 0, got {n_trials}")
    require("seed", seed, int)
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    require("tolerance", tolerance, float)
    if tolerance < 0:
        raise ContractError(f"tolerance must be >= 0, got {tolerance}")
    shape = b.shape
    if b.size == 0:
        raise ContractError(f"the bracket grid is empty, shape {shape}")
    # (rows, steps) views in C order: entry (i, j) has flat index i * n_cols + j.
    n_cols = shape[-1] if shape else 1
    grid = [a.reshape(-1, n_cols) for a in (b, us, lo, hi)]
    n_bad, first_bad, minima = 0, np.empty(0, dtype=np.intp), []
    for cols in _step_blocks(b.size // n_cols, n_cols):
        bb, uu, ll, hh = (a[:, cols] for a in grid)
        if np.any(hh < ll):
            raise ContractError("upper bound below lower bound somewhere in the admissible box")
        worst = np.where(bb > 0, ll, hh)
        worst -= uu
        worst *= bb
        rows, steps = np.nonzero(~(worst >= -tolerance))  # in C order
        n_bad += rows.size
        flat = np.concatenate((first_bad, rows[:10] * n_cols + steps[:10] + cols.start))
        first_bad = np.sort(flat)[:10]
        row, col = divmod(int(np.argmin(worst)), worst.shape[1])
        minima.append((worst[row, col], row * n_cols + cols.start + col))
    # Each block's first minimum in C order; of those, argmin takes a NaN
    # before any number, then the least value, then the earliest entry.
    values, flats = (np.array(column) for column in zip(*minima))
    least = values.min()
    first_min = flats[np.isnan(values) if np.isnan(least) else values == least].min()
    violations = []
    for flat in first_bad:
        idx = np.unravel_index(flat, shape)
        corner = lo[idx] if b[idx] > 0 else hi[idx]
        record = {"value": float((corner - us[idx]) * b[idx]), "u": float(corner)}
        if len(idx) == 2:
            record["path"], record["step"] = int(idx[0]), int(idx[1])
        else:
            record["index"] = [int(i) for i in idx]
        violations.append(record)
    min_trial = None
    if n_trials > 0:
        span = hi - lo
        min_trial = np.inf
        for child in np.random.SeedSequence(seed).spawn(n_trials):
            u = np.random.default_rng(child).uniform(size=shape)
            u *= span
            u += lo
            np.minimum(u, hi, out=u)  # rounding must not step outside the box
            u -= us
            u *= b
            min_trial = np.minimum(min_trial, u.min())
        min_trial = float(min_trial)
    return {
        "trials": n_trials,
        "tolerance": tolerance,
        "min_bracket_product": float(least) + 0.0,
        "min_index": [int(i) for i in np.unravel_index(first_min, shape)],
        "min_trial_product": min_trial,
        "n_violations": n_bad,
        "violations": violations,
        "passed": n_bad == 0,
    }


def solve_variational(
    f_x,
    f_y,
    f_z,
    f_u,
    variation: StatePath,
    directions,
    truncation: int,
    lam: float,
    gamma_exp: float,
    backend: str = "regression",
    window: int = 3,
    degree: int = 2,
) -> BsdeSolution:
    """First variation (Yhat, Zhat) of the cost along a control deviation.

    ``variation`` is the first-variation state from simulate_variation (its
    noise ensemble supplies the regression features), ``directions`` the
    deviation v, shape (steps,) or (n_paths, steps), with step N included
    (the terminal cost term reads v_N).  The per-step cost partials are
    scalars or tables evaluated along the base pair; the generator is
    f_x Xhat + f_y Yhat + f_z Zhat + f_u v.
    """
    require("truncation", truncation, int)
    n_steps, n_paths = int(truncation) + 1, variation.n_paths
    xhat = variation.values
    fx, fy, fz, fu = (
        floats(name, table, (0, 1, 2), paths=n_paths, steps=n_steps)
        for name, table in (("f_x", f_x), ("f_y", f_y), ("f_z", f_z), ("f_u", f_u))
    )
    v = floats("directions", directions, (1, 2), paths=n_paths, steps=n_steps)
    fx, fy, fz, fu, v = (_per_step(t, n_steps) for t in (fx, fy, fz, fu, v))

    def f(m, x, y, z, u):
        return fx[m] * xhat[:, m] + fy[m] * y + fz[m] * z + fu[m] * v[m]

    return solve_truncated(
        DriverSpec(f=f), variation, None, truncation, lam, gamma_exp,
        backend=backend, window=window, degree=degree,
    )


def duality_gap(bracket, directions, variational: BsdeSolution) -> dict:
    """Compare E sum_n e^{-lam n^gamma} bracket_n v_n against Yhat_0.

    ``bracket`` (paths, steps) and ``directions`` cover n = 0..truncation
    (the bracket from bracket_values already carries the degenerate terminal
    column); the directions have shape (steps,) or one row per bracket row.
    The terms are formed in C order, so each path's sum runs in one fixed
    order whatever the layouts of the bracket and the directions.
    """
    bracket = floats("bracket", bracket, 2)
    v = floats("directions", directions, (1, 2))
    n_cols = bracket.shape[-1]
    if n_cols != variational.truncation + 1:
        raise ContractError(
            f"bracket covers {n_cols} steps but the variational solve has "
            f"truncation {variational.truncation}"
        )
    if v.shape[-1] != n_cols or v.ndim == 2 and v.shape[0] not in (1, len(bracket)):
        raise ContractError(f"directions of shape {v.shape} do not match the bracket's {bracket.shape}")
    grid = np.arange(n_cols, dtype=float)
    weights = np.exp(-variational.lam * grid**variational.gamma_exp)
    terms = np.multiply(weights, bracket, order="C")
    terms *= v
    lhs = float(np.mean(np.sum(terms, axis=-1)))
    rhs = float(np.mean(variational.y[:, 0]))
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}
