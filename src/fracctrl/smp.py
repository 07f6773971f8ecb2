"""Adjoint processes, Hamiltonian, and first-order optimality checks.

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
so check_necessary_condition certifies the inequality exactly.  The
Hamiltonian aggregates the same ingredients but carries the running cost
with the opposite sign,

    H = b p + sigma p E[xi | F] + beta(n,n) sigma q + f k,

so H_u and the bracket differ by 2 f_u k; both are provided because each is
the quantity its respective check reports on, and the sign difference is
deliberate, not a bug.

The duality identity ties the bracket to the first variation of the cost:
with (p, q) and the variational pair (Yhat, Zhat) solved at the same
truncation N (so p_N = 0, q_N treated as 0),

    E sum_{n=0}^{N} e^{-lam n^gamma} bracket_n v_n  =  Yhat_0,

including the degenerate terminal term -f_u*(N) k_N v_N.  The identity is
exact under exact conditional expectations; under the regression backend it
holds in expectation because least squares with an intercept preserves
target means and the variational driver is linear with deterministic
per-step coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .backward import BsdeSolution, DriverSpec, _control_at, _discount_ratios, solve_truncated
from .errors import ContractError, NumericalError, require
from .forward import CoefficientSet, StatePath
from .fracnoise import InnovationSystem, prediction_matrix

__all__ = [
    "solve_adjoint_k",
    "solve_adjoint_pq",
    "hamiltonian",
    "hamiltonian_u",
    "necessary_bracket",
    "bracket_values",
    "check_necessary_condition",
    "verify_convexity",
    "solve_variational",
    "duality_gap",
]


# Entries of the (paths, steps) grid per bracket block: each temporary of one
# necessary_bracket call stays about 128 KB, so the blocks add little to the
# peak memory of a run.
_BLOCK_ENTRIES = 1 << 14


def _at(values, n: int):
    """Per-step lookup for scalar-or-array coefficient tables."""
    arr = np.asarray(values, dtype=float)
    return arr if arr.ndim == 0 else arr[..., n]


def solve_adjoint_k(f_y, f_z, n_steps: int, eta=None) -> np.ndarray:
    """Cost-propagation chain k over steps 0..n_steps.

    ``f_y``/``f_z`` are scalars or per-step tables indexed by n (only indices
    1..n_steps-1 are read).  A nonzero f_z makes the chain noise-driven and
    requires ``eta`` of shape (M, >= n_steps); the result is then (M,
    n_steps+1), otherwise (n_steps+1,).
    """
    require("n_steps", n_steps, int)
    if n_steps < 0:
        raise ContractError(f"n_steps must be >= 0, got {n_steps}")
    fy = np.asarray(f_y, dtype=float)
    fz = np.asarray(f_z, dtype=float)
    used = slice(1, n_steps)
    fz_active = bool(np.any(fz != 0.0)) if fz.ndim == 0 else bool(np.any(fz[..., used] != 0.0))
    if fz_active and n_steps > 1 and eta is None:
        raise ContractError("a nonzero f_z makes k noise-driven; pass the innovation array")
    if eta is not None:
        eta = np.asarray(eta, dtype=float)
        if eta.ndim != 2 or eta.shape[1] < n_steps:
            raise ContractError(
                f"eta must have shape (n_paths, >= {n_steps}), got {eta.shape}"
            )
        k = np.zeros((eta.shape[0], n_steps + 1))
    else:
        k = np.zeros(n_steps + 1)
    if n_steps >= 1:
        k[..., 1] = -1.0
    # k_{n+1} = k_n g_n from k_1 = -1 is minus the running product of the
    # factors g_n = 1 + f_y(n) (+ f_z(n) eta_n), which accumulate forms left
    # to right, as a step loop does; the sign flip is exact.
    growth = 1.0 + _chain_steps("f_y", fy, n_steps)
    if eta is not None:
        growth = growth + _chain_steps("f_z", fz, n_steps) * eta[:, 1:n_steps]
    k[..., 2:] = -np.multiply.accumulate(np.broadcast_to(growth, k[..., 2:].shape), axis=-1)
    return k


def _chain_steps(name: str, table: np.ndarray, n_steps: int) -> np.ndarray:
    """Entries 1..n_steps-1 of a scalar or per-step table of the chain."""
    if table.ndim == 0:
        return table
    if n_steps > 1 and table.shape[-1] < n_steps:
        raise ContractError(f"{name} has {table.shape[-1]} steps, the chain reads steps 1..{n_steps - 1}")
    return table[..., 1:n_steps]


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
    1-D tables with sigma_x = 0, no state and the exact backend are solved as
    a plain float recursion, bit-identical to the generic exact solve.
    """
    require("truncation", truncation, int)
    need_g = bool(np.any(np.asarray(sigma_x, dtype=float) != 0.0))
    if need_g and sys is None:
        raise ContractError("a nonzero sigma_x needs the innovation system for predictions")
    tables = [np.asarray(t, dtype=float) for t in (b_x, f_x, k)]
    if state is None and backend == "exact" and not need_g and all(t.ndim <= 1 for t in tables):
        return _solve_deterministic_pq(*tables, truncation, lam, gamma_exp, window, degree)
    beta_diag = np.diag(sys.beta)[: truncation + 1] if sys is not None else np.ones(truncation + 1)

    def f(m, x, y, z, u):
        return _at(b_x, m) * y + beta_diag[m] * _at(sigma_x, m) * z - _at(f_x, m) * _at(k, m)

    g = (lambda m, x, y, z, u: _at(sigma_x, m) * y) if need_g else None
    return solve_truncated(
        DriverSpec(f=f, g=g), state, sys, truncation, lam, gamma_exp,
        backend=backend, window=window, degree=degree,
    )


def _solve_deterministic_pq(b_x, f_x, k, truncation, lam, gamma_exp, window, degree):
    """solve_adjoint_pq for scalar or 1-D tables with sigma_x = 0 and no state.

    The pair is then a recursion over Python floats with q = 0.  Each step
    does the generic exact solve's arithmetic in its order, the ``+ 0.0`` of
    the sigma_x z term and the midpoint 0.5 (t + t) of the one-path target
    included, so y is bit-identical to it.
    """
    ratios = _discount_ratios(truncation, lam, gamma_exp, window, degree).tolist()
    n_trunc = int(truncation)
    b_x, f_x, k = (
        [float(t)] * (n_trunc + 1) if t.ndim == 0 else t[: n_trunc + 1].tolist()
        for t in (b_x, f_x, k)
    )
    y = [0.0] * (n_trunc + 1)
    for n in range(n_trunc - 1, -1, -1):
        m = n + 1
        f_val = b_x[m] * y[m] + 0.0 - f_x[m] * k[m]
        target = ratios[n] * (y[m] + f_val)
        if not math.isfinite(target):
            raise NumericalError(f"backward target became non-finite at step {n}")
        y[n] = 0.5 * (target + target)
    diagnostics = {
        "used_default_terminal": True,
        "used_default_terminal_noise": False,
        "window": window,
        "degree": degree,
    }
    return BsdeSolution(
        y=np.array([y]), z=np.zeros((1, n_trunc)), lam=lam, gamma_exp=gamma_exp,
        backend="exact", diagnostics=diagnostics,
    )


def hamiltonian(coeffs: CoefficientSet, cost: DriverSpec, n, x, y, z, u, p, q, k, pred, beta_nn):
    """H = b p + sigma p pred + beta(n,n) sigma q + f k at one step."""
    sig = coeffs.sigma(n, x, u)
    return coeffs.b(n, x, u) * p + sig * p * pred + beta_nn * sig * q + cost.f(n, x, y, z, u) * k


def hamiltonian_u(coeffs: CoefficientSet, cost: DriverSpec, n, x, y, z, u, p, q, k, pred, beta_nn):
    """Control derivative of the Hamiltonian (cost term with plus sign)."""
    if cost.f_u is None:
        raise ContractError("hamiltonian_u needs the declared cost partial f_u")
    sig_u = coeffs.sigma_u(n, x, u)
    return coeffs.b_u(n, x, u) * p + sig_u * (p * pred + beta_nn * q) + cost.f_u(n, x, y, z, u) * k


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
    once per block of paths over all steps, with n the array of step indices;
    every temporary is one block in size.
    """
    n_trunc = adjoint.truncation if truncation is None else truncation
    require("truncation", n_trunc, int)
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
    k = np.asarray(k, dtype=float)
    if k.ndim > 0 and k.shape[-1] < n_cols:
        raise ContractError(f"k has {k.shape[-1]} steps, the bracket range needs {n_cols}")
    if cost_solution is not None and cost_solution.y.shape[1] < n_cols:
        raise ContractError(
            f"cost_solution covers {cost_solution.y.shape[1]} steps, the bracket range needs {n_cols}"
        )
    controls = state.controls if controls is None else np.asarray(controls, dtype=float)
    if predictions is None:
        pred = prediction_matrix(sys, state.noise.xi, n_trunc)
    else:
        pred = np.asarray(predictions, dtype=float)
        if pred.ndim != 2 or pred.shape[0] != n_paths or pred.shape[1] < n_cols:
            raise ContractError(
                f"predictions must have shape ({n_paths}, >= {n_cols}), got {pred.shape}"
            )
    steps = np.arange(n_cols)
    beta_diag = np.diag(sys.beta)[:n_cols]
    out = np.empty((n_paths, n_cols))
    block = max(1, _BLOCK_ENTRIES // n_cols)
    zeros = np.zeros((min(block, n_paths), n_cols))
    for start in range(0, n_paths, block):
        rows = slice(start, min(start + block, n_paths))
        if cost_solution is None:
            y = z = zeros[: rows.stop - start]
        else:
            y, z = (_grid_block(t, rows, n_cols) for t in (cost_solution.y, cost_solution.z))
        out[rows] = necessary_bracket(
            coeffs, cost, steps, state.values[rows, :n_cols], y, z,
            _grid_block(controls, rows, n_cols, fill=np.nan),
            _grid_block(adjoint.y, rows, n_cols), _grid_block(adjoint.z, rows, n_cols),
            _grid_block(k, rows, n_cols), pred[rows, :n_cols], beta_diag,
        )
    return out


def _grid_block(table, rows: slice, n_cols: int, fill: float = 0.0) -> np.ndarray:
    """Steps 0..n_cols-1 of a per-step table on the paths ``rows``.

    A scalar, a 1-D table or a one-row 2-D table is shared by every path.
    Past the table's last step the entries are ``fill``: NaN for a control
    that ends before the grid, 0 for q and Z at their terminal.
    """
    if table.ndim == 0:
        return table
    if table.ndim == 2 and table.shape[0] != 1:
        table = table[rows]
    if table.shape[-1] >= n_cols:
        return table[..., :n_cols]
    padded = np.full(table.shape[:-1] + (n_cols,), fill)
    padded[..., : table.shape[-1]] = table
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
    the certificate, and the witness never gates ``passed``.  ``tolerance``
    is a finite number >= 0.
    """
    b, us, lo, hi = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (bracket, u_star, lower, upper))
    )
    if np.any(hi < lo):
        raise ContractError("upper bound below lower bound somewhere in the admissible box")
    require("n_trials", n_trials, int)
    if n_trials < 0:
        raise ContractError(f"n_trials must be >= 0, got {n_trials}")
    require("tolerance", tolerance, float)
    if tolerance < 0:
        raise ContractError(f"tolerance must be >= 0, got {tolerance}")
    worst = np.where(b > 0, lo, hi)
    worst -= us
    worst *= b
    bad = np.flatnonzero(~(worst >= -tolerance))
    violations = []
    for flat in bad[:10]:
        idx = np.unravel_index(flat, worst.shape)
        record = {"value": float(worst[idx]), "u": float(lo[idx] if b[idx] > 0 else hi[idx])}
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
            u = np.random.default_rng(child).uniform(size=worst.shape)
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
        "min_bracket_product": float(worst.min()),
        "min_index": [int(i) for i in np.unravel_index(np.argmin(worst), worst.shape)],
        "min_trial_product": min_trial,
        "n_violations": int(bad.size),
        "violations": violations,
        "passed": bad.size == 0,
    }


def verify_convexity(fn, sampler, n_pairs: int = 256, seed: int = 0, tolerance: float = 1e-10) -> dict:
    """Midpoint-convexity probe of ``fn(x, u)`` over sampled argument pairs.

    ``sampler(rng, size)`` returns per-pair (x, u) arrays.  A positive gap
    fn(midpoint) - (fn(a) + fn(b)) / 2 beyond ``tolerance`` is a violation;
    the report states what was found either way.
    """
    require("n_pairs", n_pairs, int)
    if n_pairs < 1:
        raise ContractError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    x1, u1 = sampler(rng, n_pairs)
    x2, u2 = sampler(rng, n_pairs)
    gap = fn(0.5 * (x1 + x2), 0.5 * (u1 + u2)) - 0.5 * (fn(x1, u1) + fn(x2, u2))
    gap = np.asarray(gap, dtype=float)
    bad = np.flatnonzero(gap > tolerance)
    return {
        "pairs": n_pairs,
        "tolerance": tolerance,
        "max_gap": float(gap.max()),
        "n_violations": int(bad.size),
        "violations": [{"pair": int(i), "gap": float(gap[i])} for i in bad[:10]],
        "convex": bad.size == 0,
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
    deviation v with step N included (the terminal cost term reads v_N).
    The per-step cost partials are scalars or tables evaluated along the
    base pair; the generator is f_x Xhat + f_y Yhat + f_z Zhat + f_u v.
    """
    xhat = variation.values
    v = np.asarray(directions, dtype=float)
    n_paths = variation.n_paths

    def f(m, x, y, z, u):
        v_m = _control_at(v, m, n_paths)
        return _at(f_x, m) * xhat[:, m] + _at(f_y, m) * y + _at(f_z, m) * z + _at(f_u, m) * v_m

    return solve_truncated(
        DriverSpec(f=f), variation, None, truncation, lam, gamma_exp,
        backend=backend, window=window, degree=degree,
    )


def duality_gap(bracket, directions, variational: BsdeSolution) -> dict:
    """Compare E sum_n e^{-lam n^gamma} bracket_n v_n against Yhat_0.

    ``bracket`` and ``directions`` cover n = 0..truncation (the bracket from
    bracket_values already carries the degenerate terminal column).
    """
    bracket = np.atleast_2d(np.asarray(bracket, dtype=float))
    v = np.asarray(directions, dtype=float)
    n_cols = bracket.shape[-1]
    if n_cols != variational.truncation + 1:
        raise ContractError(
            f"bracket covers {n_cols} steps but the variational solve has "
            f"truncation {variational.truncation}"
        )
    grid = np.arange(n_cols, dtype=float)
    weights = np.exp(-variational.lam * grid**variational.gamma_exp)
    lhs = float(np.mean(np.sum(weights * bracket * v, axis=-1)))
    rhs = float(np.mean(variational.y[:, 0]))
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}
