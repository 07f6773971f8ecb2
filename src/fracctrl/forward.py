"""Controlled state recursions driven by fGn, and their first variations.

The state equation is the exact recursion

    X_{n+1} = X_n + b(n, X_n, u_n) + sigma(n, X_n, u_n) * xi_n,    X_0 = x,

simulated pathwise over a NoiseEnsemble; there is no discretization error to
manage, the recursion is the model.  The ensemble axis provides the
vectorization: coefficient callables receive per-path arrays and must
broadcast.

The first variation along a base trajectory (X*, u*) in direction v solves

    Xh_{n+1} = Xh_n + b_x*(n) Xh_n + b_u*(n) v_n
               + (sigma_x*(n) Xh_n + sigma_u*(n) v_n) * xi_n,      Xh_0 = 0,

with all partials evaluated along the base pair, and the convex perturbation
u^eps = (1 - eps) u* + eps u~ = u* + eps (u~ - u*) stays admissible for
eps in [0, 1] whenever both endpoints are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, NumericalError, floats, require
from .fracnoise import NoiseEnsemble

__all__ = [
    "CoefficientSet",
    "ControlProcess",
    "StatePath",
    "simulate_state",
    "simulate_variation",
    "perturb_control",
]


@dataclass(frozen=True)
class CoefficientSet:
    """Drift/noise coefficients b, sigma with their partials in x and u.

    Each callable takes (n, x, u) with x, u per-path arrays and returns a
    broadcastable array.  The simulators pass the step n as an int.  The
    u-partials b_u and sigma_u also serve the bracket, which evaluates a
    block of steps over all paths at once: there n is the array of the
    block's step indices and x, u are (paths, block) arrays, so they must
    broadcast in n as well (or ignore it).
    """

    b: Callable
    sigma: Callable
    b_x: Callable
    b_u: Callable
    sigma_x: Callable
    sigma_u: Callable


@dataclass
class ControlProcess:
    """A control: fixed per-step values or a feedback rule.

    ``values`` has shape (n_steps,) or (n_paths, n_steps) with column n the
    control applied at step n.  ``rule(n, x, xi_hist)`` receives the current
    state and the noise observed so far (shape (n_paths, n)) and returns the
    per-path control.
    """

    values: Optional[np.ndarray] = None
    rule: Optional[Callable] = None

    def __post_init__(self):
        if (self.values is None) == (self.rule is None):
            raise ContractError("exactly one of values/rule must be given")
        if self.values is not None:
            self.values = np.atleast_1d(floats("values", self.values, (0, 1, 2)))

    def at(self, n: int, x: np.ndarray, xi_hist: np.ndarray) -> np.ndarray:
        if self.rule is not None:
            u = self.rule(n, x, xi_hist)
            if isinstance(u, np.ndarray) and u.dtype == np.float64 and u.shape == x.shape:
                return u
            return np.broadcast_to(floats("rule", u, (0, 1), paths=x.shape[0], finite=False), x.shape)
        if n >= self.values.shape[-1]:
            raise ContractError(f"control has {self.values.shape[-1]} steps, step {n} requested")
        col = self.values[..., n]
        return np.broadcast_to(col, x.shape)


@dataclass(frozen=True)
class StatePath:
    """A simulated trajectory bundle: states, realized controls, noise.

    The simulators fill step-major buffers, one contiguous row per step, and
    store their transposes: ``values[:, n]`` is a contiguous view.
    ``simulate_state(..., terminal=True)`` also evaluates the control at the
    last state, with the whole noise as its history, into the same buffer:
    ``controls`` then has horizon + 1 columns.
    """

    values: np.ndarray  # (n_paths, horizon + 1)
    controls: np.ndarray  # (n_paths, horizon), or horizon + 1 with the terminal control
    noise: NoiseEnsemble

    @property
    def horizon(self) -> int:
        return self.values.shape[1] - 1

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def simulate_state(
    coeffs: CoefficientSet, control: ControlProcess, noise: NoiseEnsemble, x0, terminal: bool = False
) -> StatePath:
    """Run the state recursion over the ensemble; exact, no discretization.

    ``x0`` is the finite initial state: a scalar shared by every path, or an
    array of shape (n_paths,).  ``terminal`` adds the control at the last
    state (see StatePath).  Raises NumericalError naming the first offending
    path and step if the recursion produces a non-finite value.
    """
    xi = noise.xi
    n_paths, n_steps = xi.shape
    shape = None if control.values is None else control.values.shape
    if shape is not None and len(shape) == 2 and shape[0] not in (1, n_paths):
        raise ContractError(f"control values of shape {shape} do not match the noise's {xi.shape}")
    values = np.empty((n_steps + 1, n_paths))
    controls = np.empty((n_steps + 1 if terminal else n_steps, n_paths))
    values[0] = floats("x0", x0, (0, 1), paths=n_paths)
    for n in range(n_steps):
        x = values[n]
        u = control.at(n, x, xi[:, :n])
        controls[n] = u
        x_next = x + coeffs.b(n, x, u) + coeffs.sigma(n, x, u) * xi[:, n]
        if not np.isfinite(x_next).all():
            bad = int(np.flatnonzero(~np.isfinite(x_next))[0])
            raise NumericalError(
                f"state became non-finite at step {n + 1} on path {bad}", detail={"path": bad, "step": n + 1}
            )
        values[n + 1] = x_next
    if terminal:
        controls[n_steps] = control.at(n_steps, values[n_steps], xi)
    return StatePath(values=values.T, controls=controls.T, noise=noise)


def simulate_variation(coeffs: CoefficientSet, state: StatePath, direction) -> StatePath:
    """First variation along ``state`` in control direction v; starts at 0.

    ``direction`` has shape (horizon,) or (n_paths, horizon).  Partials are
    evaluated along the realized (X*, u*) stored in ``state``.
    """
    xi = state.noise.xi
    n_paths, n_steps = xi.shape
    v = floats("direction", direction, (1, 2), paths=n_paths, steps=n_steps)
    if v.ndim == 1:
        v = np.broadcast_to(v, (n_paths, v.shape[0]))
    v = np.ascontiguousarray(v[:, :n_steps].T)
    values = np.zeros((n_steps + 1, n_paths))
    for n in range(n_steps):
        x, u = state.values[:, n], state.controls[:, n]
        xh = values[n]
        drift = coeffs.b_x(n, x, u) * xh + coeffs.b_u(n, x, u) * v[n]
        noise_load = coeffs.sigma_x(n, x, u) * xh + coeffs.sigma_u(n, x, u) * v[n]
        values[n + 1] = xh + drift + noise_load * xi[:, n]
    return StatePath(values=values.T, controls=v.T, noise=state.noise)


def _control_values(name: str, u) -> np.ndarray:
    if isinstance(u, ControlProcess):
        if u.values is None:
            raise ContractError("perturbation needs value-based controls; realize the rule first")
        return u.values
    return floats(name, u, (1, 2))


def perturb_control(u_star, u_tilde, eps: float) -> ControlProcess:
    """Convex perturbation (1 - eps) u* + eps u~ for eps in [0, 1]."""
    require("eps", eps, float)
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ContractError(f"eps must lie in [0, 1], got {eps}")
    a, b = _control_values("u_star", u_star), _control_values("u_tilde", u_tilde)
    if a.shape[-1] != b.shape[-1]:
        raise ContractError(f"control lengths differ: {a.shape[-1]} vs {b.shape[-1]}")
    return ControlProcess(values=(1.0 - eps) * a + eps * b)
