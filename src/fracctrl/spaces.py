"""Weighted sequence spaces: discount weights, exponent ladders, truncated norms.

The solution spaces pair a super-geometric discount exp(-lambda * n^gamma),
gamma > 1, with moment exponents that drift along the ladder

    delta_n = 1 - (n + 2)^{-theta},    theta > 1,

whose running products S_n = delta_1 * ... * delta_n stay bounded away from
zero:

    S_n >= exp(2^{1-theta}/(1-theta) + 2^{1-2theta}/(1-2theta))   for all n.

Forward-direction norms raise to base_power * S_n (the exponent shrinks with
n), backward-direction norms to base_power / S_n (it grows).  A norm here is
the explicit truncated sum

    sum_{n=0}^{N} exp(-lambda * n^gamma) * mean_paths |x_n|^{p(n)},

reported together with its last term so callers can judge the truncation tail.
Running products are accumulated in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, floats, require

__all__ = [
    "WeightedNormParams",
    "WeightedNormResult",
    "delta_products",
    "product_lower_bound",
    "weighted_norm",
]


def _check_theta(theta: float) -> float:
    require("theta", theta, float)
    theta = float(theta)
    if theta <= 1.0:
        raise ContractError(f"theta must be > 1, got {theta}")
    return theta


def delta_products(theta: float, n_max: int) -> np.ndarray:
    """Running products S_0=1, S_n = delta_1 ... delta_n, up to n_max.

    Accumulated as cumsum(log1p(-(i+2)^{-theta})) to stay stable out to the
    millions of terms the bound checks use.
    """
    theta = _check_theta(theta)
    require("n_max", n_max, int)
    if n_max < 0:
        raise ContractError(f"n_max must be >= 0, got {n_max}")
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max:
        i = np.arange(1, n_max + 1, dtype=float)
        out[1:] = np.exp(np.cumsum(np.log1p(-((i + 2.0) ** (-theta)))))
    return out


def product_lower_bound(theta: float) -> float:
    """Certified lower bound for every S_n (and for the infinite product)."""
    theta = _check_theta(theta)
    return float(
        np.exp(2.0 ** (1.0 - theta) / (1.0 - theta) + 2.0 ** (1.0 - 2.0 * theta) / (1.0 - 2.0 * theta))
    )


@dataclass(frozen=True)
class WeightedNormParams:
    """Parameters of a truncated weighted norm.

    direction "forward" raises to base_power * S_n, "backward" to
    base_power / S_n; theta=None freezes the exponent at base_power for plain
    moment norms.
    """

    lam: float
    gamma_exp: float
    base_power: float
    direction: str = "forward"
    theta: float | None = None

    def __post_init__(self):
        for name in ("lam", "gamma_exp", "base_power"):
            require(name, getattr(self, name), float)
        if self.lam <= 0:
            raise ContractError(f"lam must be > 0, got {self.lam}")
        if self.gamma_exp <= 1:
            raise ContractError(f"gamma_exp must be > 1, got {self.gamma_exp}")
        if self.base_power <= 0:
            raise ContractError(f"base_power must be > 0, got {self.base_power}")
        if self.direction not in ("forward", "backward"):
            raise ContractError(f"direction must be 'forward' or 'backward', got {self.direction!r}")
        if self.theta is not None:
            _check_theta(self.theta)

    def exponents(self, n_max: int) -> np.ndarray:
        """Per-step powers p(0), ..., p(n_max)."""
        if self.theta is None:
            return np.full(n_max + 1, float(self.base_power))
        products = delta_products(self.theta, n_max)
        if self.direction == "forward":
            return self.base_power * products
        return self.base_power / products

    def weights(self, n_max: int) -> np.ndarray:
        """Discounts exp(-lam * n^gamma_exp) for n = 0, ..., n_max."""
        n = np.arange(n_max + 1, dtype=float)
        return np.exp(-self.lam * n**self.gamma_exp)


@dataclass(frozen=True)
class WeightedNormResult:
    """Truncated norm value plus its last term for tail diagnostics."""

    value: float
    tail_term: float


def weighted_norm(values, params: WeightedNormParams) -> WeightedNormResult:
    """Truncated weighted norm of a path or path ensemble.

    ``values`` holds x_0, ..., x_N along the last axis, one row per path when
    2-dimensional; expectations are ensemble means.  The norm sums every
    supplied step; for a shorter truncation, slice ``values``.  Values that
    are not numbers, or not finite, and ``params`` that are not
    WeightedNormParams raise ContractError.
    """
    if not isinstance(params, WeightedNormParams):
        raise ContractError(f"params must be WeightedNormParams, got {type(params).__name__}")
    values = floats("values", values)
    if values.ndim == 1:
        values = values[None, :]
    if values.ndim != 2 or values.shape[1] == 0:
        raise ContractError(f"values must be 1- or 2-dimensional with >= 1 step, got shape {values.shape}")
    n_max = values.shape[1] - 1
    terms = params.weights(n_max) * np.mean(np.abs(values) ** params.exponents(n_max), axis=0)
    return WeightedNormResult(value=float(np.sum(terms)), tail_term=float(terms[-1]))
