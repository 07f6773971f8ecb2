"""Discrete-time stochastic control driven by fractional Gaussian noise.

Modules
-------
fracnoise   fGn covariance, innovation representation, prediction, sampling
spaces      discount weights, exponent ladders, truncated weighted norms
forward     controlled state recursions and their first variations
backward    truncated backward equations (exact and regression backends)
smp         adjoint processes, necessary-condition bracket, optimality checks
invest      the investment/consumption application wired end to end
cli         command-line entry points
"""

__version__ = "0.1.0"

from .errors import ContractError, NumericalError

__all__ = ["ContractError", "NumericalError", "__version__"]
