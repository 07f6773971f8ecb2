"""Exception types shared across the package, and the argument check that
raises the first of them."""

import math
import numbers


class ContractError(ValueError):
    """An argument violates a documented precondition of an operation."""


class NumericalError(RuntimeError):
    """A numerical routine failed.

    Carries enough context to locate the failure: ``pivot_index`` for
    factorization breakdowns, ``detail`` for anything else (e.g. a report of
    the offending regression basis).
    """

    def __init__(self, message, *, pivot_index=None, detail=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.detail = detail


def require(name: str, value, kind) -> None:
    """ContractError unless ``value`` is an integer (``kind`` int) or a finite
    real number (``kind`` float); bools count as neither."""
    if kind is int:
        ok = isinstance(value, numbers.Integral)
    else:
        try:  # an integer past the float range overflows, and is refused
            ok = isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:
            ok = False
    if isinstance(value, bool) or not ok:
        what = "an integer" if kind is int else "a finite number"
        raise ContractError(f"{name} must be {what}, got {value!r}")
