"""Exception types shared across the package, and the argument checks that
raise the first of them."""

import math
import numbers

import numpy as np


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


def floats(name: str, value, ndim=None, *, paths=None, steps=None, finite=True) -> np.ndarray:
    """``value`` as a float64 array; a float64 array comes back itself, not
    a copy.  Every public array argument of the package is read through here.

    ContractError naming ``name`` for: a string, None, a bool (also inside
    a list or tuple, at any depth), an object, complex or ragged input; a
    number of dimensions not in ``ndim`` (an int or a tuple of them, any
    when None); with ``paths``, an array of the most dimensions allowed
    whose first axis, one row per path, holds neither ``paths`` rows nor one
    row shared by every path; with ``steps``, an array whose last axis holds
    fewer than ``steps`` steps; and unless ``finite`` is False, a NaN or an
    infinity.  Where ``ndim`` allows at most one dimension and ``steps`` is
    None, a 1-D array runs over paths; otherwise its one axis runs over
    steps.
    """
    dims = (ndim,) if isinstance(ndim, int) else ndim
    per_path = dims is not None and max(dims) == 1 and steps is None
    number = "a finite number" if finite else "a number"
    if dims is None or 0 not in dims:
        what = "finite numbers" if finite else "numbers"
    else:
        what = f"{number} or a per-path array of them" if per_path else f"{number} or a per-step table of them"
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):  # a ragged nesting, such as [1, [2, 3]]
        array = None
    if array is None or array.dtype.kind not in "iuf" or _holds_bool(value):
        shown = repr(value)
        raise ContractError(f"{name} must be {what}, got {shown if len(shown) <= 60 else shown[:56] + ' ...'}")
    array = array.astype(float, copy=False)
    if dims is not None and (
        array.ndim not in dims
        or paths is not None and array.ndim == max(dims) and array.shape[0] not in (1, paths)
    ):
        rows = "paths" if paths is None else paths
        forms = {0: "a scalar", 1: f"({rows},)" if per_path else "(steps,)", 2: f"({rows}, steps)"}
        *others, last = [forms[d] for d in dims]
        form = f"{', '.join(others)} or {last}" if others else last
        raise ContractError(f"{name} must {'be' if 0 in dims else 'have shape'} {form}, got {array.shape}")
    if steps is not None and array.ndim and array.shape[-1] < steps:
        have = array.shape[-1]
        raise ContractError(f"{name} has {have} steps, {steps - have} short of the {steps} read (shape {array.shape})")
    if finite and not np.isfinite(array).all():
        bad = tuple(np.argwhere(~np.isfinite(array))[0].tolist())
        shown = f"{float(array[bad])!r} at index {bad}" if bad else repr(float(array))
        raise ContractError(f"{name} must be {what}, got {shown}")
    return array


def _holds_bool(value) -> bool:
    """Whether ``value`` is or holds a bool, in lists and tuples at any depth;
    only Python sequences are walked, so an array costs one type test."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_)) or isinstance(value, np.ndarray) and value.dtype.kind == "b"
