"""Fractional Gaussian noise: covariance, innovation representation, prediction.

The unit-step increments xi_n = B^H(n+1) - B^H(n) of fractional Brownian motion
with Hurst index H in (0, 1) form a stationary Gaussian sequence with

    rho_H(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}),

unit variance at lag 0, and lag independence exactly at H = 1/2.  For H != 1/2
the increments are correlated, so conditioning on the past matters everywhere
downstream.  This module provides the innovation representation that the rest
of the package consumes:

    xi  = beta @ eta     beta:  lower-triangular Cholesky factor of the
                                Toeplitz covariance of (xi_0, ..., xi_{N-1}),
                                eta iid standard normal

and the strictly lower-triangular one-step prediction coefficients gamma, with
E[xi_n | F_n] = sum_{k<n} gamma(n, k) xi_k, where F_n is the sigma-field
generated by the first n increments.  Convention fixed package-wide: a prefix of
length n predicts the next unseen increment xi_n; beta(n, n) is the conditional
standard deviation of that prediction.

gamma comes from the Durbin-Levinson recursion on the autocovariances
(Brockwell & Davis, Time Series: Theory and Methods, section 5.2): row n is
row n-1 updated by one reflection coefficient, O(N^2) in all.  The whitening
matrix alpha = beta^{-1} then needs no inverse, because the innovation is the
scaled prediction error, eta_n = (xi_n - gamma[n] @ xi) / beta(n, n), so

    alpha = (I - gamma) / diag(beta)[:, None].

Only beta and gamma are stored; alpha and the covariance are derived on
demand.

Sampling is deterministic given the seed.  Innovations come from numpy's PCG64
generator (ziggurat standard normals), fixed for this build so that identical
(system, seed) pairs reproduce identical paths bit for bit.  The factorization
and the noise and prediction products run on one OpenBLAS thread
(``_lapack.one_thread``), so their bits do not depend on the CPU count.

The noise and the predictions are stored step-major, and each such grid is
allocated before the scratch that fills it (the innovations and the
path-major product).  That order is part of the contract: with it a second
run in one process peaks where the first did (see ``_step_major``).
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._csv import write_csv
from ._lapack import one_thread, potrf
from .errors import ContractError, NumericalError, _holds_bool, floats, require

__all__ = [
    "InnovationSystem",
    "NoiseEnsemble",
    "fgn_autocovariance",
    "autocovariance_matrix",
    "build_innovation_system",
    "sample_ensemble",
    "predict_next",
    "prediction_matrix",
    "gaussian_abs_moment",
    "write_loadings_csv",
]


_FLOAT_MAX = float(np.finfo(float).max)
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX)


def _check_hurst(h: float) -> float:
    require("Hurst index", h, float)
    h = float(h)
    if not 0.0 < h < 1.0:
        raise ContractError(f"Hurst index must lie in (0, 1), got {h}")
    return h


def fgn_autocovariance(h: float, lag):
    """Autocovariance rho_H(lag) of unit-step fractional Gaussian noise.

    ``lag`` may be a nonnegative integer or an array of them; a bool (also
    one inside a list or tuple), a string, None, a non-numeric array or a
    ragged nesting of lists raises ContractError, though numpy would read
    most of them as numbers.  A lag whose terms |lag +- 1|^{2H} overflow a
    float raises NumericalError naming it.  rho_H(0) = 1 for every H, and
    rho_H(k) = 0 for all k >= 1 iff H = 1/2.
    """
    h = _check_hurst(h)
    try:
        lags = np.asarray(lag)
    except ValueError:  # a ragged nesting, such as [1, [2, 3]]
        lags = None
    # An object array holds Python integers past int64, or None.  Past the
    # float range an integer stands at the float maximum, whose powers overflow.
    if lags is None or _holds_bool(lag) or lags.dtype.kind not in "iuf" and not (
        lags.dtype.kind == "O" and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in lags.flat)
    ):
        raise ContractError(f"lag must be a nonnegative integer or an array of them, got {lag!r}")
    k = np.asarray(np.clip(lags, -_FLOAT_MAX, _FLOAT_MAX) if lags.dtype.kind == "O" else lags, dtype=float)
    if np.any(k < 0) or np.any(k != np.floor(k)) or np.any(np.isinf(k)):
        raise ContractError("lag must be a nonnegative integer")
    two_h = 2.0 * h
    with np.errstate(over="ignore", invalid="ignore"):
        rho = 0.5 * (np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h)
    if not np.isfinite(rho).all():
        lag = lags.ravel().tolist()[int(np.argmin(np.isfinite(rho)))]
        raise NumericalError(f"the fGn autocovariance overflows a float at lag {lag}", detail={"lag": lag})
    if np.isscalar(lag) or np.ndim(lag) == 0:
        return float(rho)
    return rho


def autocovariance_matrix(h: float, n: int) -> np.ndarray:
    """Toeplitz covariance matrix of (xi_0, ..., xi_{n-1})."""
    require("matrix order", n, int)
    if n < 1:
        raise ContractError(f"matrix order must be >= 1, got {n}")
    return _toeplitz(fgn_autocovariance(h, np.arange(n)))


def _toeplitz(rho: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with first column ``rho``, C-order:
    row i is a window of (rho reversed, rho[1:]), copied once."""
    values = np.concatenate((rho[::-1], rho[1:]))
    return sliding_window_view(values, rho.shape[0])[::-1].copy()


@dataclass(frozen=True)
class InnovationSystem:
    """Innovation representation of fGn over a finite horizon.

    beta is the lower-triangular Cholesky factor of the covariance and gamma
    the strictly lower-triangular prediction coefficients from Durbin-Levinson:
    row n of gamma gives E[xi_n | F_n] = gamma[n, :n] @ xi[:n].  ``alpha``
    (= beta^{-1}) and ``covariance`` are computed on each access, not stored.
    """

    hurst: float
    horizon: int
    beta: np.ndarray
    gamma: np.ndarray

    @property
    def covariance(self) -> np.ndarray:
        """Toeplitz covariance of (xi_0, ..., xi_{horizon-1})."""
        return autocovariance_matrix(self.hurst, self.horizon)

    @property
    def alpha(self) -> np.ndarray:
        """Whitening matrix beta^{-1}: row n maps xi to eta_n."""
        return (np.eye(self.horizon) - self.gamma) / np.diag(self.beta)[:, None]

    def conditional_std(self, n: int) -> float:
        """Std of xi_n given the first n increments; equals beta(n, n)."""
        return float(self.beta[n, n])

    def __repr__(self):
        return f"InnovationSystem(hurst={self.hurst}, horizon={self.horizon})"


def _durbin_levinson(rho: np.ndarray) -> np.ndarray:
    """Prediction coefficients gamma from the autocovariances rho[0..N-1].

    With phi the reflection coefficient and v the prediction error variance
    of row n-1, row n is gamma[n, 0] = phi and
    gamma[n, 1:n] = gamma[n-1, :n-1] - phi * reversed(gamma[n-1, :n-1]).
    """
    n_total = rho.shape[0]
    gamma = np.zeros((n_total, n_total))
    v = rho[0]
    for n in range(1, n_total):
        prev = gamma[n - 1, : n - 1]
        phi = (rho[n] - prev @ rho[1:n]) / v
        gamma[n, 0] = phi
        gamma[n, 1:n] = prev - phi * prev[::-1]
        v *= 1.0 - phi * phi
    return gamma


def build_innovation_system(h: float, horizon: int) -> InnovationSystem:
    """Factor the fGn covariance over ``horizon`` steps.

    Raises ContractError for a horizon that is not an integer >= 1, and
    NumericalError with the offending pivot index if the Toeplitz matrix
    loses positive definiteness to rounding.  The factorization runs in a
    second thread, joined before the call returns.
    """
    h = _check_hurst(h)
    require("horizon", horizon, int)
    horizon = int(horizon)
    if horizon < 1:
        raise ContractError(f"horizon must be >= 1, got {horizon}")
    rho = fgn_autocovariance(h, np.arange(horizon))
    # _toeplitz(rho) is exactly symmetric, so its transpose is the same matrix
    # in Fortran order, which dpotrf factors in place without a copy.
    beta = _toeplitz(rho).T
    # dpotrf releases the GIL, so it factors beta in a second thread while
    # this one runs the Durbin-Levinson loop.  Where a pivot is lost the
    # loop's gamma is discarded, so its divisions may fail quietly.
    with one_thread():
        factor = _start(potrf, beta, lower=True)
        try:
            with np.errstate(all="ignore"):
                gamma = _durbin_levinson(rho)
        finally:
            info = factor()
    if info != 0:
        raise NumericalError(
            f"Cholesky factorization of the fGn covariance failed at pivot {info} "
            f"(H={h}, horizon={horizon})",
            pivot_index=int(info),
        )
    return InnovationSystem(hurst=h, horizon=horizon, beta=beta, gamma=gamma)


def _start(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` in a new thread; the function returned
    joins it and returns the call's result or raises its exception."""
    outcome = []

    def call():
        try:
            outcome.append((fn(*args, **kwargs), None))
        except BaseException as exc:
            outcome.append((None, exc))

    thread = threading.Thread(target=call)
    thread.start()

    def join():
        thread.join()
        value, exc = outcome[0]
        if exc is not None:
            raise exc
        return value

    return join


def _check_system(system) -> None:
    if not isinstance(system, InnovationSystem):
        raise ContractError(f"system must be an InnovationSystem, got {type(system).__name__}")


@dataclass(frozen=True)
class NoiseEnsemble:
    """A batch of fGn trajectories: ``xi`` and ``eta`` have shape
    (n_paths, n_steps), row i being path i.

    sample_ensemble stores ``xi`` as the transpose of a step-major
    (n_steps, n_paths) buffer, so ``xi[:, n]`` is contiguous and a window of
    steps ``xi[:, a:b]`` is Fortran-contiguous.  An ensemble built by hand may
    hold arrays in any layout; every reader accepts them.  ``eta`` may be
    None, as in run_experiment's ensemble: the innovations are then the
    seed's draws of ``xi``'s shape, and a reader redraws them with
    ``_draw_innovations(seed, xi.shape)``, bit for bit.
    """

    seed: int
    eta: np.ndarray | None
    xi: np.ndarray


def _draw_innovations(seed: int, shape) -> np.ndarray:
    """The iid standard normals of ``seed``, path-major: sample_ensemble's
    ``eta`` of this shape."""
    return np.random.default_rng(seed).standard_normal(shape)


# Entries of the product per block of paths in _step_major's transposing
# copy: 256 KB, which stays in cache.
_COPY_BLOCK_ENTRIES = 1 << 15


def _step_major(product: np.ndarray, by_step: np.ndarray) -> np.ndarray:
    """``product`` (paths, steps) copied into ``by_step`` (steps, paths),
    returned as its transpose.

    Every reader steps through time, so the noise and its predictions are
    kept step-major: column n of the result is contiguous.  The copy is
    exact; computing a product step-major instead (beta @ eta.T, or over
    blocks of paths) rounds differently.  Blocks of paths keep the
    transposing copy in cache.

    The caller allocates ``by_step`` before it makes ``product`` (and the
    innovations behind it), so the scratch sits above the grid on the heap
    and the next grid of the same size reuses its space once it is freed.
    Made the other way round, the scratch leaves a hole below the grid that
    the next grids split, and a second run in one process peaks most of a
    grid higher than the first (glibc serves grids of up to 32 MB from the
    heap once it has freed one of them).
    """
    n_paths, n_steps = product.shape
    block = max(1, _COPY_BLOCK_ENTRIES // n_steps)
    for start in range(0, n_paths, block):
        by_step[:, start : start + block] = product[start : start + block].T
    return by_step.T


def sample_ensemble(
    system: InnovationSystem, seed: int, n_paths: int, n_steps: int | None = None
) -> NoiseEnsemble:
    """Draw ``n_paths`` trajectories over the first ``n_steps`` increments.

    The first k increments depend only on the leading k x k block of beta, so
    truncating to n_steps < horizon samples from exactly the same law as the
    full system restricted to those steps.  ``xi`` equals
    ``eta @ beta[:n_steps, :n_steps].T`` on one OpenBLAS thread bit for bit
    and is the transpose of a step-major buffer: ``xi[:, n]`` is contiguous.
    One path is ``sample_ensemble(system, seed, 1)``.
    """
    _check_system(system)
    require("seed", seed, int)
    require("n_paths", n_paths, int)
    if n_paths < 1:
        raise ContractError(f"n_paths must be >= 1, got {n_paths}")
    if n_steps is None:
        n_steps = system.horizon
    require("n_steps", n_steps, int)
    if not 1 <= n_steps <= system.horizon:
        raise ContractError(
            f"n_steps must lie in [1, horizon={system.horizon}], got {n_steps}"
        )
    by_step = np.empty((n_steps, n_paths))  # before its scratch: see _step_major
    eta = _draw_innovations(seed, (n_paths, n_steps))
    with one_thread():
        product = eta @ system.beta[:n_steps, :n_steps].T
    xi = _step_major(product, by_step)
    return NoiseEnsemble(seed=int(seed), eta=eta, xi=xi)


def predict_next(system: InnovationSystem, prefix) -> np.ndarray:
    """E[xi_n | xi_0, ..., xi_{n-1}] on each path, n being the prefix length.

    ``prefix`` has shape (paths, n), one row per path; the empty prefix
    yields the unconditional mean 0.  Requires n <= horizon - 1 so that
    prediction row n exists; a NaN or inf in the prefix raises
    ContractError.  The order of the sum over k follows the
    prefix's memory layout, so a Fortran-order prefix (a slice of
    sample_ensemble's xi) and a C-order copy of it may differ in the last
    bits; tests bound the difference by 1e-14 of sum_k |xi_k gamma(n, k)|.
    """
    _check_system(system)
    prefix = floats("prefix", prefix, 2, finite=False)
    n = prefix.shape[1]
    if n > system.horizon - 1:
        raise ContractError(
            f"prefix of length {n} needs prediction row {n}; system horizon "
            f"{system.horizon} only provides rows up to {system.horizon - 1}"
        )
    if n == 0:
        return np.zeros(prefix.shape[0])
    with one_thread(), np.errstate(invalid="ignore"):
        pred = prefix @ system.gamma[n, :n]
    # A NaN or inf in the prefix shows in its path's prediction, so the
    # (paths,) result is scanned for it rather than the whole prefix.
    if not np.isfinite(pred).all():
        floats("prefix", prefix, 2)
    return pred


def prediction_matrix(system: InnovationSystem, xi, n_max: int) -> np.ndarray:
    """Stack predict_next over all prefix lengths n = 0, ..., n_max.

    ``xi`` has shape (paths, >= n_max), one row per path.  Column n of the
    result is E[xi_n | xi_0, ..., xi_{n-1}] on each path; column 0 is the
    unconditional mean 0.  The values are those of the path-major product
    ``xi[:, :n_max] @ gamma[:n_max + 1, :n_max].T`` on one OpenBLAS thread
    bit for bit, stored as the transpose of a step-major (n_max + 1, paths)
    buffer: column n is contiguous, and a window of columns is
    Fortran-contiguous.
    """
    _check_system(system)
    require("n_max", n_max, int)
    xi = floats("xi", xi, 2, steps=n_max)
    if n_max < 0:
        raise ContractError(f"n_max must be >= 0, got {n_max}")
    if n_max > system.horizon - 1:
        raise ContractError(
            f"prefix of length {n_max} needs prediction row {n_max}; system "
            f"horizon {system.horizon} only provides rows up to {system.horizon - 1}"
        )
    # gamma is strictly lower triangular, so the terms past each prefix are
    # exact zeros and one product gives every column.
    by_step = np.empty((n_max + 1, xi.shape[0]))  # before its scratch: see _step_major
    with one_thread():
        product = xi[:, :n_max] @ system.gamma[: n_max + 1, :n_max].T
    return _step_major(product, by_step)


def gaussian_abs_moment(m: float) -> float:
    """E|xi|^m for xi standard normal: 2^{m/2} Gamma((m+1)/2) / sqrt(pi).

    For even integer m this reduces exactly to the double factorial
    (m-1)!! = 1 * 3 * ... * (m-1), which is returned via integer arithmetic so
    the classical values (m=2 -> 1, m=4 -> 3) are exact.  Other m > 0 use the
    log-Gamma form, stable far beyond m = 200.  Past m of about 301 the moment
    exceeds the float range; the log-Gamma form tells so before any product
    is formed, and NumericalError names m.
    """
    require("moment order", m, float)
    m = float(m)
    if m <= 0:
        raise ContractError(f"moment order must be > 0, got {m}")
    try:
        log_moment = 0.5 * m * math.log(2.0) + math.lgamma(0.5 * (m + 1.0)) - 0.5 * math.log(math.pi)
    except OverflowError:
        log_moment = math.inf
    if log_moment > _LOG_FLOAT_MAX:
        raise NumericalError(
            f"E|xi|^m overflows a float at moment order m={m} (log value {log_moment:.6g})",
            detail={"m": m},
        )
    if m == math.floor(m) and int(m) % 2 == 0:
        prod = 1
        for i in range(1, int(m), 2):
            prod *= i
        return float(prod)
    return math.exp(log_moment)


def write_loadings_csv(system: InnovationSystem, path) -> None:
    """Dump beta, alpha, gamma as (matrix, row, col, value) rows, 17 digits."""

    def tables():
        for name, mat in (("beta", system.beta), ("alpha", system.alpha), ("gamma", system.gamma)):
            rows, cols = np.nonzero(mat)
            yield rows.shape, [name, rows, cols, mat[rows, cols]]

    write_csv(path, "matrix,row,col,value", tables())
