"""The dpotrf/dpotrs binding against scipy's wrappers of the same routines."""

import ctypes.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dpotrf

import fracctrl
from fracctrl import _lapack
from fracctrl import fracnoise as fn


@st.composite
def gram_systems(draw):
    """A Gram matrix design^T design of a full-rank design with columns of
    scales 1e-3..1e3, and a right-hand side of shape (p,) or (p, k)."""
    p = draw(st.integers(1, 30))
    rows = draw(st.integers(p, 4 * p + 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = rng.standard_normal((rows, p)) * 10.0 ** rng.uniform(-3, 3, p)
    k = draw(st.sampled_from([None, 1, 2, 5]))
    b = rng.standard_normal(p if k is None else (p, k))
    return design.T @ design, b


@settings(max_examples=200, deadline=None)
@given(system=gram_systems(), lower=st.booleans())
def test_factor_and_solve_match_scipy_bit_for_bit(system, lower):
    gram, b = system
    kept = b.copy()
    factor = np.array(gram, order="F")
    assert _lapack.potrf(factor, lower) == 0
    want = cholesky(gram, lower=lower, check_finite=False)
    assert np.array_equal(factor, want)
    x = _lapack.potrs(factor, b, lower)
    assert x.shape == b.shape
    assert np.array_equal(x, cho_solve((want, lower), b, check_finite=False))
    assert np.array_equal(b, kept), "potrs must not write into b"


@pytest.mark.parametrize("lower", [True, False])
def test_lost_definiteness_is_scipys_info(lower):
    a = np.diag([4.0, 1.0, -2.0, 3.0])
    a[0, 1] = a[1, 0] = 1.0
    want, info = dpotrf(a, lower=lower, clean=1)
    factor = np.asfortranarray(a)
    assert _lapack.potrf(factor, lower) == info == 3
    assert np.array_equal(factor, want)


@pytest.mark.parametrize(
    "a", [np.eye(3), np.eye(3, 2, order="F"), np.eye(3, dtype=np.float32, order="F"), np.ones(3)],
    ids=["C-order", "not-square", "float32", "1-D"],
)
def test_potrf_refuses_what_it_cannot_factor_in_place(a):
    with pytest.raises(ValueError, match="square Fortran-order float64"):
        _lapack.potrf(a, True)


def test_potrs_refuses_mismatched_shapes():
    factor = np.asfortranarray(np.eye(3))
    for b in (np.ones(2), np.ones((2, 3)), np.ones((3, 1, 1))):
        with pytest.raises(ValueError, match="incompatible dimensions"):
            _lapack.potrs(factor, b, False)


def test_the_scipy_binding_gives_the_same_bits(monkeypatch):
    rng = np.random.default_rng(11)
    design = rng.standard_normal((200, 12)) * 10.0 ** rng.uniform(-2, 2, 12)
    gram, b = design.T @ design, rng.standard_normal((12, 2))
    cases = [(0.25, n) for n in (1, 2, 129, 300)] + [(0.9, 401)]
    bundled = [fn.build_innovation_system(h, n).beta for h, n in cases]
    factor = np.array(gram, order="F")
    _lapack.potrf(factor, False)
    solved = _lapack.potrs(factor, b, False)

    factor_scipy, solve_scipy, library = _lapack._scipy_routines()
    assert library is None
    monkeypatch.setattr(_lapack, "_factor", factor_scipy)
    monkeypatch.setattr(_lapack, "_solve", solve_scipy)
    for (h, n), beta in zip(cases, bundled):
        assert np.array_equal(fn.build_innovation_system(h, n).beta, beta), (h, n)
    other = np.array(gram, order="F")
    assert _lapack.potrf(other, False) == 0
    assert np.array_equal(other, factor)
    assert np.array_equal(_lapack.potrs(other, b, False), solved)


def test_a_missing_library_is_not_bound(monkeypatch):
    monkeypatch.setattr(_lapack.glob, "glob", lambda pattern: [])
    assert _lapack._bundled_routines() is None


needs_pools = pytest.mark.skipif(not _lapack._POOLS, reason="no bundled OpenBLAS thread setter here")


def pool_counts():
    return [get() for get, _ in _lapack._POOLS]


ONE = [1] * len(_lapack._POOLS)
TWO = [2] * len(_lapack._POOLS)


@pytest.fixture
def two_threads():
    """Every bundled pool at two threads, and the counts found restored."""
    saved = pool_counts()
    for _, put in _lapack._POOLS:
        put(2)
    yield
    for (_, put), count in zip(_lapack._POOLS, saved):
        put(count)


def test_both_bundled_pools_are_found():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.25 prints its configuration only
        pytest.skip("numpy does not report the BLAS it was built with")
    if _lapack.LIBRARY is None or blas != "scipy-openblas":
        pytest.skip("numpy or scipy does not bundle its own OpenBLAS here")
    assert len(_lapack._POOLS) == 2


@needs_pools
def test_one_thread_restores_the_counts_it_found(two_threads):
    with _lapack.one_thread():
        assert pool_counts() == ONE
        with _lapack.one_thread():
            assert pool_counts() == ONE
        assert pool_counts() == ONE, "a nested body must keep one thread"
    assert pool_counts() == TWO
    with pytest.raises(KeyError):
        with _lapack.one_thread():
            with _lapack.one_thread():
                raise KeyError("inside")
    assert pool_counts() == TWO
    assert _lapack._pin_depth == 0


@needs_pools
def test_one_thread_holds_across_python_threads(two_threads):
    seen = []

    def enter_and_leave():
        for _ in range(300):
            with _lapack.one_thread():
                seen.append(pool_counts())

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter_and_leave) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == 1200 and all(counts == ONE for counts in seen)
    assert pool_counts() == TWO


def test_a_missing_library_or_setter_leaves_the_pool_alone(monkeypatch):
    monkeypatch.setattr(_lapack.glob, "glob", lambda pattern: [])
    monkeypatch.setattr(_lapack, "LIBRARY", None)
    assert _lapack._thread_pools() == []
    monkeypatch.setattr(_lapack, "LIBRARY", ctypes.util.find_library("c"))
    assert _lapack._thread_pools() == []
    monkeypatch.setattr(_lapack, "_POOLS", [])
    with _lapack.one_thread():
        pass


def test_importing_the_cli_loads_no_scipy_module():
    src = str(Path(fracctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, fracctrl.cli, fracctrl._lapack as lapack; "
        "print(lapack.LIBRARY is not None); print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True, timeout=60)
    bundled, loaded = done.stdout.splitlines()
    if bundled != "True":
        pytest.skip("scipy's bundled OpenBLAS is missing here, so fracctrl binds scipy.linalg.lapack")
    assert loaded == "[]", f"import fracctrl.cli loaded {loaded}"
