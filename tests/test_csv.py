"""The five CSV writers against the row loops they replaced, byte for byte.

Each reference below is the per-row loop a writer used before all of them
shared one chunked helper; the new writer must reproduce its file exactly on
a single path, on row counts at, beyond and off the chunk size, and on the
float values whose text is easiest to get wrong.  It must do so for any
number of shares a table is split into, with share boundaries inside a path
and inside a chunk.
"""

import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from fracctrl import _csv
from fracctrl._csv import CHUNK_ROWS, write_csv
from fracctrl.backward import BsdeSolution, solve_truncated, write_solution_csv
from fracctrl.forward import StatePath, write_trajectory_csv
from fracctrl.fracnoise import InnovationSystem, NoiseEnsemble, build_innovation_system, write_loadings_csv
from fracctrl.invest import (
    InvestAdjoint,
    InvestConfig,
    InvestResult,
    cost_driver,
    run_experiment,
    write_adjoint_csv,
    write_wealth_csv,
)
from fracctrl.smp import solve_adjoint_pq

SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 5e-324]


def reference_wealth(result, path):
    with open(path, "w", newline="") as fh:
        fh.write("path_id,n,X,v\n")
        for i in range(result.state.n_paths):
            for n in range(result.state.horizon + 1):
                fh.write(
                    f"{i},{n},{result.state.values[i, n]:.17g},{result.controls[i, n]:.17g}\n"
                )


def reference_adjoint(adjoint, path):
    with open(path, "w", newline="") as fh:
        fh.write("n,p,q,k\n")
        for n in range(adjoint.truncation + 1):
            q_n = float(adjoint.q[n]) if n < adjoint.truncation else None
            p_n, k_n = float(adjoint.p[n]), float(adjoint.k[n])
            q_txt = f"{q_n:.17g}" if q_n is not None else ""
            fh.write(f"{n},{p_n:.17g},{q_txt},{k_n:.17g}\n")


def reference_solution(solution, path):
    with open(path, "w", newline="") as fh:
        fh.write("path_id,n,Y,Z\n")
        for i in range(solution.y.shape[0]):
            for n in range(solution.truncation + 1):
                z_txt = f"{solution.z[i, n]:.17g}" if n < solution.truncation else ""
                fh.write(f"{i},{n},{solution.y[i, n]:.17g},{z_txt}\n")


def reference_trajectory(state, path):
    xi = state.noise.xi
    with open(path, "w", newline="") as fh:
        fh.write("path_id,n,X,u,xi\n")
        for i in range(state.n_paths):
            for n in range(state.horizon):
                fh.write(
                    f"{i},{n},{state.values[i, n]:.17g},{state.controls[i, n]:.17g},{xi[i, n]:.17g}\n"
                )


def reference_loadings(system, path):
    with open(path, "w", newline="") as fh:
        fh.write("matrix,row,col,value\n")
        for name, mat in (("beta", system.beta), ("alpha", system.alpha), ("gamma", system.gamma)):
            rows, cols = np.nonzero(mat)
            for i, j in zip(rows, cols):
                fh.write(f"{name},{i},{j},{mat[i, j]:.17g}\n")


def floats(rng, shape, special):
    """Values over the whole exponent range; the special ones at both ends."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    if special:
        flat = out.reshape(-1)
        flat[: len(SPECIAL)] = SPECIAL
        flat[-len(SPECIAL) :] = SPECIAL
    return out


# Builders: an input whose table has n_paths x n_steps rows.
def wealth_input(rng, n_paths, n_steps, special):
    controls = floats(rng, (n_paths, n_steps), special)
    state = StatePath(floats(rng, (n_paths, n_steps), special), controls[:, :-1], None)
    return InvestResult(None, None, None, state, controls, None, None, None)


def adjoint_input(rng, n_paths, n_steps, special):
    n = n_paths * n_steps
    p, k = floats(rng, n, special), floats(rng, n, special)
    solution = BsdeSolution(
        y=p[None], z=floats(rng, (1, n - 1), special), lam=1.0, gamma_exp=2.0, backend="exact"
    )
    return InvestAdjoint(k=k, solution=solution)


def solution_input(rng, n_paths, n_steps, special):
    y, z = floats(rng, (n_paths, n_steps), special), floats(rng, (n_paths, n_steps - 1), special)
    return BsdeSolution(y=y, z=z, lam=1.0, gamma_exp=2.0, backend="exact")


def trajectory_input(rng, n_paths, n_steps, special):
    xi = floats(rng, (n_paths, n_steps), special)
    noise = NoiseEnsemble(seed=0, eta=xi, xi=xi)
    values = floats(rng, (n_paths, n_steps + 1), special)
    return StatePath(values, floats(rng, (n_paths, n_steps), special), noise)


def loadings_input(rng, n_paths, n_steps, special):
    """A system whose three matrices hold n_paths x n_steps nonzeros in all.

    gamma = I makes alpha vanish and gives N rows; beta has a unit diagonal
    (N rows) and the rest of the rows off it.  -0.0 is a zero entry and so
    has no row, in the reference as in the writer.
    """
    rows = n_paths * n_steps
    order = math.ceil((math.sqrt(1 + 4 * rows) - 1) / 2)  # order^2 + order >= rows
    beta = np.eye(order)
    off_diagonal = np.flatnonzero(~np.eye(order, dtype=bool))[: rows - 2 * order]
    beta.flat[off_diagonal] = floats(rng, off_diagonal.size, False)
    if special:
        beta.flat[off_diagonal[:4]] = SPECIAL[1:]
    return InnovationSystem(hurst=0.5, horizon=order, beta=beta, gamma=np.eye(order))


WRITERS = {
    "wealth": (write_wealth_csv, reference_wealth, wealth_input),
    "adjoint": (write_adjoint_csv, reference_adjoint, adjoint_input),
    "solution": (write_solution_csv, reference_solution, solution_input),
    "trajectory": (write_trajectory_csv, reference_trajectory, trajectory_input),
    "loadings": (write_loadings_csv, reference_loadings, loadings_input),
}

GRIDS = {
    "one path": (1, 12),
    "one chunk": (CHUNK_ROWS // 16, 16),
    "two chunks": (2 * CHUNK_ROWS // 16, 16),
    "off the chunk": (37, 29),
    "one long path": (1, CHUNK_ROWS + 5),
}


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs a writer may use, with shares down to one row.

    ``cpus(n)`` returns a list that collects the (shape, share bounds) of
    every table written in parallel from then on.
    """
    write_shares = _csv._write_shares
    shared = []

    def recording(fh, path, shape, columns, bounds):
        shared.append((shape, bounds))
        write_shares(fh, path, shape, columns, bounds)

    monkeypatch.setattr(_csv, "_write_shares", recording)
    monkeypatch.setattr(_csv, "MIN_SHARE_ROWS", 1)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        shared.clear()
        return shared

    return set_cpus


def assert_same_file(writer, reference, data, tmp_path):
    writer(data, tmp_path / "new.csv")
    reference(data, tmp_path / "reference.csv")
    new, want = (tmp_path / "new.csv").read_bytes(), (tmp_path / "reference.csv").read_bytes()
    assert new == want
    return want


@pytest.mark.parametrize("special", [False, True], ids=["plain", "special"])
@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("name", list(WRITERS))
def test_writer_matches_its_row_loop(name, grid, special, tmp_path, cpus):
    writer, reference, build = WRITERS[name]
    n_paths, n_steps = GRIDS[grid]
    data = build(np.random.default_rng(n_paths * n_steps), n_paths, n_steps, special)
    text = assert_same_file(writer, reference, data, tmp_path).decode()
    assert text.count("\n") == 1 + n_paths * n_steps
    if special and name != "loadings":
        for cell in ("-0", "nan", "inf", "-inf", "4.9406564584124654e-324"):
            assert f",{cell}," in text or f",{cell}\n" in text
    inside_path = inside_chunk = False
    for n in (1, 2, 3, 4):
        shared = cpus(n)
        assert assert_same_file(writer, reference, data, tmp_path).decode() == text
        assert all(len(bounds) == min(n, math.prod(shape)) + 1 for shape, bounds in shared)
        assert bool(shared) == (n > 1)
        for shape, bounds in shared:
            inside_path |= len(shape) == 2 and any(b % shape[1] for b in bounds)
            inside_chunk |= any(b % CHUNK_ROWS for b in bounds)
    assert inside_chunk
    assert inside_path or name in ("adjoint", "loadings")  # their tables have one axis


def test_writers_match_on_a_real_run(tmp_path):
    config = InvestConfig(hurst=0.3, horizon=30, paths=40, seed=2, consumption_times=(4, 9, 33))
    result = run_experiment(config)
    assert_same_file(write_wealth_csv, reference_wealth, result, tmp_path)
    assert_same_file(write_adjoint_csv, reference_adjoint, result.adjoint, tmp_path)
    assert_same_file(write_trajectory_csv, reference_trajectory, result.state, tmp_path)
    assert_same_file(write_loadings_csv, reference_loadings, result.system, tmp_path)
    cost = solve_truncated(
        cost_driver(config), result.state, None, config.horizon, config.lam, config.gamma_exp,
        control_values=result.controls,
    )
    assert_same_file(write_solution_csv, reference_solution, cost, tmp_path)
    adjoint = solve_adjoint_pq(0.01, 0.0, -1.0, 1.0, 10, 1.0, 2.0)
    assert_same_file(write_solution_csv, reference_solution, adjoint, tmp_path)


def test_loadings_match_at_the_cli_size(tmp_path, cpus):
    system = build_innovation_system(0.75, 256)
    want = assert_same_file(write_loadings_csv, reference_loadings, system, tmp_path)
    for n in (1, 2, 3, 4):
        shared = cpus(n)
        assert assert_same_file(write_loadings_csv, reference_loadings, system, tmp_path) == want
        assert [len(bounds) for _, bounds in shared] == ([n + 1] * 3 if n > 1 else [])


def failing_rows(action):
    """The row formatter, doing ``action(lo)`` first for every share but the first."""
    write_rows = _csv._write_rows

    def rows(fh, shape, columns, lo, hi):
        if lo > 0:
            action(lo)
        write_rows(fh, shape, columns, lo, hi)

    return rows


def raise_error(lo):
    raise RuntimeError(f"cannot format from row {lo}")


@pytest.mark.parametrize(
    "action, code", [(raise_error, 1), (lambda lo: os._exit(3), 3)], ids=["raises", "exits"]
)
def test_a_failed_share_is_raised_and_leaves_nothing_behind(action, code, tmp_path, cpus, monkeypatch):
    monkeypatch.setattr(_csv, "_write_rows", failing_rows(action))
    cpus(3)
    values = np.arange(12.0)
    with pytest.raises(ChildProcessError, match=f"rows 4 to 7 exited with code {code}$"):
        write_csv(tmp_path / "t.csv", "i,x", [((12,), [0, values])])
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == []


def test_a_failure_in_the_first_share_stops_the_children(tmp_path, cpus, monkeypatch):
    def first_fails(fh, shape, columns, lo, hi):
        if lo == 0:
            raise RuntimeError("cannot format the first share")
        time.sleep(60)

    monkeypatch.setattr(_csv, "_write_rows", first_fails)
    cpus(4)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="first share"):
        write_csv(tmp_path / "t.csv", "i,x", [((12,), [0, np.arange(12.0)])])
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == []


def test_one_share_without_sched_getaffinity(tmp_path, cpus, monkeypatch):
    shared = cpus(4)
    monkeypatch.delattr(os, "sched_getaffinity")
    write_csv(tmp_path / "t.csv", "i,x", [((12,), [0, np.arange(12.0)])])
    assert shared == []
    assert (tmp_path / "t.csv").read_text() == "i,x\n" + "".join(f"{i},{i}\n" for i in range(12))


def test_one_share_per_cpu_and_per_min_share_rows_begun(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    rows = _csv.MIN_SHARE_ROWS
    counts = [_csv._share_count(n) for n in (0, 1, rows, rows + 1, 3 * rows, 3 * rows + 1, 100 * rows)]
    assert counts == [1, 1, 1, 2, 3, 4, 4]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _csv._share_count(100 * rows) == 1


def test_a_nan_writes_nan_and_a_missing_value_writes_nothing(tmp_path):
    columns = [0, np.array([np.nan, 1.0, -0.0]), np.array([np.nan, 2.5])]
    write_csv(tmp_path / "t.csv", "i,a,b", [((3,), columns)])
    assert (tmp_path / "t.csv").read_text() == "i,a,b\n0,nan,nan\n1,1,2.5\n2,-0,\n"


def test_no_rows_writes_the_header(tmp_path):
    write_csv(tmp_path / "t.csv", "path_id,n,X", [((0, 5), [0, 1, np.empty((0, 5))])])
    assert (tmp_path / "t.csv").read_text() == "path_id,n,X\n"


def test_a_failed_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("previous\n")
    with pytest.raises(TypeError):
        _csv.write_json(path, {"a": 1.0, "b": object()})
    with pytest.raises(KeyError):
        write_csv(path, "i,x", [((3,), [0, np.zeros(3, dtype=complex)])])
    assert os.listdir(tmp_path) == ["r.json"]
    assert path.read_text() == "previous\n"


def test_a_finished_file_has_the_permissions_of_a_plain_open(tmp_path):
    write_csv(tmp_path / "t.csv", "i", [((3,), [0])])
    _csv.write_json(tmp_path / "r.json", {"a": 1})
    open(tmp_path / "plain", "w").close()
    modes = {name: os.stat(tmp_path / name).st_mode for name in ("t.csv", "r.json", "plain")}
    assert modes["t.csv"] == modes["r.json"] == modes["plain"]
    assert sorted(os.listdir(tmp_path)) == ["plain", "r.json", "t.csv"]
