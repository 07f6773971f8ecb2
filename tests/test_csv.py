"""The five CSV writers against the row loops they replaced, byte for byte.

Each reference below is the per-row loop a writer used before all of them
shared one chunked helper; the new writer must reproduce its file exactly on
a single path, on row counts at, beyond and off the chunk size, and on the
float values whose text is easiest to get wrong.
"""

import math

import numpy as np
import pytest

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


def assert_same_file(writer, reference, data, tmp_path):
    writer(data, tmp_path / "new.csv")
    reference(data, tmp_path / "reference.csv")
    new, want = (tmp_path / "new.csv").read_bytes(), (tmp_path / "reference.csv").read_bytes()
    assert new == want
    return want


@pytest.mark.parametrize("special", [False, True], ids=["plain", "special"])
@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("name", list(WRITERS))
def test_writer_matches_its_row_loop(name, grid, special, tmp_path):
    writer, reference, build = WRITERS[name]
    n_paths, n_steps = GRIDS[grid]
    data = build(np.random.default_rng(n_paths * n_steps), n_paths, n_steps, special)
    text = assert_same_file(writer, reference, data, tmp_path).decode()
    assert text.count("\n") == 1 + n_paths * n_steps
    if special and name != "loadings":
        for cell in ("-0", "nan", "inf", "-inf", "4.9406564584124654e-324"):
            assert f",{cell}," in text or f",{cell}\n" in text


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


def test_loadings_match_at_the_cli_size(tmp_path):
    system = build_innovation_system(0.75, 256)
    assert_same_file(write_loadings_csv, reference_loadings, system, tmp_path)


def test_a_nan_writes_nan_and_a_missing_value_writes_nothing(tmp_path):
    columns = [0, np.array([np.nan, 1.0, -0.0]), np.array([np.nan, 2.5])]
    write_csv(tmp_path / "t.csv", "i,a,b", [((3,), columns)])
    assert (tmp_path / "t.csv").read_text() == "i,a,b\n0,nan,nan\n1,1,2.5\n2,-0,\n"


def test_no_rows_writes_the_header(tmp_path):
    write_csv(tmp_path / "t.csv", "path_id,n,X", [((0, 5), [0, 1, np.empty((0, 5))])])
    assert (tmp_path / "t.csv").read_text() == "path_id,n,X\n"
