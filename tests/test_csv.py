"""The three CSV writers, and write_csv on a backward solution's 2-D grid
and a trajectory's five columns, against the row loops they replaced, byte
for byte, and the float text against format(x, ".17g") itself.

Each reference below is the per-row loop a table was written with before all
of them shared one chunked helper; the helper must reproduce its file exactly on
a single path, on row counts at, beyond and off the chunk size, with a chunk
ending inside a path, and on the float values whose text is easiest to get
wrong.  The float text is also checked on raw bit patterns, exact decimal
ties and the floats next to every power of ten.
"""

import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracctrl import _csv
from fracctrl._csv import CHUNK_ROWS, write_csv
from fracctrl.backward import BsdeSolution, solve_truncated
from fracctrl.forward import StatePath
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


def solution_table(solution, path):
    """(path_id, n, Y, Z) of a solve in one write_csv table; Z is one step short."""
    write_csv(path, "path_id,n,Y,Z", [(solution.y.shape, [0, 1, solution.y, solution.z])])


def trajectory_table(state, path):
    """(path_id, n, X, u, xi) of a simulated state in one write_csv table."""
    columns = [0, 1, state.values, state.controls, state.noise.xi]
    write_csv(path, "path_id,n,X,u,xi", [(state.controls.shape, columns)])


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
    "solution": (solution_table, reference_solution, solution_input),
    "trajectory": (trajectory_table, reference_trajectory, trajectory_input),
    "loadings": (write_loadings_csv, reference_loadings, loadings_input),
}

GRIDS = {
    "one path": (1, 12),
    "one chunk": (CHUNK_ROWS // 16, 16),
    "two chunks": (2 * CHUNK_ROWS // 16, 16),
    "off the chunk": (37, 29),
    "one long path": (1, CHUNK_ROWS + 5),
    "a chunk ends inside a path": (CHUNK_ROWS // 10 + 3, 10),
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
    assert_same_file(trajectory_table, reference_trajectory, result.state, tmp_path)
    assert_same_file(write_loadings_csv, reference_loadings, result.system, tmp_path)
    cost = solve_truncated(
        cost_driver(config), result.state, None, config.horizon, config.lam, config.gamma_exp,
        control_values=result.controls,
    )
    assert_same_file(solution_table, reference_solution, cost, tmp_path)
    adjoint = solve_adjoint_pq(0.01, 0.0, -1.0, 1.0, 10, 1.0, 2.0)
    assert_same_file(solution_table, reference_solution, adjoint, tmp_path)


def test_loadings_match_at_the_cli_size(tmp_path):
    system = build_innovation_system(0.75, 256)
    assert_same_file(write_loadings_csv, reference_loadings, system, tmp_path)


def cells(values):
    """The cells write_csv gives a 1-D array, one per row."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.csv")
        write_csv(path, "x", [(values.shape, [values])])
        with open(path, newline="") as fh:
            return fh.read().split("\n")[1:-1]


def formatted(values):
    return [format(x, ".17g") for x in values.tolist()]


# Any float64 by its fields: sign, biased exponent (0 for zeros and
# subnormals, 2047 for infinities and NaNs) and mantissa, its ends included.
FLOAT_BITS = st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1),
    st.integers(0, 2047),
    st.one_of(st.integers(0, 2**52 - 1), st.sampled_from([0, 1, 2**52 - 1])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOAT_BITS, min_size=1, max_size=64))
def test_floats_match_format_on_raw_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert cells(values) == formatted(values)


def test_floats_match_format_on_random_bit_patterns():
    rng = np.random.default_rng(20191)
    values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    assert cells(values) == formatted(values)
    values = 10.0 ** rng.uniform(-323.5, 308.25, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    assert cells(values) == formatted(values)


def exact_ties(rng):
    """Floats whose exact decimal value has 18 significant digits, the last
    a 5, so that "%.17g" rounds them half to even: k * 2**-j for odd k with
    k * 5**j of 18 digits."""
    ties = []
    for j in range(2, 26):
        low, high = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        ties += [math.ldexp(k | 1, -j) for k in rng.integers(low, high, 50).tolist()]
    return np.array(ties)


def test_exact_decimal_ties_round_half_to_even():
    assert cells(np.array([1234567890123456.25, 1234567890123456.75])) == [
        "1234567890123456.2",
        "1234567890123456.8",
    ]
    ties = exact_ties(np.random.default_rng(5))
    for x in ties.tolist():  # each is an 18-digit tie
        digits = f"{x:.30e}".split("e")[0].replace(".", "").rstrip("0")
        assert len(digits) == 18 and digits.endswith("5")
    for values in (ties, -ties, np.nextafter(ties, np.inf), np.nextafter(ties, 0.0)):
        assert cells(values) == formatted(values)


def test_powers_of_ten_and_the_floats_next_to_them():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    for values in (powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)):
        assert cells(values) == formatted(values)
    edges = np.array(
        [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-5, 1e-4, 0.1, 0.5,
         1.0, 9999999999999998.0, 1e16, 99999999999999984.0, 1e17, 2.0**53, 2.0**60,
         1.7976931348623157e308]
    )
    for values in (edges, -edges):
        assert cells(values) == formatted(values)


def significant_bits(x):
    numerator = abs(x.as_integer_ratio()[0])
    return (numerator >> ((numerator & -numerator).bit_length() - 1)).bit_length() if x else 0


def test_the_scale_table_against_integer_arithmetic():
    tables = _csv._tables()
    hi, hi_hi, hi_lo, lo = (column.tolist() for column in tables.scale)
    for i in range(0, tables.decimal_exponent.size, 2):
        e = i // 2 + _csv._E_MIN
        e0 = int(tables.decimal_exponent[i])
        assert Fraction(10) ** e0 <= Fraction(2) ** (e - 1) < Fraction(10) ** (e0 + 1)
        bound = float(tables.next_power_of_ten[i])
        assert Fraction(math.nextafter(bound, 0.0)) < Fraction(10) ** (e0 + 1) <= Fraction(bound)
        for j in (i, i + 1):
            assert tables.decimal_exponent[j] == e0 + j - i
            exact = Fraction(2) ** e * Fraction(10) ** (16 - e0 - (j - i))
            assert abs(Fraction(hi[j]) + Fraction(lo[j]) - exact) <= exact * Fraction(2) ** -105
            assert (lo[j] == 0.0) == (Fraction(hi[j]) == exact)  # the fast path's exact ties
            assert hi_hi[j] + hi_lo[j] == hi[j]
            assert significant_bits(hi_hi[j]) <= 26 and significant_bits(hi_lo[j]) <= 26


def test_only_near_ties_and_non_finite_values_call_format(monkeypatch):
    calls = []

    def counting(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(_csv, "format", counting, raising=False)
    scales = 10.0 ** np.arange(-25, 25).repeat(1000)
    values = np.random.default_rng(3).standard_normal(scales.size) * scales
    # An exact tie rounds on the fast path where 10**(16 - E) is a float,
    # for E from -6 to 16, and is formatted by format() below.
    values[[10, 20, 30, 40]] = [np.nan, -np.inf, 1234567890123456.25, 2.0**-25]
    assert cells(values) == formatted(values)
    assert len(calls) < 10
    assert -np.inf in calls and 2.0**-25 in calls and 1234567890123456.25 not in calls


def test_integer_cells_match_percent_d(tmp_path):
    ints = np.array(
        [0, 7, -7, 10, -10, 9999, 10000, -99999, 12345678, 2**31, -(2**31) - 1, 10**18,
         -(10**18), 2**63 - 1, -(2**63)],
        dtype=np.int64,
    )
    write_csv(tmp_path / "t.csv", "i,v,w", [(ints.shape, [0, ints, ints[:3].astype(np.int32)])])
    want = "".join(f"{i},{v:d},{v if i < 3 else ''}\n" for i, v in enumerate(ints.tolist()))
    assert (tmp_path / "t.csv").read_text() == "i,v,w\n" + want


def test_a_narrow_integer_column_spanning_its_range(tmp_path):
    # -100..100 in int8 over 400 rows: formatted once per distinct value, so
    # the offsets from the low end must not wrap in int8 (100 - -100 = 200).
    ints = np.random.default_rng(5).integers(-100, 101, 400).astype(np.int8)
    ints[:2] = [-100, 100]
    write_csv(tmp_path / "t.csv", "v", [(ints.shape, [ints])])
    want = "".join(f"{v:d}\n" for v in ints.tolist())
    assert (tmp_path / "t.csv").read_text() == "v\n" + want


def test_a_failure_in_a_later_chunk_leaves_nothing_behind(tmp_path, monkeypatch):
    float_slots, calls = _csv._float_slots, []

    def fails_from_the_second_chunk(values):
        calls.append(values.size)
        if len(calls) % 2 == 0:
            raise RuntimeError("cannot format the second chunk")
        return float_slots(values)

    monkeypatch.setitem(_csv._SLOTS, "f", fails_from_the_second_chunk)
    values = np.arange(CHUNK_ROWS + 3.0)
    for previous in (None, "previous\n"):
        if previous is not None:
            (tmp_path / "t.csv").write_text(previous)
        with pytest.raises(RuntimeError, match="second chunk"):
            write_csv(tmp_path / "t.csv", "i,x", [(values.shape, [0, values])])
        assert os.listdir(tmp_path) == ([] if previous is None else ["t.csv"])
    assert calls == [CHUNK_ROWS, 3] * 2
    assert (tmp_path / "t.csv").read_text() == "previous\n"


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
