"""The four benchmark workloads, their key outputs and the checks on them.

An operation is one public call into fracctrl (for ``duality``, the public
chain of acceptance criterion 09).  It returns the wall time of the program
calls alone and the key outputs that ``check`` compares against
``reference.json``.  Calls go through module attributes, so the bindings that
the tracer patches are the ones used.  NOTES.md says why each workload is
sized the way it is.
"""

from __future__ import annotations

import hashlib
import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

from fracctrl import cli, forward, fracnoise, invest, smp

# Stated tolerances of the key outputs: against the reference values of the
# pinned seeds, and between repeats of one seed within a run.  Fractions may
# move by a few (path, step) entries under a different BLAS kernel; the means
# by rounding.  The duality sides come out of 72 least-squares fits.
TOLERANCES = {
    "min_bracket_product": ("abs", 1e-12),
    "floor_fraction": ("abs", 2e-5),
    "cap_fraction": ("abs", 2e-5),
    "interior_fraction": ("abs", 2e-5),
    "max_bound_violation": ("abs", 0.0),
    "terminal_wealth_mean": ("rel", 1e-9),
    "lhs": ("rel", 1e-7),
    "rhs": ("rel", 1e-7),
}


def _experiment_outputs(result) -> dict:
    stats = result.clamp_stats
    return {
        "passed": bool(result.check["passed"]),
        "min_bracket_product": float(result.check["min_bracket_product"]),
        "floor_fraction": stats["floor_fraction"],
        "cap_fraction": stats["cap_fraction"],
        "interior_fraction": stats["interior_fraction"],
        "max_bound_violation": stats["max_bound_violation"],
        "terminal_wealth_mean": float(np.mean(result.state.values[:, -1])),
    }


def _run_cli(argv: list) -> tuple:
    """Time ``cli.main(argv)``; return (seconds, outputs).

    The experiment result that the command computes is caught at the
    ``cli.run_experiment`` binding, since the command prints only a summary.
    """
    results = []
    run_experiment = cli.run_experiment

    def keep(*args, **kwargs):
        results.append(run_experiment(*args, **kwargs))
        return results[-1]

    cli.run_experiment = keep
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            start = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags by exiting
                code = exc.code
            elapsed = perf_counter() - start
    finally:
        cli.run_experiment = run_experiment
    outputs = {"exit_code": code}
    if code != 0:
        outputs["stderr"] = err.getvalue().strip()[-500:]
    if results:
        outputs.update(_experiment_outputs(results[0]))
    return elapsed, outputs


def wide(seed: int, work) -> tuple:
    return _run_cli(["smp-check", "--paths", "50000", "--N", "50", "--seed", str(seed)])


def deep(seed: int, work) -> tuple:
    config = invest.InvestConfig(hurst=0.25, paths=100, horizon=1700, seed=seed)
    start = perf_counter()
    result = invest.run_experiment(config)
    elapsed = perf_counter() - start
    return elapsed, _experiment_outputs(result)


def artifacts(seed: int, work) -> tuple:
    out = work / "invest"
    shutil.rmtree(out, ignore_errors=True)
    elapsed, outputs = _run_cli(
        ["invest", "--paths", "20000", "--N", "50", "--seed", str(seed), "--out", str(out)]
    )
    if out.is_dir():
        outputs["file_sha256"] = {}
        for path in sorted(out.iterdir()):
            with open(path, "rb") as fh:
                outputs["file_sha256"][path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
        shutil.rmtree(out)
    return elapsed, outputs


def duality(seed: int, work) -> tuple:
    config = invest.InvestConfig(
        consumption_times=tuple(range(2, 25, 2)),
        horizon=24,
        paths=100_000,
        lam=0.5,
        gamma_exp=1.2,
        hurst=0.75,
        seed=seed,
    )
    start = perf_counter()
    system = fracnoise.build_innovation_system(config.hurst, config.horizon + 1)
    noise = fracnoise.sample_ensemble(system, config.seed, config.paths, n_steps=config.horizon)
    adjoint = invest.solve_adjoint(config, truncation=config.horizon)
    coeffs = invest.coefficient_set(config)
    rule = invest.control_rule(config, system, adjoint)
    state = forward.simulate_state(coeffs, forward.ControlProcess(rule=rule), noise, config.x0)
    terminal_v = rule(config.horizon, state.values[:, -1], noise.xi)
    controls = np.hstack([state.controls, np.asarray(terminal_v)[:, None]])
    bracket = smp.bracket_values(
        coeffs, invest.cost_driver(config), state, adjoint.solution, adjoint.k, system,
        controls=controls,
    )
    chi = invest.consumption_indicator(config, config.horizon)
    caps = np.maximum(state.values * (1 - config.c * chi), 0.0)
    directions = 0.3 * caps - controls
    variation = forward.simulate_variation(coeffs, state, directions[:, :-1])
    f_u = config.beta_exp * config.risk_weight * controls ** (config.beta_exp - 1)
    variational = smp.solve_variational(
        -config.wealth_weight * chi, 0.5 * config.lam, 0.0, f_u, variation, directions,
        config.horizon, config.lam, config.gamma_exp, backend="regression", window=5, degree=2,
    )
    report = smp.duality_gap(bracket, directions, variational)
    elapsed = perf_counter() - start
    return elapsed, {"lhs": report["lhs"], "rhs": report["rhs"], "gap": report["gap"]}


# name -> (operation, paths, horizon); path_steps_per_s counts paths x (horizon + 1).
WORKLOADS = {
    "wide": (wide, 50_000, 50),
    "deep": (deep, 100, 1700),
    "artifacts": (artifacts, 20_000, 50),
    "duality": (duality, 100_000, 24),
}


def _close(key: str, value: float, ref: float) -> bool:
    kind, tol = TOLERANCES[key]
    return abs(value - ref) <= (tol if kind == "abs" else tol * abs(ref))


def check(workload: str, seed: int, outputs: dict, first: dict | None, reference: dict) -> list:
    """Problems with one operation's outputs; an empty list means it passed.

    ``first`` holds the outputs of the run's first operation at the same
    seed, which every repeat must reproduce.  ``reference`` is reference.json:
    exact values for its pinned seeds, and for every seed a range that the
    key outputs keep across seeds.
    """
    problems = []
    if outputs.get("exit_code", 0) != 0:
        problems.append(f"exit code {outputs['exit_code']}: {outputs.get('stderr', '')}")
    if outputs.get("passed") is False:
        problems.append("first-order check did not pass")
    if workload == "duality" and "gap" in outputs:
        if not outputs["gap"] < 1e-2:
            problems.append(f"duality gap {outputs['gap']:.3e} is not below 1e-2")
        if not abs(outputs["rhs"]) > 1e-3:
            problems.append(f"identity is vacuous: |rhs| = {abs(outputs['rhs']):.3e}")
    ref = reference[workload]
    exact = ref["seeds"].get(str(seed))
    for key, (lo, hi) in ref["range"].items():
        if key not in outputs:
            problems.append(f"{key} missing")
            continue
        value = outputs[key]
        if not lo <= value <= hi:
            problems.append(f"{key} = {value!r} outside the across-seed range [{lo!r}, {hi!r}]")
        if exact is not None and not _close(key, value, exact[key]):
            problems.append(f"{key} = {value!r} differs from the reference {exact[key]!r}")
        if first is not None and key in first and not _close(key, value, first[key]):
            problems.append(f"{key} = {value!r} differs from the run's first {first[key]!r}")
    if first is not None and outputs.get("file_sha256") != first.get("file_sha256"):
        problems.append("artifacts are not byte-identical to the run's first operation")
    return problems
