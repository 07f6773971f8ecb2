"""Command-line entry points.

Four subcommands cover the package end to end:

  noise-check    factor the fGn covariance and verify the identities
  bsde-converge  truncation convergence table for a backward equation
  smp-check      first-order optimality report for the investment rule
  invest         full investment experiment with CSV/plot outputs

Exit codes: 0 on success, 1 when a numerical check fails or a computation
breaks down, 2 on configuration errors (bad flags, malformed or unknown
config keys) and on failed file reads or writes, each under its own label.
Commands that write files also drop a JSON snapshot of the resolved
configuration next to the outputs, so a run can be reproduced from its
artifacts alone.  smp-check and invest gate on the exact box certificate of
the first-order inequality.  smp-check's --trials N adds to its report a
seeded witness of N random admissible controls, which never changes the
verdict; invest reports no witness, so it has no --trials.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional

import numpy as np

from ._csv import write_json
from .backward import DriverSpec, cauchy_diagnostic
from .errors import ContractError, NumericalError, require
from .fracnoise import build_innovation_system, write_loadings_csv
from .invest import InvestConfig, adjoint_tables, run_experiment
from .spaces import WeightedNormParams

__all__ = ["build_parser", "main"]


def _out_dir(args) -> Optional[Path]:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _directory(text: str) -> str:
    """An --out value: an empty one would name the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got an empty string")
    return text


def _within_memory(sizes: str, n_bytes: int) -> None:
    """Refuse a run whose arrays, ``n_bytes`` or more, exceed physical memory.

    ``sizes`` names the flags that set the arrays' sizes.  Nothing is refused
    where the platform does not report its memory.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if n_bytes > memory:
        raise ContractError(
            f"{sizes} needs at least {n_bytes} bytes of arrays, "
            f"more than the {memory} bytes of physical memory"
        )


def _invest_config(args) -> InvestConfig:
    """Resolve an InvestConfig from --config JSON plus flag overrides."""
    data = {}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # malformed JSON or text
                raise ContractError(f"config file {args.config} is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ContractError(f"config file must hold a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(InvestConfig)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ContractError(f"unknown config keys: {', '.join(unknown)}")
    overrides = {
        "hurst": args.hurst,
        "horizon": args.n,
        "paths": args.paths,
        "seed": args.seed,
        "lam": args.lambda_,
        "gamma_exp": args.gamma_exp,
    }
    data.update({k: v for k, v in overrides.items() if v is not None})
    config = InvestConfig(**data)
    # beta and gamma (N x N), then the four (paths x N or N + 1) grids a run
    # holds at its peak: the noise, its predictions, the wealth and the
    # controls; its blocks of steps are left out, so the count stays a lower
    # bound.  The adjoint's k, chi, b_x, f_x, p and q run to its truncation,
    # which consumption dates far past the horizon push out.
    n, paths, truncation = config.horizon, config.paths, config.adjoint_truncation()
    _within_memory(
        f"adjoint truncation {truncation}, --N {n} with --paths {paths}",
        8 * (2 * n * n + 4 * paths * (n + 1) + 6 * (truncation + 1)),
    )
    return config


def cmd_noise_check(args) -> int:
    require("tolerance", args.tolerance, float)
    if args.tolerance < 0:
        raise ContractError(f"tolerance must be >= 0, got {args.tolerance}")
    # beta, gamma, the identity and beta beta^T, N x N each.
    _within_memory(f"--N {args.n}", 8 * 4 * args.n * args.n)
    system = build_innovation_system(args.hurst, args.n)
    eye = np.eye(system.horizon)
    fact_err = float(np.max(np.abs(system.beta @ system.beta.T - system.covariance)))
    inv_err = float(np.max(np.abs(system.beta @ system.alpha - eye)))
    pred_weight = float(np.max(np.abs(system.gamma)))
    passed = fact_err <= args.tolerance and inv_err <= args.tolerance
    report = {
        "command": "noise-check",
        "hurst": system.hurst,
        "horizon": system.horizon,
        "tolerance": args.tolerance,
        "max_factorization_error": fact_err,
        "max_inverse_error": inv_err,
        "max_prediction_weight": pred_weight,
        "conditional_std_final": system.conditional_std(system.horizon - 1),
        "passed": passed,
    }
    print(f"fGn innovation system: H={system.hurst}, horizon={system.horizon}")
    print(f"max |beta beta^T - cov| = {fact_err:.3e}")
    print(f"max |beta alpha - I|    = {inv_err:.3e}")
    print(f"max prediction weight   = {pred_weight:.3e}")
    print("PASS" if passed else f"FAIL (tolerance {args.tolerance:g})")
    out = _out_dir(args)
    if out is not None:
        write_json(out / "noise_report.json", report)
        write_loadings_csv(system, out / "loadings.csv")
        print(f"wrote {out / 'noise_report.json'} and {out / 'loadings.csv'}")
    return 0 if passed else 1


def _converge_driver(args, n_top: int) -> DriverSpec:
    if args.model == "constant":
        c = args.driver_constant
        return DriverSpec(f=lambda n, x, y, z, u: c)
    # invest-adjoint: the deterministic (p, q) recursion of the investment
    # problem, solvable by the exact backend at any truncation.
    b_x, f_x, k = adjoint_tables(InvestConfig(lam=args.lambda_, gamma_exp=args.gamma_exp), n_top)
    return DriverSpec(f=lambda n, x, y, z, u: b_x[n] * y - f_x[n] * k[n])


def cmd_bsde_converge(args) -> int:
    require("driver_constant", args.driver_constant, float)
    try:
        n_list = sorted(int(part) for part in args.n_list.split(","))
    except ValueError:
        raise ContractError(f"--N-list must be comma-separated integers, got {args.n_list!r}") from None
    if len(n_list) < 2:
        raise ContractError(f"--N-list needs at least two levels, got {args.n_list!r}")
    # The top level's state, Y, Z and step grid, N + 1 floats each.
    _within_memory(f"--N-list {args.n_list}", 8 * 4 * (n_list[-1] + 1))
    params = WeightedNormParams(
        lam=args.lambda_,
        gamma_exp=args.gamma_exp,
        base_power=1.0,
        direction="backward",
        theta=args.theta,
    )
    driver = _converge_driver(args, n_list[-1])
    rows = cauchy_diagnostic(driver, None, None, n_list, params)
    print(f"{'N_low':>6} {'N_high':>7} {'norm_y':>13} {'norm_z':>13} {'tail':>13}")
    for row in rows:
        print(
            f"{row['n_low']:>6d} {row['n_high']:>7d} {row['norm_y']:>13.6e} "
            f"{row['norm_z']:>13.6e} {row['tail_term']:>13.6e}"
        )
    # Two truncations that see the same driver steps (below the first step
    # where the driver acts, or between two of its dates) solve to exactly
    # the same pair: such an all-zero row shows no growth, so it is skipped.
    norms = [row["norm_y"] for row in rows if not row["norm_y"] == row["norm_z"] == 0.0]
    decreasing = all(b < a for a, b in zip(norms, norms[1:]))
    print("PASS (differences shrink)" if decreasing else "FAIL (differences do not shrink)")
    out = _out_dir(args)
    if out is not None:
        write_json(
            out / "convergence.json",
            {
                "command": "bsde-converge",
                "model": args.model,
                "driver_constant": args.driver_constant,
                "lam": args.lambda_,
                "gamma_exp": args.gamma_exp,
                "theta": args.theta,
                "n_list": n_list,
                "rows": rows,
                "passed": decreasing,
            },
        )
        print(f"wrote {out / 'convergence.json'}")
    return 0 if decreasing else 1


def cmd_smp_check(args) -> int:
    config = _invest_config(args)
    result = run_experiment(config, n_trials=args.trials, tolerance=args.tolerance)
    steps = np.arange(1, result.adjoint.truncation + 1)
    k_closed = -((1 + config.lam / 2) ** (steps - 1.0))
    # relative error: the chain grows geometrically, so absolute ulps grow too
    k_err = float(np.max(np.abs((result.adjoint.k[1:] - k_closed) / k_closed)))
    max_q = float(np.max(np.abs(result.adjoint.q)))
    check = result.check
    passed = check["passed"] and max_q == 0.0 and k_err < 1e-12
    report = {
        "command": "smp-check",
        "config": asdict(config),
        "adjoint_truncation": result.adjoint.truncation,
        "max_q": max_q,
        "k_error": k_err,
        "check": check,
        "clamp_stats": result.clamp_stats,
        "passed": passed,
    }
    print(f"investment rule, H={config.hurst}, horizon={config.horizon}, paths={config.paths}")
    print(f"max |q|                 = {max_q:.3e}")
    print(f"max |k - closed form|   = {k_err:.3e}")
    print(
        f"box certificate         = {check['n_violations']} violations, "
        f"min product = {check['min_bracket_product']:.3e} at {check['min_index']}"
    )
    if check["min_trial_product"] is not None:
        print(
            f"trial witness           = {check['trials']} trials, "
            f"min product = {check['min_trial_product']:.3e}"
        )
    print("PASS" if passed else "FAIL")
    out = _out_dir(args)
    if out is not None:
        write_json(out / "smp_report.json", report)
        print(f"wrote {out / 'smp_report.json'}")
    return 0 if passed else 1


def cmd_invest(args) -> int:
    config = _invest_config(args)
    out = _out_dir(args)
    result = run_experiment(config, out_dir=out, tolerance=args.tolerance)
    terminal = result.state.values[:, -1]
    print(f"investment run, H={config.hurst}, horizon={config.horizon}, paths={config.paths}")
    print(f"terminal wealth mean    = {terminal.mean():.6g}, std = {terminal.std():.6g}")
    print(
        f"clamp fractions         = floor {result.clamp_stats['floor_fraction']:.3f}, "
        f"cap {result.clamp_stats['cap_fraction']:.3f}, "
        f"interior {result.clamp_stats['interior_fraction']:.3f}"
    )
    print(f"first-order check       = {'PASS' if result.check['passed'] else 'FAIL'}")
    if out is not None:
        print(f"wrote wealth.csv, adjoint.csv, config.resolved.json, plot_wealth.py in {out}")
    return 0 if result.check["passed"] else 1


def _add_invest_flags(sub) -> None:
    sub.add_argument("--config", type=str, default=None, help="JSON file of InvestConfig fields")
    sub.add_argument("--H", dest="hurst", type=float, default=None, help="Hurst index override")
    sub.add_argument("--N", dest="n", type=int, default=None, help="run horizon override")
    sub.add_argument("--paths", type=int, default=None, help="sample size override")
    sub.add_argument("--seed", type=int, default=None, help="base seed override")
    sub.add_argument("--lambda", dest="lambda_", type=float, default=None, help="discount rate override")
    sub.add_argument("--gamma-exp", dest="gamma_exp", type=float, default=None, help="discount exponent override")
    sub.add_argument("--tolerance", type=float, default=1e-8, help="bracket product tolerance")
    sub.add_argument("--out", type=_directory, default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracctrl",
        description="Discrete-time stochastic control driven by fractional Gaussian noise.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    noise = subs.add_parser("noise-check", help="verify the fGn innovation factorization")
    noise.add_argument("--H", dest="hurst", type=float, default=0.75, help="Hurst index")
    noise.add_argument("--N", dest="n", type=int, default=256, help="horizon (matrix order)")
    noise.add_argument("--tolerance", type=float, default=1e-10, help="identity tolerance")
    noise.add_argument("--out", type=_directory, default=None, help="output directory")
    noise.set_defaults(func=cmd_noise_check)

    conv = subs.add_parser("bsde-converge", help="truncation convergence table")
    conv.add_argument("--model", choices=("constant", "invest-adjoint"), default="constant")
    conv.add_argument("--driver-constant", type=float, default=1.0, help="driver value for the constant model")
    conv.add_argument("--lambda", dest="lambda_", type=float, default=0.3, help="discount rate")
    conv.add_argument("--gamma-exp", dest="gamma_exp", type=float, default=1.5, help="discount exponent")
    conv.add_argument("--theta", type=float, default=None, help="exponent-ladder parameter (optional)")
    conv.add_argument("--N-list", dest="n_list", type=str, default="4,8,16,32", help="comma-separated truncations")
    conv.add_argument("--out", type=_directory, default=None, help="output directory")
    conv.set_defaults(func=cmd_bsde_converge)

    smp = subs.add_parser("smp-check", help="first-order optimality report for the investment rule")
    _add_invest_flags(smp)
    smp.add_argument("--trials", type=int, default=0, help="random admissible controls drawn as a witness")
    smp.set_defaults(func=cmd_smp_check)

    inv = subs.add_parser("invest", help="run the investment experiment")
    _add_invest_flags(inv)
    inv.set_defaults(func=cmd_invest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ContractError, OSError) as exc:
        label = "configuration" if isinstance(exc, ContractError) else "file"
        print(f"{label} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
