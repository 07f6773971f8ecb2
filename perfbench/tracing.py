"""Spans around fracctrl's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function at every module binding that
holds it (the modules import each other's functions by name, so patching the
defining module alone would miss the nested calls), and ``uninstall`` puts
the originals back.  Spans stay in memory as (name, start, end, parent, op)
and are written out when the benchmark ends.  A span's self time is its
duration minus that of its direct children; ``per_op`` sums self time and
the computed counts by name for each operation.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import defaultdict
from time import perf_counter

import numpy as np


def _build_bytes(args, out):
    arrays = (out.covariance, out.beta, out.alpha, out.gamma)
    return {"fracnoise.build_bytes": sum(a.nbytes for a in arrays)}


def _predict_next(args, out):
    prefix = np.asarray(args["prefix"])
    paths = prefix.shape[0] if prefix.ndim == 2 else 1
    return {"fracnoise.predict_calls": 1, "fracnoise.predict_flops": 2 * paths * prefix.shape[-1]}


def _prediction_matrix(args, out):
    paths, n_max = out.shape[0], out.shape[1] - 1
    # column n is a length-n dot product per path: 2 * paths * sum(1..n_max)
    return {"fracnoise.predict_calls": 1, "fracnoise.predict_flops": paths * n_max * (n_max + 1)}


def _forward_steps(args, out):
    return {"forward.steps": out.horizon}


def _fit(args, out):
    paths = np.shape(args["targets"])[0]
    if args["backend"] == "exact":
        columns = 1
    else:  # monomials of total degree <= d in w features: C(w + d, d)
        columns = math.comb(np.shape(args["features"])[1] + args["degree"], args["degree"])
    return {"backward.fit_calls": 1, "backward.fit_rows": paths * columns}


def _check(args, out):
    shape = np.broadcast_shapes(
        *(np.shape(args[k]) for k in ("bracket", "u_star", "lower", "upper"))
    )
    return {
        "smp.check_entries": args["n_trials"] * math.prod(shape),
        "smp.check_violations": out["n_violations"],
    }


def _write_bytes(args, out):
    return {"invest.write_bytes": sum(p.stat().st_size for p in args["result"].out_dir.iterdir())}


# (module, function, span name, counts from the bound arguments and result).
# invest.control_rule is handled apart: its span covers the rule it returns.
# Helpers called only from a function of their own span name, such as
# smp.necessary_bracket, are left unwrapped: a span would not move any total.
TRACED = [
    ("fracnoise", "build_innovation_system", "fracnoise.build", _build_bytes),
    ("fracnoise", "sample_ensemble", "fracnoise.sample", None),
    ("fracnoise", "predict_next", "fracnoise.predict", _predict_next),
    ("fracnoise", "prediction_matrix", "fracnoise.predict", _prediction_matrix),
    ("forward", "simulate_state", "forward.simulate", _forward_steps),
    ("forward", "simulate_variation", "forward.simulate", _forward_steps),
    ("backward", "conditional_expectation", "backward.fit", _fit),
    ("backward", "solve_truncated", "backward.solve", None),
    ("smp", "solve_adjoint_k", "smp.adjoint", None),
    ("smp", "solve_adjoint_pq", "smp.adjoint", None),
    ("smp", "bracket_values", "smp.bracket", None),
    ("smp", "check_necessary_condition", "smp.check", _check),
    ("smp", "solve_variational", "smp.variational", None),
    ("invest", "run_experiment", "invest.experiment", None),
    ("invest", "_write_outputs", "invest.write", _write_bytes),
    ("cli", "main", "cli.self", None),
]

# The span the harness opens around each whole operation.
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> fracctrl submodule
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = []  # (op id, name, value)
        self.op = None
        self._stack = []
        self._patches = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counts=None):
        signature = inspect.signature(fn) if counts is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counts(bound.arguments, out).items():
                    self.counts.append((self.op, key, value))
            return out

        return traced

    def _patch(self, original, replacement) -> None:
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Replace every traced function at each binding that holds it."""
        for module, name, span, counts in TRACED:
            original = getattr(self.modules[module], name)
            self._patch(original, self.wrap(original, span, counts))
        control_rule = self.modules["invest"].control_rule

        @functools.wraps(control_rule)
        def traced_control_rule(*args, **kwargs):
            return self.wrap(control_rule(*args, **kwargs), "invest.rule")

        self._patch(control_rule, traced_control_rule)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def run(self, op: int, fn, *args):
        """Call ``fn(*args)`` as traced operation ``op`` under an OP_SPAN span."""
        self.op = op
        self.install()
        index = self._open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)
            self.uninstall()
            self.op = None

    def per_op(self) -> dict:
        """op id -> {"<span>_s": self seconds, "<count>": total} over that op."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals = defaultdict(lambda: defaultdict(int))
        for (name, start, end, parent, op), inner in zip(self.spans, children):
            totals[op][name + "_s"] += (end - start) - inner
        for op, key, value in self.counts:
            totals[op][key] += value
        return {op: dict(values) for op, values in totals.items()}

    def records(self, origin: float) -> list:
        """Spans as dicts with times in seconds from ``origin``."""
        return [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
