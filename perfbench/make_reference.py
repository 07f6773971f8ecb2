#!/usr/bin/env python3
"""Write perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

For each workload it runs one operation at each pinned seed (the default and
the held-out seed) and at CALIBRATION_SEEDS.  The pinned seeds' key outputs
become exact reference values, checked to the tolerances in workloads.py.
Over all seeds, each key output gets an across-seed range: the mean plus or
minus RANGE_SIGMAS sample standard deviations, and at least the stated
tolerance.  Only regenerate it when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys

from run import DEFAULT_SEED, HELD_OUT_SEED, HERE, OUT, SRC, WORKLOAD_NAMES

CALIBRATION_SEEDS = range(1, 9)
RANGE_SIGMAS = 8


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    reference = {}
    work = OUT / "work-reference"
    work.mkdir(parents=True, exist_ok=True)
    for name in WORKLOAD_NAMES:
        op = workloads.WORKLOADS[name][0]
        outputs = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED, *CALIBRATION_SEEDS):
            outputs[seed] = op(seed, work)[1]
            print(name, seed, {k: v for k, v in outputs[seed].items() if k != "file_sha256"}, flush=True)
        keys = [k for k in outputs[DEFAULT_SEED] if k in workloads.TOLERANCES]
        ranges = {}
        for key in keys:
            values = [out[key] for out in outputs.values()]
            center = statistics.fmean(values)
            kind, tol = workloads.TOLERANCES[key]
            floor = tol if kind == "abs" else tol * abs(center)
            half = max(RANGE_SIGMAS * statistics.stdev(values), floor)
            ranges[key] = [center - half, center + half]
        reference[name] = {
            "seeds": {str(s): {k: outputs[s][k] for k in keys} for s in (DEFAULT_SEED, HELD_OUT_SEED)},
            "range": ranges,
        }
    shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
