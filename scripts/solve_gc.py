"""Count the garbage collections that start inside an input selection of the
closed loop, and time every selection on the thread's CPU clock.

    PYTHONPATH=src python scripts/solve_gc.py [configs/default.yaml]

One 10 s run warms the interpreter up.  Then RUNS runs of the configured
controller each wrap its selection (harness.controller_step,
grad_dcee_step or esc_step) and print one JSON line: the collections that
started inside a selection and in the whole run (counted with
gc.callbacks), and the max and p99.9 of the selections' thread CPU time in
us, which a descheduled process does not advance.  The garbage collector
keeps its thresholds; nothing here changes them.
"""
from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from dcee import harness, load_config, scenario_from_dict

# seed_table.py sits beside this script
sys.path.insert(0, str(Path(__file__).resolve().parent))
from seed_table import DEFAULT_CONFIG

RUNS = 3
SELECTORS = {"numerical_dcee": "controller_step", "grad_dcee": "grad_dcee_step", "esc": "esc_step"}


def measure(cfg) -> dict:
    """One closed loop of cfg with its selection wrapped: the collections
    started inside a selection and in all, and the selections' thread CPU
    max and p99.9 in us."""
    name = SELECTORS[cfg.controller.type]
    select = getattr(harness, name)
    inside = False
    counts = {"inside": 0, "all": 0}
    cpu_ns = []

    def on_gc(phase, info):
        if phase == "start":
            counts["all"] += 1
            counts["inside"] += inside

    def timed(*args):
        nonlocal inside
        inside = True
        t0 = time.thread_time_ns()
        try:
            return select(*args)
        finally:
            cpu_ns.append(time.thread_time_ns() - t0)
            inside = False

    setattr(harness, name, timed)
    gc.callbacks.append(on_gc)
    try:
        harness.run_closed_loop(cfg)
    finally:
        gc.callbacks.remove(on_gc)
        setattr(harness, name, select)
    us = np.array(cpu_ns) / 1e3
    return {"gc_in_selection": counts["inside"], "gc_total": counts["all"],
            "select_cpu_max_us": round(float(us.max()), 1),
            "select_cpu_p999_us": round(float(np.percentile(us, 99.9)), 1)}


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else DEFAULT_CONFIG
    cfg = load_config(path)
    harness.run_closed_loop(scenario_from_dict({**cfg.raw, "horizon_s": 10.0}))
    for _ in range(RUNS):
        print(json.dumps(measure(cfg)), flush=True)


if __name__ == "__main__":
    main()
