"""Time the production solve against two standard scipy solvers on the
default run's own per-step problems, and print the README's table.

    PYTHONPATH=src python scripts/standard_packages.py [configs/default.yaml]

The closed loop is driven by controller_step, as `dcee run` drives it.  On
every STRIDE-th step the same problem is also solved, from controller_step's
start, dcee.warm_start, and in the same input box, by

* scipy.optimize.least_squares: TRF on the residual F, with the analytic
  Jacobian and xtol = the solver's tol; F and J come from one
  dcee.evaluate per point;
* scipy.optimize.minimize_scalar(method="bounded") on the objective F'F
  of the solver's own callback, dcee.residual_fn, prepared once per
  problem, with xatol = tol (1 + |u0|), the solver's own step test at the
  start.

So each scipy solver pays the analytic solve's cost per point.

Each solve is timed on the thread's CPU clock, which a descheduled process
does not advance.  Objective agreement is (D(u) - D(u_gn)) / D(u_gn), with
D = dcee.objective and u_gn controller_step's input; a positive value means
the scipy solve ended worse.  scipy is not a dependency of dcee; only this
script imports it.
"""
from __future__ import annotations

import functools
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.optimize import least_squares, minimize_scalar

from dcee.config import load_config
from dcee.core import evaluate, objective, residual_fn, warm_start
from dcee.errors import InfeasibleCandidateError
from dcee.harness import drive
from dcee.solver import controller_step

STRIDE = 5
DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"


def _least_squares(problem, u0, tol):
    veh = problem.vehicle
    # (F, J) of the last point: jac asks at the points fun was given
    FJ = functools.lru_cache(maxsize=1)(lambda u: evaluate(problem, u))
    res = least_squares(lambda x: FJ(x[0])[0], [u0], jac=lambda x: FJ(x[0])[1][:, None],
                        bounds=([veh.u_min], [veh.u_max]), method="trf", xtol=tol)
    return float(res.x[0])


def _minimize_scalar(problem, u0, tol):
    veh = problem.vehicle
    terms = residual_fn(problem)

    def D(u):
        # an infeasible candidate is +inf, as objective_grid gives it
        try:
            return terms(u)[0]
        except InfeasibleCandidateError:
            return math.inf

    res = minimize_scalar(D, bounds=(veh.u_min, veh.u_max), method="bounded",
                          options={"xatol": tol * (1.0 + abs(u0))})
    return float(res.x)


SOLVERS = {"least_squares": _least_squares, "minimize_scalar": _minimize_scalar}


def compare(cfg):
    """{solver: {"us": thread-CPU µs per solve, "rel": objective agreement,
    "failures": count}} over the sampled steps, controller_step included."""
    tol = cfg.controller.solver.tol
    out = {name: {"us": [], "rel": [], "failures": 0}
           for name in ("controller_step", *SOLVERS)}

    def select(k, t, seg, r_meas, problem, u_prev):
        c0 = time.thread_time_ns()
        u, _ = controller_step(problem, u_prev, cfg.controller.solver)
        elapsed = time.thread_time_ns() - c0
        if k % STRIDE:
            return u
        out["controller_step"]["us"].append(elapsed / 1e3)
        u0 = warm_start(problem, u_prev)
        d_gn = objective(problem, u)
        for name, solver in SOLVERS.items():
            c0 = time.thread_time_ns()
            try:
                u_s = solver(problem, u0, tol)
            except InfeasibleCandidateError:
                out[name]["failures"] += 1
                continue
            out[name]["us"].append((time.thread_time_ns() - c0) / 1e3)
            out[name]["rel"].append((objective(problem, u_s) - d_gn) / max(abs(d_gn), 1e-300))
        return u

    drive(cfg, select)
    return out


def table(out) -> str:
    base = np.mean(out["controller_step"]["us"])
    lines = ["| solver | solves | mean µs | p50 µs | p99 µs | mean / controller_step "
             "| objective vs GN, relative |",
             "|---|---|---|---|---|---|---|"]
    for name, r in out.items():
        us = np.asarray(r["us"])
        rel = np.asarray(r["rel"])
        agree = (f"{rel.min():.1e} to {rel.max():.1e}" if rel.size else "")
        if r["failures"]:
            agree += f", {r['failures']} failed"
        lines.append(f"| `{name}` | {us.size} | {us.mean():.1f} | {np.percentile(us, 50):.1f} "
                     f"| {np.percentile(us, 99):.1f} | {us.mean() / base:.1f}x | {agree} |")
    return "\n".join(lines)


def main(argv):
    path = argv[1] if len(argv) > 1 else DEFAULT_CONFIG
    print(table(compare(load_config(path))))
    print(f"\nscipy {scipy.__version__}, numpy {np.__version__}, "
          f"Python {platform.python_version()}, every {STRIDE}th step of {Path(path).name}")


if __name__ == "__main__":
    main(sys.argv)
