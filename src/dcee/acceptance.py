"""Acceptance suite: one callable per criterion, shared by the CLI `check`
subcommand and the pytest acceptance module.

Each criterion runs at its stated tolerance on fixed seeds and returns a
CriterionResult; nothing here is tunable at call time.  Criteria 5 and 6
are the closed-loop claims: the loop finds the reward peak again after each
environment switch, and it beats both baselines.  Every criterion reports
its measured values clause by clause, so a failing clause shows by how much.
"""
from __future__ import annotations

import functools
import os
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import scenario_from_dict
from .core import objective, objective_grid, objective_split, residual_fn
from .diagnostics import (
    contraction_rate,
    derivative_audit,
    ggn_split,
    random_input,
    random_problem,
)
from .ensemble import condition_stats
from .errors import InfeasibleCandidateError, SolverFailureError
from .harness import bench_solver, drive, run_closed_loop
from .solver import GnConfig, controller_step, gn_step, scp_step, solve

AUDIT_SEED = 711
ORACLE_SEED = 1213


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index} ({self.name}): {self.detail}"


@functools.lru_cache(maxsize=None)
def _noise_free_run():
    return run_closed_loop(scenario_from_dict({"noise": {"sigma_reward": 0.0}}))


@functools.lru_cache(maxsize=None)
def _noisy_run(controller: str):
    return run_closed_loop(scenario_from_dict({"controller": {"type": controller}}))


def criterion_1_derivative_audit() -> CriterionResult:
    cfg = scenario_from_dict({})
    report = derivative_audit(cfg.vehicle, cfg.reward, samples=100, seed=AUDIT_SEED)
    ok = report.passed and report.elapsed_s < 5.0
    detail = (
        f"jacobian rel err {report.max_jacobian_rel_err:.2e}, "
        f"gradient rel err {report.max_gradient_rel_err:.2e}, "
        f"decomposition abs err {report.max_decomposition_abs_err:.2e}, "
        f"{report.samples} samples ({report.skipped} skipped) in {report.elapsed_s:.2f} s"
    )
    return CriterionResult(1, "derivative audit", ok, detail)


def criterion_2_decomposition() -> CriterionResult:
    rng = np.random.default_rng(ORACLE_SEED)
    worst = 0.0
    checked = 0
    while checked < 100:
        prob = random_problem(rng)
        u = random_input(rng, prob.vehicle)
        try:
            d = objective(prob, u)
            exploit, explore = objective_split(prob, u)
        except InfeasibleCandidateError:
            continue
        worst = max(worst, abs(d - (exploit + explore)))
        checked += 1
    ok = worst < 1e-10
    return CriterionResult(
        2, "exploit/explore decomposition", ok, f"max |D - (exploit+explore)| = {worst:.2e}"
    )


def criterion_3_gn_correctness() -> CriterionResult:
    # the step solve takes, gn_step with damping relative to J'J, against
    # stacked least squares with the equivalent absolute damping
    rng = np.random.default_rng(ORACLE_SEED + 1)
    worst_normal = 0.0
    worst_agree = 0.0
    min_jtj = np.inf
    for _ in range(50):
        m = int(rng.integers(2, 9))
        J = rng.standard_normal(m)
        F = rng.standard_normal(m)
        lam = float(rng.choice([0.0, 1e-6, 1e-3]))
        jtj = float(J @ J)
        jtf = float(J @ F)
        du = gn_step(jtf, jtj, lam)
        worst_normal = max(worst_normal, abs(jtj * (1.0 + lam) * du + jtf))
        du_scp = scp_step(F, J, lam * jtj)
        worst_agree = max(worst_agree, abs(du - du_scp) / (1.0 + abs(du)))
        min_jtj = min(min_jtj, jtj)
    for _ in range(50):
        prob = random_problem(rng)
        u = random_input(rng, prob.vehicle)
        try:
            _, _, jtj = residual_fn(prob)(u)
        except InfeasibleCandidateError:
            continue
        min_jtj = min(min_jtj, jtj)
    ok = worst_normal < 1e-10 and worst_agree < 1e-10 and min_jtj >= -1e-10
    detail = (
        f"normal-eq residual {worst_normal:.2e}, path agreement {worst_agree:.2e}, "
        f"min J'J {min_jtj:.2e}"
    )
    return CriterionResult(3, "Gauss-Newton step correctness", ok, detail)


def criterion_4_global_quality() -> CriterionResult:
    # at a random speed the minimum lies past an input bound, so every other
    # instance starts at the believed optimal speed, where it mostly does not
    rng = np.random.default_rng(ORACLE_SEED + 2)
    t0 = time.perf_counter()
    worst_rel = -np.inf
    solved = interior = 0
    while solved < 50:
        prob = random_problem(rng)
        if solved % 2:
            prob = prob._replace(v=condition_stats(prob.ensemble, prob.reward))
        u0 = random_input(rng, prob.vehicle)
        cfg = GnConfig(max_iters=60, tol=1e-10, u_min=prob.vehicle.u_min, u_max=prob.vehicle.u_max)
        try:
            u_star, _ = solve(residual_fn(prob), u0, cfg)
            obj_gn = objective(prob, u_star)
        except SolverFailureError:
            continue
        us = np.arange(prob.vehicle.u_min, prob.vehicle.u_max + 0.25, 0.5)
        grid_min = float(objective_grid(prob, us).min())
        worst_rel = max(worst_rel, (obj_gn - grid_min) / max(abs(grid_min), 1e-300))
        interior += cfg.u_min < u_star < cfg.u_max
        solved += 1
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and elapsed < 30.0
    detail = (
        f"worst (GN - grid)/grid = {worst_rel:.2e} over 50 instances "
        f"({interior} interior) in {elapsed:.1f} s"
    )
    return CriterionResult(4, "global-quality grid oracle", ok, detail)


def criterion_5_closed_loop_convergence() -> CriterionResult:
    res = _noise_free_run()
    bounds = [seg["t_start"] for seg in res.config["schedule"]] + [res.config["horizon_s"]]
    clauses = []
    ok = True
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg = [r for r in res.records if lo <= r.t < hi]
        tail = [r for r in seg if r.t >= lo + 60.0]
        v_err = max(abs(r.v - r.v_star_true) for r in tail)
        g_err = abs(seg[-1].gamma_mean_est - seg[-1].v_star_true)
        seg_ok = v_err < 0.1 and g_err < 0.1
        ok = ok and seg_ok
        clauses.append(f"[{lo:.0f}s: max|v-v*|={v_err:.3f}, |gmean-v*|={g_err:.3f}]")
    return CriterionResult(
        5, "noise-free closed-loop convergence", ok, " ".join(clauses) + " (limits 0.1 m/s)"
    )


def criterion_6_comparative_ordering() -> CriterionResult:
    m_num = _noisy_run("numerical_dcee").metrics
    m_grad = _noisy_run("grad_dcee").metrics
    m_esc = _noisy_run("esc").metrics
    checks = [
        ("Reg num<grad", m_num["regret"] < m_grad["regret"], m_num["regret"], m_grad["regret"]),
        ("Reg num<esc", m_num["regret"] < m_esc["regret"], m_num["regret"], m_esc["regret"]),
        ("IAE num<esc", m_num["iae_v"] < m_esc["iae_v"], m_num["iae_v"], m_esc["iae_v"]),
    ]
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name}: {str(passed)} ({a:.2f} vs {b:.2f})" for name, passed, a, b in checks)
    return CriterionResult(6, "comparative ordering vs baselines", ok, detail)


def criterion_7_local_rate() -> CriterionResult:
    # converged operating point: noise-free single-segment run settles at the
    # reward peak; perturb the warm start and watch the inner-iteration tail
    scenario = scenario_from_dict({"noise": {"sigma_reward": 0.0}, "horizon_s": 300.0,
                                   "schedule": [{"t_start": 0.0, "v_star": 25.0}]})
    gn_cfg = scenario.controller.solver
    prob, u_final = drive(scenario, lambda k, t, seg, r, p, u: controller_step(p, u, gn_cfg)[0])
    probe_cfg = replace(gn_cfg, max_iters=12, tol=1e-15)
    u_init = u_final + 200.0  # inside the box and feasible: the solve's iterate 0
    u_star, report = solve(residual_fn(prob), u_init, probe_cfg)
    # stopped after m steps, the deterministic solve returns its m-th iterate
    us = [u_init] + [solve(residual_fn(prob), u_init, replace(probe_cfg, max_iters=m))[0]
                     for m in range(1, report.iterations + 1)]
    tail = [abs(b - a) for a, b in zip(us, us[1:])][-3:]
    monotone = len(tail) == 3 and tail[0] > tail[1] > tail[2]
    alpha = contraction_rate(ggn_split(prob, u_star))
    ok = monotone and alpha < 1.0
    detail = (f"alpha = {alpha:.3e}, last step norms {[f'{s:.3e}' for s in tail]}, "
              f"monotone decreasing: {monotone}")
    return CriterionResult(7, "local contraction diagnostics", ok, detail)


def criterion_8_performance() -> CriterionResult:
    # warm up the numpy code paths so one-time costs stay out of the max
    _ = bench_solver(scenario_from_dict({"horizon_s": 1.0}))
    bench = bench_solver(scenario_from_dict({"horizon_s": 90.0}))
    t = bench["timing"]
    mean_ns = t["analytic_gn"]["mean_ns"]
    max_ns = t["analytic_gn"]["max_ns"]
    newton = t["fd_hessian_newton"]
    ok = mean_ns < 1e6 and max_ns < 5e6 and newton is not None and mean_ns < newton["mean_ns"]
    newton_text = (f"FD-Hessian Newton mean {newton['mean_ns']/1e6:.3f} ms" if newton
                   else "no FD-Hessian Newton solve completed")
    # a wall-clock max far above the thread-CPU one means a descheduled process
    detail = (
        f"analytic GN mean {mean_ns/1e6:.3f} ms / max {max_ns/1e6:.3f} ms "
        f"(thread CPU max {t['analytic_gn']['cpu_max_ns']/1e6:.3f} ms); {newton_text}"
    )
    return CriterionResult(8, "solver performance envelope", ok, detail)


def criterion_9_determinism() -> CriterionResult:
    from .cli import main as cli_main
    import yaml

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "scenario.yaml")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump({"horizon_s": 60.0}, fh)
        out_a = os.path.join(tmp, "a")
        out_b = os.path.join(tmp, "b")
        rc_a = cli_main(["run", cfg_path, "--out", out_a, "--format", "csv"])
        rc_b = cli_main(["run", cfg_path, "--out", out_b, "--format", "csv"])
        with open(os.path.join(out_a, "run.csv"), "rb") as fh:
            bytes_a = fh.read()
        with open(os.path.join(out_b, "run.csv"), "rb") as fh:
            bytes_b = fh.read()
    ok = rc_a == 0 and rc_b == 0 and bytes_a == bytes_b
    detail = f"two `run` invocations, {len(bytes_a)} bytes each, identical: {bytes_a == bytes_b}"
    return CriterionResult(9, "byte-identical CSV replay", ok, detail)


ALL_CRITERIA = (
    criterion_1_derivative_audit,
    criterion_2_decomposition,
    criterion_3_gn_correctness,
    criterion_4_global_quality,
    criterion_5_closed_loop_convergence,
    criterion_6_comparative_ordering,
    criterion_7_local_rate,
    criterion_8_performance,
    criterion_9_determinism,
)


def run_all() -> list:
    results = []
    for fn in ALL_CRITERIA:
        results.append(fn())
        print(results[-1].line())
    return results
