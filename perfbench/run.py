"""Closed-loop eco-cruising benchmark for dcee.

    python3 perfbench/run.py --workload noisy_default --seed 0 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) in this process on one
thread, repeating whole passes of it for about --seconds seconds, checks the
outputs, prints every metric by name with its unit and, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with only the step-start
and input-selection probes installed.  --trace 1 runs one untraced reference
pass, then traced passes, and reports the per-layer metrics; the spans are
written to .perfbench_out/trace-<workload>.npz when the run ends.

Exit status: 0 when every check passed, 1 when an output check failed (the
result line then reads "correct": false), 2 when the benchmark cannot run
(no dcee sources next to it, or a wrapped name is gone from dcee).
"""
from __future__ import annotations

import os

# one thread: the closed loop is serial, and a BLAS pool would only add noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# set-up is measured in this many fresh interpreters, about half before and
# half after the loops; the median is reported
SETUP_REPEATS = 7
# untraced passes per run, at least: the repeat check compares them
MIN_PASSES = 2
# relative slack of the descent check (objective_grid vs the fused residual)
DESCENT_RTOL = 1e-9

UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_us_p50": "us",
    "step_us_p99": "us",
    "select_us_p50": "us",
    "select_us_p99": "us",
    "peak_rss_mb": "MB",
    "regret": "reward",
    "iae_v": "m/s",
    "e_v": "m/s",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here."""


def import_dcee():
    """Import dcee from the sources next to the benchmark, never from an
    installed copy, so that the numbers belong to this checkout."""
    if not (SRC / "dcee" / "__init__.py").is_file():
        raise BenchmarkError(f"no dcee sources at {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import dcee

    if Path(dcee.__file__).resolve().parent != (SRC / "dcee").resolve():
        raise BenchmarkError(f"imported dcee from {dcee.__file__}, not from {SRC}")
    return dcee


_SETUP_SNIPPET = """\
import sys, time
t0, c0 = time.perf_counter(), time.process_time()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.scenarios({workload!r}, {seed!r}, {horizon!r})
print(repr(time.process_time() - c0), repr(time.perf_counter() - t0))
"""


def measure_setup(workload: str, seed: int, horizon_s, repeats: int) -> list:
    """(CPU, wall) seconds to import dcee and load and validate the
    workload's configs, each in a fresh interpreter (the import is cached
    after the first).  Not normalized: start-up work does not slow down
    with the calibration kernel (calib.py)."""
    code = _SETUP_SNIPPET.format(src=str(SRC), here=str(HERE), workload=workload,
                                 seed=seed, horizon=horizon_s)
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchmarkError("set-up probe failed:\n" + proc.stderr[-2000:])
        cpu_s, wall_s = (float(x) for x in proc.stdout.split()[-2:])
        times.append((cpu_s, wall_s))
    return times


class Checks:
    """Output checks; any failure makes the run incorrect."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, msg: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(msg)


def _trajectory_digest(records, metrics) -> str:
    import numpy as np

    arr = np.array([(r.t, r.v, r.u, r.v_star_true, r.gamma_mean_est, r.exploit,
                     r.explore, r.reward_meas, r.iterations) for r in records], dtype=float)
    h = hashlib.sha256(arr.tobytes())
    h.update(repr(sorted((k, float(v)) for k, v in metrics.items())).encode())
    return h.hexdigest()


def _check_loop(cfg, result, rec, checks: Checks, tag: str) -> None:
    import numpy as np

    n = cfg.n_steps
    records = result.records
    if len(records) != n or rec.steps_in_loop != n:
        checks.fail(f"{tag}: {len(records)} records and {rec.steps_in_loop} probed steps, expected {n}")
    u = np.array([r.u for r in records])
    split = np.array([(r.exploit, r.explore) for r in records]).reshape(-1, 2)
    vmin, vmax = cfg.vehicle.u_min, cfg.vehicle.u_max
    bad_u = ~(np.isfinite(u) & (u >= vmin) & (u <= vmax))
    if bad_u.any():
        k = int(np.argmax(bad_u))
        checks.fail(f"{tag}: {int(bad_u.sum())} inputs outside [{vmin}, {vmax}], first u={u[k]!r} at step {k}")
    flags = np.frombuffer(bytes(rec.fallback_flags), dtype=np.uint8)[: len(records)].astype(bool)
    failed = bad_u | np.isnan(split).any(axis=1)
    failed[: flags.size] |= flags
    checks.failed += int(failed.sum())
    for name, value in result.metrics.items():
        if not math.isfinite(float(value)):
            checks.fail(f"{tag}: closed-loop metric {name} = {value!r} is not finite")


def run_pass(probes, scenario_list, checks: Checks, tag: str) -> dict:
    """One pass of the workload: every scenario once, in order."""
    from probes import SolverHealth

    rec = probes.rec
    rec.health = SolverHealth(max(c.controller.solver.max_iters for c in scenario_list))
    quality = {"regret": [], "iae_v": [], "e_v": []}
    digests = []
    controllers: dict = {}
    t0 = time.perf_counter()
    for i, cfg in enumerate(scenario_list):
        loop_tag = f"{tag} loop {i} ({cfg.controller.type}, noise seed {cfg.noise.seed})"
        try:
            result = probes.run_loop(cfg)
        except Exception as exc:
            checks.attempted += rec.steps_in_loop
            checks.failed += 1
            checks.fail(f"{loop_tag}: raised {type(exc).__name__}: {exc}")
            raise
        checks.attempted += rec.steps_in_loop
        _check_loop(cfg, result, rec, checks, loop_tag)
        for key in quality:
            quality[key].append(float(result.metrics[key]))
        digests.append(_trajectory_digest(result.records, result.metrics))
        ctype = cfg.controller.type
        controllers[ctype] = controllers.get(ctype, 0) + cfg.n_steps
    return {
        "wall_s": time.perf_counter() - t0,
        # read after each pass, so that pass 0's value does not grow with the
        # number of steps recorded in later passes
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": {k: statistics.fmean(v) for k, v in quality.items()},
        "signature": (tuple(digests), rec.health.as_tuple()),
        "health": rec.health,
        "controllers": controllers,
    }


def run_passes(probes, scenario_list, checks, seconds, min_passes, t_start, tag):
    """Whole passes until about `seconds` after t_start have gone: stop when
    the next pass would end further past the deadline than short of it."""
    passes = []
    while True:
        passes.append(run_pass(probes, scenario_list, checks, f"{tag} pass {len(passes)}"))
        elapsed = time.perf_counter() - t_start
        if len(passes) >= min_passes and elapsed + passes[-1]["wall_s"] / 2 >= seconds:
            return passes


def check_descent(samples, checks: Checks) -> None:
    """The GN solve only accepts steps that do not raise the objective, so the
    selected input must score no worse than the warm start.  Re-scored with
    objective_grid, a path independent of the solver's fused residual."""
    import numpy as np
    from dcee.core import objective_grid

    for problem, u_prev, u, cfg, fallback in samples:
        if fallback:
            continue
        u0 = min(max(float(u_prev), cfg.u_min), cfg.u_max)
        d0, d1 = objective_grid(problem, np.array([u0, u]))
        if not d1 <= d0 * (1.0 + DESCENT_RTOL) + 1e-15:
            checks.fail(f"selected u={u!r} scores {d1!r} > {d0!r} at the warm start {u0!r}")


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def check_single_threaded(children_cpu_before: float) -> None:
    """The clock and the normalization see only this thread (calib.py)."""
    import threading

    task_dir = Path("/proc/self/task")
    threads = len(list(task_dir.iterdir())) if task_dir.is_dir() else threading.active_count()
    if threads != 1 or threading.active_count() != 1:
        raise BenchmarkError(f"the program left {threads} threads running; the benchmark "
                             "measures one thread's CPU clock and needs a single-threaded program")
    if _children_cpu() != children_cpu_before:
        raise BenchmarkError("the program ran child processes, whose work the benchmark cannot see")


def check_repeats(passes, reference, checks: Checks, what: str) -> None:
    for i, p in enumerate(passes):
        if p["signature"] != reference["signature"]:
            checks.fail(f"{what} pass {i}: trajectory, closed-loop metrics or solver "
                        "counts differ from the reference pass of the same seed")


def speed(rec, scaled: bool = True) -> dict:
    """Throughput and latency percentiles of the recorded steps, normalized
    to the reference host speed (see calib.py) unless scaled is False.

    Percentiles are taken per controller and averaged over controllers: a
    percentile of the mixed steps of two controllers falls in the gap
    between their modes, where it is ill-conditioned."""
    import numpy as np

    step = np.frombuffer(rec.step_ns, dtype=np.int64).astype(float)
    select = np.frombuffer(rec.select_ns, dtype=np.int64).astype(float)
    between = np.frombuffer(rec.between_ns, dtype=np.int64).astype(float)
    if not step.size == select.size == between.size == sum(n for _, n in rec.loops):
        raise BenchmarkError(f"{step.size} steps but {select.size} input selections")
    if scaled:
        scale = rec.step_scales()
        step, select, between = step * scale, select * scale, between * scale
    kinds = np.repeat([k for k, _ in rec.loops], [n for _, n in rec.loops])
    per_kind = []
    for kind in sorted(set(kinds)):
        mine = kinds == kind
        per_kind.append((*np.percentile(step[mine], [50, 99]), *np.percentile(select[mine], [50, 99])))
    p = np.mean(per_kind, axis=0) / 1e3
    return {
        "steps_per_s": step.size / ((step.sum() + between.sum()) / 1e9),
        "step_us_p50": float(p[0]),
        "step_us_p99": float(p[1]),
        "select_us_p50": float(p[2]),
        "select_us_p99": float(p[3]),
    }


def end_to_end(rec, passes, setup_times) -> dict:
    values = {"setup_s": statistics.median(cpu for cpu, _ in setup_times)}
    values.update(speed(rec))
    values["peak_rss_mb"] = passes[0]["peak_rss_mb"]
    values.update(passes[0]["quality"])
    return values


def per_layer(rec, passes, untraced_steps_per_s: float) -> dict:
    """Per-layer metrics of the traced passes: name -> (value, unit)."""
    import probes as pb

    names, self_ns, counts = pb.self_times(rec)
    idx = {n: i for i, n in enumerate(names)}
    steps = len(rec.step_ns)

    def self_us(name):
        return float(self_ns[idx[name]]) / 1e3 if name in idx else 0.0

    def calls(name):
        return int(counts[idx[name]]) if name in idx else 0

    def per_call(name, scale):
        return self_us(name) / calls(name) * scale if calls(name) else 0.0

    solves = sum(p["health"].solves for p in passes)
    conv = sum(p["health"].converged for p in passes)
    esc = sum(p["health"].escalations for p in passes)
    fb = sum(p["health"].fallbacks for p in passes)
    its = sum(p["health"].iterations for p in passes)
    traced_steps_per_s = speed(rec)["steps_per_s"]
    m = {
        "core.residual_eval.us_per_call": (per_call(pb.RESIDUAL_EVAL, 1.0), "us"),
        "core.residual_eval.calls_per_step": (calls(pb.RESIDUAL_EVAL) / steps, "count"),
        "core.residual_prepare.us_per_step": (self_us(pb.RESIDUAL_PREPARE) / steps, "us"),
        "solver.controller_step.us_per_step": (self_us("solver.controller_step") / steps, "us"),
        "solver.iterations_mean": (its / solves if solves else 0.0, "count"),
        "solver.converged_frac": (conv / solves if solves else 0.0, "fraction"),
        "solver.escalations_per_solve": (esc / solves if solves else 0.0, "count"),
        "solver.fallback_frac": (fb / solves if solves else 0.0, "fraction"),
        "harness.run_closed_loop.us_per_step": ((self_us(pb.STEP) + self_us(pb.RUN)) / steps, "us"),
        "harness.compute_metrics.s": (per_call("harness.compute_metrics", 1e-6), "s"),
        "config.scenario_from_dict.ms": (per_call(pb.SCENARIO, 1e-3), "ms"),
        "ensemble.init_ensemble.ms": (per_call("ensemble.init_ensemble", 1e-3), "ms"),
        "tracing.slowdown": (untraced_steps_per_s / traced_steps_per_s, "ratio"),
    }
    for layer in ("core.objective_split", "reward.optimal_condition", "plant.measure",
                  "plant.plant_step", "plant.active_segment", "ensemble.measured_update",
                  "ensemble.condition_stats", "baselines.grad_dcee_step", "baselines.esc_step"):
        m[f"{layer}.us_per_step"] = (self_us(layer) / steps, "us")
    return m


def _health_lines(passes) -> list:
    h = passes[0]["health"]
    if not h.solves:
        return []
    hist = " ".join(f"{i}:{c}" for i, c in enumerate(h.histogram) if c)
    return [f"solver health per pass: {h.solves} solves, {h.converged} converged "
            f"({h.converged / h.solves:.4f}), {h.escalations} escalations, {h.fallbacks} fallbacks, "
            f"mean iterations {h.iterations / h.solves:.3f}",
            f"iteration histogram (iterations:solves): {hist}"]


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  horizon_s=None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the result object plus a "report" with the
    human-readable lines.  Raises BenchmarkError or probes.ProbeError when
    the benchmark cannot run."""
    import_dcee()
    import calib
    import probes as pb
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    checks = Checks()
    # set-up runs before and after the loops, so that they meet more host states
    setup_first = 0 if trace else (setup_repeats + 1) // 2
    setup_times = measure_setup(workload, seed, horizon_s, setup_first)

    children = _children_cpu()
    t_start = time.perf_counter()
    plain = pb.Recorder(traced=False)
    try:
        with pb.Probes(plain) as probes:
            scenario_list = workloads.scenarios(workload, seed, horizon_s)
            if trace:
                passes = [run_pass(probes, scenario_list, checks, "untraced reference")]
            else:
                passes = run_passes(probes, scenario_list, checks, seconds,
                                    MIN_PASSES, t_start, "untraced")
        loops = len(scenario_list) * len(passes)
        pb.check_fired(plain, {k: v * len(passes) for k, v in passes[0]["controllers"].items()}, loops)
        check_repeats(passes, passes[0], checks, "untraced")
        check_descent(plain.descent_samples, checks)
        if trace:
            rec = pb.Recorder(traced=True)
            with pb.Probes(rec) as probes:
                scenario_list = workloads.scenarios(workload, seed, horizon_s)
                traced = run_passes(probes, scenario_list, checks, seconds, 1, t_start, "traced")
            loops = len(scenario_list) * len(traced)
            pb.check_fired(rec, {k: v * len(traced) for k, v in traced[0]["controllers"].items()}, loops)
            check_repeats(traced, passes[0], checks, "traced")
            check_descent(rec.descent_samples, checks)
        check_single_threaded(children)
    except (pb.ProbeError, BenchmarkError):
        raise
    except Exception:
        if not checks.failures:
            raise
        return _result(checks, {}, [f"run aborted: {checks.failures[-1]}"])
    if not trace:
        setup_times += measure_setup(workload, seed, horizon_s, setup_repeats - setup_first)

    lines = [f"workload {workload}: seed {seed}, {len(scenario_list)} closed loop(s) per pass, "
             f"noise seeds {[c.noise.seed for c in scenario_list][:4]}{' ...' if len(scenario_list) > 4 else ''}"]
    if trace:
        untraced_sps, traced_sps = speed(plain)["steps_per_s"], speed(rec)["steps_per_s"]
        values = per_layer(rec, traced, untraced_sps)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}.npz"
        pb.save_spans(rec, trace_path, workload=workload, seed=seed)
        lines.append(f"traced: {len(traced)} pass(es), {len(rec.step_ns)} steps, {len(rec.span_start)} "
                     f"spans written to {trace_path.relative_to(ROOT)}")
        lines.append(f"tracing overhead: {traced_sps:.1f} steps/s traced against "
                     f"{untraced_sps:.1f} untraced (normalized)")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        lines += _health_lines(traced)
    else:
        values = end_to_end(plain, passes, setup_times)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        raw = speed(plain, scaled=False)
        kernel = sorted(plain.kernel_ns)
        lines.append(f"untraced: {len(passes)} pass(es), {len(plain.step_ns)} steps, "
                     f"{len(plain.select_ns)} selections, {len(setup_times)} set-up runs")
        lines.append(f"host speed: calibration kernel median {kernel[len(kernel) // 2] / 1e3:.1f} us "
                     f"over {len(kernel)} runs, reference {calib.REF_NS / 1e3:.1f} us")
        lines.append("raw CPU clock, not normalized: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        lines.append(f"raw wall clock: setup_s {statistics.median(w for _, w in setup_times):.4f}, "
                     f"steps_per_s {len(plain.step_ns) / (plain.loop_wall_ns / 1e9):.6g}")
        lines += _health_lines(passes)
    return _result(checks, metrics, lines)


def _result(checks: Checks, metrics: dict, lines: list) -> dict:
    attempted = max(checks.attempted, 1)
    lines = lines + [f"failed steps: {checks.failed} of {checks.attempted} "
                     f"(failed_frac {checks.failed / attempted:.6g})"]
    lines += [f"CHECK FAILED: {msg}" for msg in checks.failures]
    return {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "report": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # probes.ProbeError
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in result.pop("report"):
        print(line)
    width = max((len(k) for k in result["metrics"]), default=0)
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
