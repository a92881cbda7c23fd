"""Probes around the public functions of the dcee layers.

The benchmark measures the program from outside: it replaces module
attributes of dcee with thin wrappers for the duration of a run and puts the
originals back afterwards.  Each of the two modes records into its own
Recorder:

* untraced: only the step-start probe (``dcee.harness.active_segment``, the
  first call of every control step), the input-selection call and the
  loop-end marker (``dcee.harness.compute_metrics``) are wrapped;
* traced: every wrapped boundary also records a span (name, start, end,
  parent span, run id), kept in flat arrays until the run ends.

A name that has disappeared from the module it is wrapped in, or a probe
that did not fire where the workload must call it, raises ProbeError so that
a refactor of the harness fails loudly instead of reporting zero.
"""
from __future__ import annotations

import time
from array import array

import numpy as np

import calib
import dcee.config
import dcee.harness
import dcee.solver

# attribute of dcee.harness -> layer name used in spans and metrics
HARNESS_LAYERS = {
    "active_segment": "plant.active_segment",
    "measure": "plant.measure",
    "measured_update": "ensemble.measured_update",
    "condition_stats": "ensemble.condition_stats",
    "controller_step": "solver.controller_step",
    "grad_dcee_step": "baselines.grad_dcee_step",
    "esc_step": "baselines.esc_step",
    "objective_split": "core.objective_split",
    "optimal_condition": "reward.optimal_condition",
    "plant_step": "plant.plant_step",
    "init_ensemble": "ensemble.init_ensemble",
    "compute_metrics": "harness.compute_metrics",
}
SELECTORS = ("controller_step", "grad_dcee_step", "esc_step")
STEP = "harness.step"
RUN = "harness.run_closed_loop"
RESIDUAL_PREPARE = "core.residual_prepare"
RESIDUAL_EVAL = "core.residual_eval"
SCENARIO = "config.scenario_from_dict"
CALIBRATION = "bench.calibration"

# layers every control step calls exactly once, whatever the controller
PER_STEP_LAYERS = (
    "plant.active_segment",
    "plant.measure",
    "ensemble.measured_update",
    "ensemble.condition_stats",
    "core.objective_split",
    "reward.optimal_condition",
    "plant.plant_step",
)
SELECTOR_LAYER = {
    "numerical_dcee": "solver.controller_step",
    "grad_dcee": "baselines.grad_dcee_step",
    "esc": "baselines.esc_step",
}

# every DESCENT_STRIDE-th solve is kept for the descent check
DESCENT_STRIDE = 97


class ProbeError(RuntimeError):
    """A wrapped name is missing or a probe did not fire where it must."""


# All benchmark times are read from the thread's CPU clock, which stops while
# the host steals the vCPU or the guest runs another task; see calib.py.
_now = calib.now


class SolverHealth:
    """Counts read from the GnReport of every controller_step call."""

    def __init__(self, max_iters: int = 64):
        self.solves = 0
        self.converged = 0
        self.escalations = 0
        self.fallbacks = 0
        self.iterations = 0
        self.histogram = [0] * (max_iters + 1)

    def add(self, report) -> None:
        self.solves += 1
        self.converged += bool(report.converged)
        self.escalations += report.damping_escalations
        self.fallbacks += bool(report.fallback)
        self.iterations += report.iterations
        it = min(report.iterations, len(self.histogram) - 1)
        self.histogram[it] += 1

    def as_tuple(self) -> tuple:
        return (self.solves, self.converged, self.escalations, self.fallbacks,
                self.iterations, tuple(self.histogram))


class Recorder:
    """Holds what the probes record for one benchmark run."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.muted = False            # inside compute_metrics: not part of a step
        # end-to-end probes, one entry per control step or selection call
        self.step_ns = array("q")
        self.select_ns = array("q")
        # closed-loop time outside the steps (set-up before the first step,
        # metrics after the last), booked on the adjacent step
        self.between_ns = array("q")
        self.steps_in_loop = 0
        self.fallback_flags = bytearray()   # per step of the current loop
        self._prev_start = -1
        self.loops: list[tuple[str, int]] = []  # (controller type, steps) per finished loop
        self.loop_wall_ns = 0               # wall-clock time of the loops, for the raw report
        # one calibration kernel run before each step: its time, end timestamp
        self.kernel_ns = array("q")
        self.kernel_at = array("q")
        self._loop_start = 0
        self._steps_end = 0
        self.health = SolverHealth()
        self.descent_samples = []
        # spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_run = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._step_span = -1
        self.run_id = -1
        self.calls: dict[str, int] = {}

    # spans -------------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, start: int | None = None) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_run.append(self.run_id)
        self.span_start.append(_now() if start is None else start)
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: int | None = None) -> None:
        self.span_end[idx] = _now() if end is None else end
        top = self._stack.pop()
        if top != idx:
            raise ProbeError(f"span stack out of order: closing {idx}, top {top}")

    def _close_step(self, end: int) -> None:
        if self._step_span >= 0:
            self.close(self._step_span, end)
            self._step_span = -1

    # loop bookkeeping ----------------------------------------------------
    def begin_loop(self, start: int) -> None:
        self.run_id += 1
        self.steps_in_loop = 0
        self.fallback_flags = bytearray()
        self._prev_start = -1
        self._loop_start = start

    def step_start(self) -> None:
        """Ends the previous step, calibrates, starts the next."""
        now = _now()
        if self._prev_start >= 0:
            self.step_ns.append(now - self._prev_start)
        self.between_ns.append(0 if self.steps_in_loop else now - self._loop_start)
        if self.traced:
            self._close_step(now)
        now = self._calibrate(now)
        self._prev_start = now
        self.steps_in_loop += 1
        self.fallback_flags.append(0)
        if self.traced:
            self._step_span = self.open(self.name_id(STEP), now)

    def _calibrate(self, start: int) -> int:
        idx = self.open(self.name_id(CALIBRATION), start) if self.traced else -1
        kernel_ns = calib.time_kernel()
        end = _now()
        if idx >= 0:
            self.close(idx, end)
        self.kernel_ns.append(kernel_ns)
        self.kernel_at.append(end)
        return end

    def loop_end(self) -> None:
        now = _now()
        if self._prev_start >= 0:
            self.step_ns.append(now - self._prev_start)
            self._prev_start = -1
        self._steps_end = now
        if self.traced:
            self._close_step(now)

    def finish_loop(self, end: int) -> None:
        if self.steps_in_loop:
            self.between_ns[-1] += end - self._steps_end

    def unwind(self, idx: int) -> None:
        """Close the spans a raising loop left open above span idx."""
        now = _now()
        while self._stack[-1] != idx:
            self.close(self._stack[-1], now)
        self._step_span = -1

    # host-speed normalization ------------------------------------------------
    def step_scales(self) -> np.ndarray:
        """calib.REF_NS over the kernel time around each recorded step."""
        return calib.scales(self.kernel_ns)[: len(self.step_ns)]

    def span_scales(self) -> np.ndarray:
        """The scale of the step each span starts in (or after)."""
        scale = calib.scales(self.kernel_ns)
        window = np.searchsorted(np.frombuffer(self.kernel_at, dtype=np.int64),
                                 np.frombuffer(self.span_start, dtype=np.int64), side="right") - 1
        return scale[np.maximum(window, 0)]


class Probes:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.traced = rec.traced
        self._saved = []

    def __enter__(self):
        missing = [f"dcee.harness.{a}" for a in HARNESS_LAYERS if not hasattr(dcee.harness, a)]
        for mod, attr in ((dcee.solver, "residual_fn"), (dcee.config, "scenario_from_dict")):
            if not hasattr(mod, attr):
                missing.append(f"{mod.__name__}.{attr}")
        if missing:
            raise ProbeError("cannot wrap missing names: " + ", ".join(missing))
        self._patch(dcee.harness, "active_segment", self._step_probe)
        self._patch(dcee.harness, "compute_metrics", self._metrics_probe)
        self._patch(dcee.harness, "controller_step", self._solve_probe)
        for attr in ("grad_dcee_step", "esc_step"):
            self._patch(dcee.harness, attr, self._select_probe)
        if self.traced:
            for attr, layer in HARNESS_LAYERS.items():
                if attr not in ("active_segment", "compute_metrics") + SELECTORS:
                    self._patch(dcee.harness, attr, lambda fn, a, layer=layer: self._span(fn, layer))
            self._patch(dcee.solver, "residual_fn", self._residual_fn_probe)
            self._patch(dcee.config, "scenario_from_dict", lambda fn, a: self._span(fn, SCENARIO))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return False

    def _patch(self, mod, attr, make):
        orig = getattr(mod, attr)
        self._saved.append((mod, attr, orig))
        setattr(mod, attr, make(orig, attr))

    # wrappers --------------------------------------------------------------
    def _count(self, layer: str) -> None:
        calls = self.rec.calls
        calls[layer] = calls.get(layer, 0) + 1

    def _span(self, fn, layer):
        rec = self.rec
        nid = rec.name_id(layer)

        def wrapped(*args, **kwargs):
            if rec.muted:
                return fn(*args, **kwargs)
            self._count(layer)
            idx = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return wrapped

    def _step_probe(self, fn, attr):
        rec = self.rec
        layer = HARNESS_LAYERS[attr]
        nid = rec.name_id(layer)

        def wrapped(schedule, t):
            if rec.muted:
                return fn(schedule, t)
            rec.step_start()
            self._count(layer)
            if not rec.traced:
                return fn(schedule, t)
            idx = rec.open(nid)
            try:
                return fn(schedule, t)
            finally:
                rec.close(idx)

        return wrapped

    def _metrics_probe(self, fn, attr):
        rec = self.rec
        layer = HARNESS_LAYERS[attr]
        nid = rec.name_id(layer)

        def wrapped(*args, **kwargs):
            rec.loop_end()
            self._count(layer)
            idx = rec.open(nid) if rec.traced else -1
            rec.muted = True
            try:
                return fn(*args, **kwargs)
            finally:
                rec.muted = False
                if idx >= 0:
                    rec.close(idx)

        return wrapped

    def _select_probe(self, fn, attr):
        rec = self.rec
        layer = HARNESS_LAYERS[attr]
        nid = rec.name_id(layer)

        def wrapped(*args, **kwargs):
            self._count(layer)
            idx = rec.open(nid) if rec.traced else -1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                if idx >= 0:
                    rec.close(idx, t1)
                rec.select_ns.append(t1 - t0)

        return wrapped

    def _solve_probe(self, fn, attr):
        rec = self.rec
        timed = self._select_probe(fn, attr)

        def wrapped(problem, u_prev, cfg):
            u, report = timed(problem, u_prev, cfg)
            rec.health.add(report)
            if report.fallback and rec.fallback_flags:
                rec.fallback_flags[-1] = 1
            if rec.health.solves % DESCENT_STRIDE == 0:
                rec.descent_samples.append((problem, u_prev, u, cfg, report.fallback))
            return u, report

        return wrapped

    def _residual_fn_probe(self, fn, attr):
        rec = self.rec
        prepare = self._span(fn, RESIDUAL_PREPARE)
        eval_id = rec.name_id(RESIDUAL_EVAL)

        def wrapped(problem):
            inner = prepare(problem)

            def evaluate(u_vec):
                self._count(RESIDUAL_EVAL)
                idx = rec.open(eval_id)
                try:
                    return inner(u_vec)
                finally:
                    rec.close(idx)

            return evaluate

        return wrapped

    def run_loop(self, cfg):
        """One closed loop through dcee.harness.run_closed_loop, timed and,
        when traced, inside a run span whose children are the steps."""
        rec = self.rec
        idx = rec.open(rec.name_id(RUN)) if rec.traced else -1
        wall0 = time.perf_counter_ns()
        rec.begin_loop(_now())
        try:
            result = dcee.harness.run_closed_loop(cfg)
        except BaseException:
            if idx >= 0:
                rec.unwind(idx)
                rec.close(idx)
            raise
        end = _now()
        rec.loop_wall_ns += time.perf_counter_ns() - wall0
        rec.loops.append((cfg.controller.type, rec.steps_in_loop))
        rec.finish_loop(end)
        if idx >= 0:
            rec.close(idx, end)
        return result


def check_fired(rec: Recorder, controllers: dict, loops: int) -> None:
    """Raise ProbeError unless each probe fired as often as the workload must
    call it.  controllers maps controller type -> steps run with it."""
    steps = sum(controllers.values())
    expected = {"plant.active_segment": steps, "harness.compute_metrics": loops}
    for ctype, n in controllers.items():
        layer = SELECTOR_LAYER[ctype]
        expected[layer] = expected.get(layer, 0) + n
    traced = rec.traced
    if traced:
        expected["ensemble.init_ensemble"] = loops
        for layer in PER_STEP_LAYERS:
            expected[layer] = steps
    wrong = []
    for layer, n in sorted(expected.items()):
        got = rec.calls.get(layer, 0)
        if got != n:
            wrong.append(f"{layer}: {got} calls, expected {n}")
    if traced and controllers.get("numerical_dcee") and not rec.calls.get(RESIDUAL_EVAL):
        wrong.append(f"{RESIDUAL_EVAL}: 0 calls from dcee.solver.residual_fn")
    if wrong:
        raise ProbeError(
            "probes did not fire as the harness must call them (has dcee.harness "
            "changed how it calls its layers?): " + "; ".join(wrong)
        )


def self_times(rec: Recorder):
    """(names, total normalized self ns per name, span count per name); self
    time is the span's duration minus the time its child spans cover."""
    n_names = len(rec.names)
    if not rec.span_start:
        return rec.names, np.zeros(n_names), np.zeros(n_names, dtype=np.int64)
    start = np.frombuffer(rec.span_start, dtype=np.int64)
    end = np.frombuffer(rec.span_end, dtype=np.int64)
    parent = np.frombuffer(rec.span_parent, dtype=np.int64)
    name = np.frombuffer(rec.span_name, dtype=np.int32)
    dur = (end - start).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = np.bincount(name, weights=(dur - child) * rec.span_scales(), minlength=n_names)
    counts = np.bincount(name, minlength=n_names)
    return rec.names, self_ns, counts


def save_spans(rec: Recorder, path, **meta) -> None:
    """Write every recorded span to an .npz file."""
    np.savez(
        path,
        names=np.array(rec.names),
        name=np.frombuffer(rec.span_name, dtype=np.int32),
        parent=np.frombuffer(rec.span_parent, dtype=np.int64),
        run=np.frombuffer(rec.span_run, dtype=np.int64),
        start_ns=np.frombuffer(rec.span_start, dtype=np.int64),
        end_ns=np.frombuffer(rec.span_end, dtype=np.int64),
        **{k: np.array(v) for k, v in meta.items()},
    )
