"""Comparison controllers: explicit one-step gradient update on the dual
objective, and classical perturbation-based extremum seeking.

The gradient controller shares the whole residual/ensemble pipeline with the
numerical controller and differs only in how the input is selected, so
closed-loop comparisons isolate the solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import DceeProblem, residual_fn, warm_start
from .errors import ConfigurationError, InfeasibleCandidateError, reject_bools
from .plant import VehicleParams, drag_force


@dataclass(frozen=True)
class GradDceeConfig:
    """Gain of the explicit gradient update, in input units per unit of
    objective gradient.  The residual map's input sensitivity is of order
    dt/mass, so useful gains are large numbers of newtons."""

    gain: float = 2.1e8

    def __post_init__(self):
        reject_bools(self)
        if not (0.0 < self.gain < math.inf):
            raise ConfigurationError("gradient gain must be positive and finite")


def grad_dcee_step(p: DceeProblem, u_prev: float, cfg: GradDceeConfig) -> float:
    """One explicit gradient step u - gain * grad(D)(u), clamped to bounds.

    grad(D) = 2 J'F, from the same callback the Gauss-Newton solve uses.  As
    controller_step does, it steps from warm_start(p, u_prev), and holds
    that start where the evaluation is infeasible.
    """
    veh = p.vehicle
    u_start = warm_start(p, u_prev)
    try:
        _, jtf, _ = residual_fn(p)(u_start)
    except InfeasibleCandidateError:
        return u_start
    grad = 2.0 * jtf
    u = u_start - cfg.gain * grad
    return min(max(u, veh.u_min), veh.u_max)


_tuple_new = tuple.__new__

# speed-setpoint ceiling for the extremum-seeking estimate, m/s
_SETPOINT_CEILING = 100.0


@dataclass(frozen=True)
class EscConfig:
    dither_amp: float = 1.0          # m/s
    dither_freq: float = 0.8         # rad/s
    integrator_gain: float = 60.0    # (m/s per s) per demodulated reward unit
    highpass_cutoff: float = 0.1     # rad/s
    speed_loop_gain: float = 800.0   # N per (m/s)

    def __post_init__(self):
        reject_bools(self)
        for name in ("dither_amp", "dither_freq", "integrator_gain",
                     "highpass_cutoff", "speed_loop_gain"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ConfigurationError(f"{name} must be positive and finite")


class EscState(NamedTuple):
    """The extremum seeker's state, a tuple record rebuilt every step,
    by esc_step with tuple.__new__, which fills the fields in C."""

    setpoint_hat: float
    lowpass_state: float
    k: int = 0


def esc_init(v0: float) -> EscState:
    """Start the speed-setpoint estimate at the current speed; the washout
    filter state latches onto the first reward sample."""
    return EscState(setpoint_hat=float(v0), lowpass_state=0.0)


def esc_step(
    state: EscState,
    cfg: EscConfig,
    reward_meas: float,
    v: float,
    vehicle: VehicleParams,
) -> tuple[float, EscState]:
    """Classic single-dither scheme.

    The measured reward is washed out by a first-order high-pass, demodulated
    by the dither, and integrated into the setpoint estimate; an inner speed
    loop with drag feedforward tracks setpoint + dither.
    """
    setpoint_hat, lowpass_state, k = state
    phase = cfg.dither_freq * k * vehicle.dt
    dither = math.sin(phase)
    lp = reward_meas if k == 0 else lowpass_state
    lp = lp + vehicle.dt * cfg.highpass_cutoff * (reward_meas - lp)
    hp = reward_meas - lp
    # demodulate against the dither as seen by the plant: the inner speed
    # loop lags the command by atan(omega * mass / K), so compensate the
    # reference phase accordingly
    lag = math.atan(cfg.dither_freq * vehicle.mass / cfg.speed_loop_gain)
    demod = math.sin(phase - lag)
    setpoint = setpoint_hat + vehicle.dt * cfg.integrator_gain * hp * demod
    # keep the estimate in a physically meaningful speed range; large climb
    # transients can otherwise leak through the washout and wind the
    # integrator into a stall at zero speed
    setpoint = min(max(setpoint, 0.0), _SETPOINT_CEILING)
    v_cmd = setpoint + cfg.dither_amp * dither
    u = cfg.speed_loop_gain * (v_cmd - v) + drag_force(vehicle, v)
    u = min(max(u, vehicle.u_min), vehicle.u_max)
    return u, _tuple_new(EscState, (setpoint, lp, k + 1))
