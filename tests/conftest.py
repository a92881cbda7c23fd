import numpy as np
import pytest

from dcee.core import DceeProblem
from dcee.ensemble import Ensemble
from dcee.errors import SolverFailureError
from dcee.harness import drive
from dcee.plant import VehicleParams
from dcee.reward import QuadraticRewardSpec
from dcee.solver import controller_step


@pytest.fixture
def spec():
    return QuadraticRewardSpec()


@pytest.fixture
def vehicle():
    return VehicleParams()


def make_bank(members, rates=None, covariance=np.eye(3), **kw):
    """An Ensemble from array-like member rows, rates (0.1 each by default)
    and covariance (the identity by default), which is also the prior:
    the tests' one converter from arrays to the tuples of Python floats
    that Ensemble takes."""
    members = np.atleast_2d(np.asarray(members, dtype=float))
    if rates is None:
        rates = [0.1] * len(members)
    P = _tuples(covariance)
    return Ensemble(_tuples(members), _tuples(rates), covariance=P, prior=P, **kw)


def _tuples(a):
    """An array-like of numbers as (nested) tuples of Python floats."""
    a = np.asarray(a, dtype=float)
    return tuple(map(tuple, a.tolist())) if a.ndim == 2 else tuple(a.tolist())


def make_problem(members, rates=None, v=20.0, spec=None, vehicle=None):
    """Small helper to build a DceeProblem from member rows."""
    return DceeProblem(
        vehicle=vehicle or VehicleParams(),
        reward=spec or QuadraticRewardSpec(),
        ensemble=make_bank(members, rates),
        v=v,
    )


def final_state(cfg):
    """(problem, u) at the end of cfg's closed loop under controller_step,
    as drive returns them: the last step's problem and its chosen input."""
    gn_cfg = cfg.controller.solver
    return drive(cfg, lambda k, t, seg, r, p, u_prev: controller_step(p, u_prev, gn_cfg)[0])


def failing_reference(problem):
    """A stand-in for diagnostics.fd_hessian_newton whose callback fails
    every solve."""
    def fn(u):
        raise SolverFailureError("the reference fails")

    return fn
