import numpy as np
import pytest

from dcee import Ensemble, QuadraticRewardSpec, VehicleParams
from dcee.core import DceeProblem


@pytest.fixture
def spec():
    return QuadraticRewardSpec()


@pytest.fixture
def vehicle():
    return VehicleParams()


def _rows(a):
    """An array of rows as the bank's tuples of Python floats."""
    return tuple(map(tuple, np.asarray(a, dtype=float).tolist()))


def make_bank(members, rates=None, covariance=None, **kw):
    """An Ensemble from array-like member rows, rates (0.1 each by default)
    and covariance, which is also the prior."""
    members = _rows(np.atleast_2d(members))
    if rates is None:
        rates = [0.1] * len(members)
    if covariance is not None:
        kw.update(covariance=_rows(covariance), prior=_rows(covariance))
    return Ensemble(members, tuple(np.asarray(rates, dtype=float).tolist()), **kw)


def make_problem(members, rates=None, v=20.0, spec=None, vehicle=None):
    """Small helper to build a DceeProblem from member rows."""
    return DceeProblem(
        vehicle=vehicle or VehicleParams(),
        reward=spec or QuadraticRewardSpec(),
        ensemble=make_bank(members, rates),
        v=v,
    )
