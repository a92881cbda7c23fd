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


def make_bank(members, rates=None, covariance=np.eye(3), **kw):
    """An Ensemble from array-like member rows, rates (0.1 each by default)
    and covariance (the identity by default), which is also the prior;
    Ensemble converts the arrays to its tuples of Python floats."""
    members = np.atleast_2d(members)
    if rates is None:
        rates = [0.1] * len(members)
    return Ensemble(members, rates, covariance=covariance, prior=covariance, **kw)


def make_problem(members, rates=None, v=20.0, spec=None, vehicle=None):
    """Small helper to build a DceeProblem from member rows."""
    return DceeProblem(
        vehicle=vehicle or VehicleParams(),
        reward=spec or QuadraticRewardSpec(),
        ensemble=make_bank(members, rates),
        v=v,
    )
