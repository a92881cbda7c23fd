"""Acceptance criteria, one test per criterion, each printing its pass/fail
line with the measured quantities (run with -s to see them as they finish).

Criteria 5 and 6 are the closed-loop claims. In the noise-free loop the
speed stays within 0.1 m/s of each segment's peak from 60 s after the
segment starts, and so does the believed optimum at the segment's end. On
the noisy default scenario the numerical controller has less regret than
both baselines and less tracking error than extremum seeking.
"""
import pytest

from dcee import acceptance
from dcee.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion()
    print()
    print(result.line())
    assert result.passed, result.detail


class _Runaway(BaseException):
    """Stops a criterion that keeps retrying past every failure."""


def test_criterion_4_surfaces_unexpected_solver_errors(monkeypatch):
    # only SolverFailureError skips an instance; any other error from solve
    # is a regression the criterion must raise, not retry forever
    calls = []

    def broken_solve(*args, **kwargs):
        calls.append(None)
        if len(calls) > 200:
            raise _Runaway
        raise TypeError("broken solve")

    monkeypatch.setattr(acceptance, "solve", broken_solve)
    with pytest.raises(TypeError, match="broken solve"):
        acceptance.criterion_4_global_quality()
    assert len(calls) == 1
