"""Acceptance criteria, one test per criterion, each printing its pass/fail
line with the measured quantities (run with -s to see them as they finish).

Criteria 5 and 6 are the closed-loop claims. In the noise-free loop the
speed stays within 0.1 m/s of each segment's peak from 60 s after the
segment starts, and so does the believed optimum at the segment's end. On
the noisy default scenario the numerical controller has less regret than
both baselines and less tracking error than extremum seeking.
"""
import pytest

from dcee import acceptance, harness
from dcee.acceptance import ALL_CRITERIA
from dcee.errors import InfeasibleCandidateError

from conftest import failing_reference


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


def _spy(monkeypatch, name, infeasible_first=False):
    """Record each call of acceptance.<name>; with infeasible_first the first raises."""
    real, calls = getattr(acceptance, name), []

    def spy(*args):
        calls.append(args)
        if infeasible_first and len(calls) == 1:
            raise InfeasibleCandidateError("an infeasible instance")
        return real(*args)

    monkeypatch.setattr(acceptance, name, spy)
    return calls


def test_criterion_2_checks_100_feasible_instances_past_an_infeasible_one(monkeypatch):
    objectives = _spy(monkeypatch, "objective", infeasible_first=True)
    splits = _spy(monkeypatch, "objective_split")
    assert acceptance.criterion_2_decomposition().passed
    assert splits == objectives[1:] and len(splits) == 100


def test_criterion_3_passes_past_an_infeasible_instance(monkeypatch):
    built = _spy(monkeypatch, "residual_fn", infeasible_first=True)
    result = acceptance.criterion_3_gn_correctness()
    assert result.passed, result.detail
    assert len(built) == 50


def test_criterion_8_fails_when_no_reference_solve_completes(monkeypatch):
    monkeypatch.setattr(harness, "fd_hessian_newton", failing_reference)
    result = acceptance.criterion_8_performance()
    assert not result.passed
    assert result.detail.endswith("; no FD-Hessian Newton solve completed")
