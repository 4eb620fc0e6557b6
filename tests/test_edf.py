"""The EDF executor."""

import math

import pytest

from repro.core.edf import profile_feasible_for, run_edf
from repro.core.feasibility import check_feasible
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.profile import Segment, SpeedProfile


def test_single_job_exact_fit():
    jobs = [Job(0, 2, 4, "a")]
    result = run_edf(jobs, SpeedProfile.constant(0, 2, 2.0))
    assert result.feasible
    assert math.isclose(result.schedule.work_of("a"), 4.0)


def test_edf_priority_order():
    """The earlier deadline runs first."""
    jobs = [Job(0, 4, 2, "late"), Job(0, 2, 2, "early")]
    result = run_edf(jobs, SpeedProfile.constant(0, 4, 1.0))
    assert result.feasible
    first = result.schedule.slices()[0]
    assert first.job_id == "early"


def test_preemption_on_arrival():
    """A tighter job arriving mid-run preempts the running one."""
    jobs = [Job(0, 10, 5, "long"), Job(2, 3, 1, "urgent")]
    profile = SpeedProfile.constant(0, 10, 1.0)
    result = run_edf(jobs, profile)
    assert result.feasible
    urgent_slices = [s for s in result.schedule.slices() if s.job_id == "urgent"]
    assert urgent_slices and urgent_slices[0].start >= 2.0
    assert result.schedule.completion_time("urgent") <= 3.0 + 1e-9
    # the long job resumes and still completes
    assert math.isclose(result.schedule.work_of("long"), 5.0)


def test_unfinished_reported():
    jobs = [Job(0, 1, 5, "a")]
    result = run_edf(jobs, SpeedProfile.constant(0, 1, 1.0))
    assert not result.feasible
    assert math.isclose(result.unfinished["a"], 4.0)


def test_work_never_scheduled_outside_window():
    jobs = [Job(1, 2, 1, "a")]
    profile = SpeedProfile.constant(0, 3, 1.0)
    result = run_edf(jobs, profile)
    assert result.feasible
    for s in result.schedule.slices():
        assert s.start >= 1.0 - 1e-9 and s.end <= 2.0 + 1e-9


def test_idle_gap_handled():
    jobs = [Job(0, 1, 1, "a"), Job(3, 4, 1, "b")]
    profile = SpeedProfile([Segment(0, 1, 1.0), Segment(3, 4, 1.0)])
    result = run_edf(jobs, profile)
    assert result.feasible


def test_zero_work_jobs_ignored():
    result = run_edf([Job(0, 1, 0, "a")], SpeedProfile())
    assert result.feasible
    assert result.schedule.slices() == []


def test_schedule_validates_against_instance(simple_jobs):
    """EDF at a generous speed produces a checker-clean schedule."""
    profile = SpeedProfile.constant(0, 3, 10.0)
    result = run_edf(simple_jobs, profile)
    assert result.feasible
    report = check_feasible(result.schedule, Instance(simple_jobs))
    assert report.ok, report.violations


def test_profile_feasible_for():
    jobs = [Job(0, 1, 1, "a")]
    assert profile_feasible_for(jobs, SpeedProfile.constant(0, 1, 1.0))
    assert not profile_feasible_for(jobs, SpeedProfile.constant(0, 1, 0.5))


def test_multi_machine_placement_argument():
    jobs = [Job(0, 1, 1, "a")]
    result = run_edf(jobs, SpeedProfile.constant(0, 1, 1.0), machine=1, machines=3)
    assert result.schedule.machines == 3
    assert result.schedule.slices(1)
    assert not result.schedule.slices(0)


def test_duplicate_job_ids_rejected():
    """Work is tracked per id: a duplicate id would silently drop the other
    job's work (1 of 6 units ran, yet the result claimed feasible)."""
    jobs = [Job(0, 1, 5, "a"), Job(0, 4, 1, "a")]
    with pytest.raises(ValueError, match="duplicate job id 'a'"):
        run_edf(jobs, SpeedProfile.constant(0, 4, 1))
    with pytest.raises(ValueError, match="duplicate job id"):
        run_edf([Job(0, 1, 1, "a"), Job(2, 3, 0, "a")], SpeedProfile())
