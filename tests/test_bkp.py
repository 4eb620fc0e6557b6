"""BKP: the intensity maximisation and the e-competitive max speed."""

import json
import math

import numpy as np
import pytest

from repro.core.constants import E_CONST
from repro.core.feasibility import check_feasible
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.power import PowerFunction
from repro.speed_scaling.bkp import bkp, bkp_intensity_at, bkp_profile
from repro.speed_scaling.yds import optimal_energy, optimal_max_speed

from _testutil import random_classical_jobs


def brute_force_intensity(jobs, t):
    """Reference implementation: try every (t1, t2) candidate pair."""
    arrived = [j for j in jobs if j.release <= t and j.work > 0]
    best = 0.0
    t1s = sorted({j.release for j in arrived if j.release < t})
    t2s = sorted({j.deadline for j in arrived if j.deadline >= t})
    for t1 in t1s:
        for t2 in t2s:
            if t2 <= t1:
                continue
            w = sum(
                j.work for j in arrived if j.release >= t1 and j.deadline <= t2
            )
            best = max(best, w / (t2 - t1))
    return best


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_intensity_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    jobs = random_classical_jobs(rng, 10)
    for t in np.linspace(0.1, 10.0, 13):
        assert math.isclose(
            bkp_intensity_at(jobs, float(t)),
            brute_force_intensity(jobs, float(t)),
            rel_tol=1e-9,
            abs_tol=1e-12,
        )


def test_single_job_speed_is_e_times_density():
    jobs = [Job(0, 2, 4, "a")]
    prof = bkp_profile(jobs)
    assert math.isclose(prof.speed_at(1.0), E_CONST * 2.0)


def test_only_arrived_jobs_counted():
    """Before a job arrives it must not influence the speed."""
    jobs = [Job(0, 4, 1, "a"), Job(2, 3, 8, "late")]
    prof = bkp_profile(jobs)
    assert math.isclose(prof.speed_at(1.0), E_CONST * 0.25)
    assert prof.speed_at(2.5) >= E_CONST * 8.0 - 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_always_feasible(seed):
    rng = np.random.default_rng(seed)
    jobs = random_classical_jobs(rng, 12)
    result = bkp(jobs)
    assert result.feasible, result.edf.unfinished
    report = check_feasible(result.schedule, Instance(jobs))
    assert report.ok, report.violations


@pytest.mark.parametrize("seed", range(4))
def test_max_speed_e_competitive(seed):
    rng = np.random.default_rng(seed)
    jobs = random_classical_jobs(rng, 10)
    assert bkp_profile(jobs).max_speed() <= E_CONST * optimal_max_speed(jobs) * (
        1 + 1e-9
    )


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_energy_within_paper_bound(alpha, rng):
    from repro.bounds.formulas import bkp_ub_energy

    jobs = random_classical_jobs(rng, 10)
    ratio = bkp_profile(jobs).energy(PowerFunction(alpha)) / optimal_energy(
        jobs, alpha
    )
    assert 1.0 <= ratio <= bkp_ub_energy(alpha) * (1 + 1e-9)


def test_empty():
    assert bkp_profile([]).is_empty


def test_profile_values_are_python_floats():
    """Segment endpoints and speeds are plain ``float`` (not ``np.float64``,
    a float subclass), so profiles serialise like the rest of a report."""
    rng = np.random.default_rng(7)
    prof = bkp_profile(random_classical_jobs(rng, 15))
    assert not prof.is_empty
    for seg in prof:
        assert type(seg.start) is float
        assert type(seg.end) is float
        assert type(seg.speed) is float
    assert json.loads(json.dumps([[s.start, s.end, s.speed] for s in prof]))
