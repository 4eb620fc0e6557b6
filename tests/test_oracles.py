"""BKP's window table and the heap-driven EDF against their oracles.

``tests/_oracles.py`` keeps the straightforward implementations: BKP's
intensity as one matmul per instant, and EDF with a full candidate rescan
per step.  The library versions must agree with them on generated
instances that stress the tolerance handling: tied, integer and
within-``EPS`` times, zero and sub-tolerance work, and profiles too slow
to finish the jobs.

* BKP: identical profile breakpoints, and speeds equal up to float
  noise (the window sums add the same work in a different order).
* EDF: bit-identical schedules (slice by slice) and identical
  ``unfinished`` maps, in the same order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from repro.core.constants import EPS
from repro.core.edf import run_edf
from repro.core.job import Job
from repro.core.profile import Segment, SpeedProfile
from repro.core.timeline import dedupe_times
from repro.speed_scaling.avr import avr_profile
from repro.speed_scaling.bkp import bkp_intensity_at, bkp_profile
from repro.speed_scaling.yds import yds_profile

from _testutil import random_classical_jobs

#: Relative tolerance for "equal up to float noise".
NOISE = 1e-12

# -- strategies --------------------------------------------------------------------

#: Offsets that land a time just inside, at and just outside the EPS
#: tolerance of a base time (dedupe keeps a point only beyond EPS).
_NEAR = (-1.5e-9, -EPS, -0.4e-9, 0.0, 0.4e-9, EPS, 1.5e-9)

_base_time = st.one_of(
    st.integers(min_value=0, max_value=6),  # ints, and many ties
    st.sampled_from([0.5, 1.5, 2.25, 3.0, 4.75]),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
)
_time = st.tuples(_base_time, st.sampled_from(_NEAR)).map(
    lambda p: p[0] + p[1] if p[1] else p[0]
)
_span = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1.5e-9, 2.5e-9, 0.5, 1.0 + 0.4e-9]),
    st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
)
_work = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-12, 5e-10, EPS, 2e-9]),  # zero and sub-tolerance
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
)


@st.composite
def job_sets(draw, max_jobs=8):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        r = draw(_time)
        jobs.append(Job(r, r + draw(_span), draw(_work), f"j{i}"))
    return jobs


@st.composite
def profiles(draw, max_segments=6):
    """Arbitrary profiles: gaps, zero and sub-tolerance speeds, and
    breakpoints within EPS of each other or of job times."""
    n = draw(st.integers(min_value=0, max_value=max_segments))
    t = draw(_time)
    segments = []
    for _ in range(n):
        t += draw(st.sampled_from([0.0, 0.5, 1.0]))  # optional gap
        end = t + draw(_span)
        speed = draw(
            st.one_of(
                st.just(0.0),
                st.sampled_from([1e-10, 5e-9, 0.25, 1.0, 2.0]),
                st.floats(min_value=0.01, max_value=6.0, allow_nan=False),
            )
        )
        segments.append(Segment(t, end, speed))
        t = end
    return SpeedProfile(segments)


# -- helpers -------------------------------------------------------------------------


def assert_same_profile(new, old):
    assert new.breakpoints() == old.breakpoints()
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert (a.start, a.end) == (b.start, b.end)
        assert math.isclose(a.speed, b.speed, rel_tol=NOISE, abs_tol=0.0)


def assert_same_edf(new, old):
    assert [repr(s) for s in new.schedule.slices()] == [
        repr(s) for s in old.schedule.slices()
    ]
    assert list(new.unfinished.items()) == list(old.unfinished.items())


def probe_times(jobs):
    """Event times, midpoints, and points just either side of each event."""
    events = dedupe_times(
        [j.release for j in jobs] + [j.deadline for j in jobs]
    )
    mids = [0.5 * (a + b) for a, b in zip(events, events[1:])]
    near = [e + d for e in events for d in (-0.6e-9, 0.6e-9)]
    return sorted(events + mids + near)


# -- BKP -----------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(job_sets())
def test_bkp_profile_matches_matmul_oracle(jobs):
    assert_same_profile(bkp_profile(jobs), oracle.bkp_profile(jobs))


@settings(max_examples=100, deadline=None)
@given(job_sets())
def test_bkp_intensity_at_matches_matmul_oracle(jobs):
    for t in probe_times(jobs):
        assert math.isclose(
            bkp_intensity_at(jobs, t),
            oracle.bkp_intensity_at(jobs, t),
            rel_tol=NOISE,
            abs_tol=0.0,
        )


def test_bkp_near_duplicate_releases_and_deadlines():
    """Releases and deadlines within EPS of each other take the general
    (deduplicating) path; it must keep the definition's candidate sets."""
    jobs = [
        Job(0.0, 5.0, 2.0, "a"),
        Job(0.4e-9, 5.0 + 0.5e-9, 1.0, "b"),
        Job(0.9e-9, 3.0, 1.5, "c"),
        Job(1.5e-9, 5.0 + 1.2e-9, 0.5, "d"),
        Job(1.0, 3.0 - 0.7e-9, 2.5, "e"),
        Job(1.0 + 0.8e-9, 2.0, 0.75, "f"),
        Job(2.5, 5.0 + 0.2e-9, 1.25, "g"),
    ]
    assert_same_profile(bkp_profile(jobs), oracle.bkp_profile(jobs))
    for t in probe_times(jobs):
        assert math.isclose(
            bkp_intensity_at(jobs, t),
            oracle.bkp_intensity_at(jobs, t),
            rel_tol=NOISE,
            abs_tol=0.0,
        )


@pytest.mark.parametrize("seed", range(3))
def test_bkp_profile_dense_overlap_matches_oracle(seed):
    """Heavily overlapping windows: many release blocks, long t2 ranges."""
    rng = np.random.default_rng(seed)
    jobs = random_classical_jobs(rng, 60, horizon=6.0)
    assert_same_profile(bkp_profile(jobs), oracle.bkp_profile(jobs))


# -- EDF -----------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(job_sets(), profiles())
def test_run_edf_matches_rescan_oracle(jobs, profile):
    assert_same_edf(run_edf(jobs, profile), oracle.run_edf(jobs, profile))


@settings(max_examples=100, deadline=None)
@given(job_sets(), st.sampled_from([1.0, 0.5, 0.999999]))
def test_run_edf_matches_oracle_on_algorithm_profiles(jobs, scale):
    """Feasible (scale 1) and infeasible (scaled-down) algorithm profiles."""
    for make in (bkp_profile, avr_profile, yds_profile):
        profile = make(jobs).scale(scale)
        assert_same_edf(run_edf(jobs, profile), oracle.run_edf(jobs, profile))


@settings(max_examples=50, deadline=None)
@given(job_sets(), profiles(), st.sampled_from([1e-12, 1e-6, 0.1]))
def test_run_edf_matches_oracle_at_other_tolerances(jobs, profile, tol):
    assert_same_edf(
        run_edf(jobs, profile, tol=tol), oracle.run_edf(jobs, profile, tol=tol)
    )
