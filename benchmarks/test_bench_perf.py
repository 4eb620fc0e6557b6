"""PERF — harness performance: throughput of the core algorithms.

Proper pytest-benchmark timing (multiple rounds) of YDS, AVR, BKP, EDF, CRCD
and AVRQ at growing instance sizes.  These are the knobs that bound how large
the reproduction experiments can go; regressions here would silently shrink
the feasible experiment sizes.
"""

import pytest

from repro.core.edf import run_edf
from repro.core.power import PowerFunction
from repro.core.profile import SpeedProfile, sum_profiles
from repro.qbss.avrq import avrq
from repro.qbss.crcd import crcd
from repro.speed_scaling.avr import avr_profile
from repro.speed_scaling.bkp import bkp_profile
from repro.speed_scaling.yds import yds, yds_profile
from repro.workloads.generators import common_deadline_instance, online_instance


def classical(n, seed=0):
    qi = online_instance(n, seed=seed)
    return [j.clairvoyant_job() for j in qi]


@pytest.mark.parametrize("n", [20, 50, 100])
def test_perf_yds(benchmark, n):
    jobs = classical(n)
    result = benchmark(yds, jobs)
    assert result.profile.total_work() > 0


@pytest.mark.parametrize("n", [50, 200])
def test_perf_avr_profile(benchmark, n):
    jobs = classical(n)
    profile = benchmark(avr_profile, jobs)
    assert not profile.is_empty


@pytest.mark.parametrize("n", [20, 50, 400])
def test_perf_bkp_profile(benchmark, n):
    jobs = classical(n)
    profile = benchmark(bkp_profile, jobs)
    assert not profile.is_empty


@pytest.mark.parametrize("n", [400])
def test_perf_run_edf(benchmark, n):
    """EDF realisation of a fixed (BKP) profile: the heap-driven executor."""
    jobs = classical(n)
    profile = bkp_profile(jobs)
    result = benchmark(run_edf, jobs, profile)
    assert result.feasible


@pytest.mark.parametrize("n", [50, 200])
def test_perf_crcd(benchmark, n):
    qi = common_deadline_instance(n, seed=1)
    result = benchmark(crcd, qi)
    assert result.max_speed() > 0


@pytest.mark.parametrize("n", [20, 50])
def test_perf_avrq_end_to_end(benchmark, n):
    qi = online_instance(n, seed=2)
    result = benchmark(avrq, qi)
    assert result.max_speed() > 0


# -- profile-kernel microbenchmarks (PR 6) ------------------------------------------
#
# The numpy breakpoint-array kernel (repro.core.profile_kernel) vectorises
# the SpeedProfile hot path; these pin its throughput on the shapes that
# dominate the replay and experiment workloads.  The before/after
# trajectory vs the pure-Python reference lives in BENCH_6.json
# (benchmarks/perf_trajectory.py).


def _dense_profile(n_segments, seed=0):
    import random

    rng = random.Random(seed)
    times, speeds, t = [0.0], [], 0.0
    for _ in range(n_segments):
        t += 0.1 + rng.random()
        times.append(t)
        speeds.append(rng.random() * 5.0)
    return SpeedProfile.from_breakpoints(times=times, speeds=speeds)


@pytest.mark.parametrize("n", [100, 200])
def test_perf_yds_profile(benchmark, n):
    """Discovery-only clairvoyant profile (skips EDF/Schedule entirely)."""
    jobs = classical(n)
    profile = benchmark(yds_profile, jobs)
    assert not profile.is_empty


@pytest.mark.parametrize("n", [200])
def test_perf_sum_profiles(benchmark, n):
    """The AVR hotspot: pointwise sum of many overlapping profiles."""
    profiles = [_dense_profile(8, seed=i).shift(i * 0.37) for i in range(n)]
    total = benchmark(sum_profiles, profiles)
    assert not total.is_empty


@pytest.mark.parametrize("n", [2000])
def test_perf_profile_energy(benchmark, n):
    power = PowerFunction(3.0)
    profile = _dense_profile(n)
    value = benchmark(profile.energy, power)
    assert value > 0


@pytest.mark.parametrize("segments,queries", [(500, 1000)])
def test_perf_work_in_many(benchmark, segments, queries):
    """Batched interval queries — the per-shard ratio workload shape."""
    profile = _dense_profile(segments)
    end = profile.end
    starts = [i * end / queries for i in range(queries)]
    ends = [s + end / 10 for s in starts]
    out = benchmark(profile.work_in_many, starts, ends)
    assert len(out) == queries
