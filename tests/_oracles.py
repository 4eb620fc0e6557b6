"""Reference implementations kept as test oracles.

These are the straightforward versions of two library hot paths, kept
verbatim in behaviour so that the optimised code in ``repro`` can be
checked against them on generated instances:

* :func:`bkp_intensity_at` / :func:`bkp_profile` — BKP's intensity as one
  (t1 x jobs) @ (jobs x t2) matmul per instant, evaluated at every
  event midpoint;
* :func:`run_edf` — EDF realisation that rescans every remaining job for
  candidates and walks the event list from the start at every step.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.constants import E_CONST, EPS
from repro.core.edf import EDFResult
from repro.core.job import Job
from repro.core.profile import Segment, SpeedProfile
from repro.core.schedule import Schedule
from repro.core.timeline import dedupe_times


def bkp_intensity_at(jobs: Sequence[Job], t: float) -> float:
    """``max_{t1 < t <= t2} w(t, t1, t2) / (t2 - t1)`` by one matmul."""
    arrived = [j for j in jobs if j.release <= t and j.work > 0]
    if not arrived:
        return 0.0
    r = np.array([j.release for j in arrived])
    d = np.array([j.deadline for j in arrived])
    w = np.array([j.work for j in arrived])

    t1s = np.array(dedupe_times(r[r < t]))
    t2s = np.array(dedupe_times(d[d >= t]))
    if t1s.size == 0 or t2s.size == 0:
        return 0.0

    lo = r[None, :] >= t1s[:, None] - EPS
    hi = d[None, :] <= t2s[:, None] + EPS
    work = (lo * w[None, :]) @ hi.T.astype(float)
    span = t2s[None, :] - t1s[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(span > EPS, work / span, 0.0)
    return float(ratio.max(initial=0.0))


def bkp_profile(jobs: Sequence[Job]) -> SpeedProfile:
    """BKP's profile from :func:`bkp_intensity_at` at every event midpoint."""
    live = [j for j in jobs if j.work > EPS]
    if not live:
        return SpeedProfile()
    events = dedupe_times(
        [j.release for j in live] + [j.deadline for j in live]
    )
    segments = []
    for a, b in zip(events, events[1:]):
        mid = 0.5 * (a + b)
        speed = E_CONST * bkp_intensity_at(live, mid)
        if speed > 0:
            segments.append(Segment(a, b, speed))
    return SpeedProfile(segments)


def run_edf(
    jobs: Sequence[Job],
    profile: SpeedProfile,
    machine: int = 0,
    machines: int = 1,
    tol: float = EPS,
) -> EDFResult:
    """EDF realisation of ``profile`` by a full candidate rescan per step."""
    schedule = Schedule(machines)
    remaining: dict[str, float] = {
        j.id: j.work for j in jobs if j.work > tol
    }
    by_id: dict[str, Job] = {j.id: j for j in jobs}

    if not remaining:
        return EDFResult(schedule)

    events = dedupe_times(
        [j.release for j in jobs]
        + [j.deadline for j in jobs]
        + profile.breakpoints(),
        tol,
    )
    horizon = max(
        max(j.deadline for j in jobs),
        profile.end if not profile.is_empty else 0.0,
    )

    t = events[0]
    while t < horizon - tol and remaining:
        nxt = horizon
        for e in events:
            if e > t:
                nxt = e
                break
        speed = profile.speed_at(0.5 * (t + nxt))
        cands = [
            by_id[jid]
            for jid, rem in remaining.items()
            if by_id[jid].release <= t + tol and by_id[jid].deadline > t + tol
        ]
        if not cands or speed <= 0.0:
            t = nxt
            continue
        job = min(cands, key=lambda j: (j.deadline, j.id))
        rem = remaining[job.id]
        finish_in = rem / speed
        run_until = min(nxt, t + finish_in, job.deadline)
        if run_until <= t + tol:
            if rem <= speed * tol * (1 + 1e-6):
                del remaining[job.id]
                continue
            credited = speed * max(nxt - t, 0.0)
            rem -= credited
            if rem <= tol:
                del remaining[job.id]
            else:
                remaining[job.id] = rem
            t = nxt
            continue
        executed = speed * (run_until - t)
        schedule.add(t, run_until, speed, job.id, machine)
        if executed >= rem - tol * max(1.0, rem):
            del remaining[job.id]
        else:
            remaining[job.id] = rem - executed
        t = run_until

    dust = tol * (1.0 + len(events) * profile.max_speed())
    unfinished = {jid: rem for jid, rem in remaining.items() if rem > dust}
    return EDFResult(schedule, unfinished)
