"""Reference implementations kept as test oracles.

These are the straightforward versions of the library hot paths, kept
verbatim in behaviour so that the optimised code in ``repro`` can be
checked against them on generated instances:

* :func:`bkp_intensity_at` / :func:`bkp_profile` — BKP's intensity as one
  (t1 x jobs) @ (jobs x t2) matmul per instant, evaluated at every
  event midpoint;
* :func:`run_edf` — EDF realisation that rescans every remaining job for
  candidates and walks the event list from the start at every step;
* :func:`reference_mode` — the segment-loop profile algebra that the
  numpy kernel (:mod:`repro.core.profile_kernel`) replaced, swapped in
  for the production ``SpeedProfile``/``Schedule`` methods,
  ``sum_profiles``/``max_profiles`` and YDS's ``_max_intensity``.
"""

from __future__ import annotations

import contextlib
import importlib
from collections.abc import Iterator, Sequence
from unittest import mock

import numpy as np

from repro.core import profile_kernel as _pk
from repro.core.constants import E_CONST, EPS
from repro.core.edf import EDFResult
from repro.core.job import Job
from repro.core.power import PowerFunction
from repro.core.profile import Segment, SpeedProfile
from repro.core.schedule import Schedule
from repro.core.timeline import dedupe_times
from repro.speed_scaling.yds import TimelineCompressor, _densest_window


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


# -- the segment-loop profile algebra ----------------------------------------------


class _SpeedProfileReference:
    """Segment-loop bodies of the kernel-backed :class:`SpeedProfile` methods."""

    @classmethod
    def from_breakpoints(
        cls, *, times: Sequence[float], speeds: Sequence[float]
    ) -> SpeedProfile:
        if len(speeds) != len(times) - 1:
            raise ValueError("need exactly one speed per consecutive breakpoint pair")
        segs = [
            Segment(a, b, v)
            for a, b, v in zip(times, times[1:], speeds)
            if v > 0
        ]
        return cls(segs)

    @classmethod
    def from_segments(
        cls,
        *,
        starts: Sequence[float],
        ends: Sequence[float],
        speeds: Sequence[float],
    ) -> SpeedProfile:
        if not (len(starts) == len(ends) == len(speeds)):
            raise ValueError("starts, ends and speeds must have equal length")
        return cls(
            Segment(a, b, v) for a, b, v in zip(starts, ends, speeds)
        )

    def speeds_at(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        return _pk.as_float_array([self.speed_at(float(t)) for t in times])

    def breakpoints(self) -> list[float]:
        raw = sorted(
            {seg.start for seg in self._segments}
            | {seg.end for seg in self._segments}
        )
        pts: list[float] = []
        for t in raw:
            if not pts or t - pts[-1] > EPS:
                pts.append(t)
        return pts

    def total_work(self) -> float:
        return sum(seg.work for seg in self._segments)

    def work_in(self, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        total = 0.0
        for seg in self._segments:
            lo = max(seg.start, start)
            hi = min(seg.end, end)
            if hi > lo:
                total += seg.speed * (hi - lo)
        return total

    def work_in_many(
        self,
        starts: Sequence[float] | np.ndarray,
        ends: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        return _pk.as_float_array(
            [self.work_in(float(a), float(b)) for a, b in zip(starts, ends)]
        )

    def max_speed(self) -> float:
        return max((seg.speed for seg in self._segments), default=0.0)

    def energy(self, power: PowerFunction) -> float:
        return sum(power.energy(seg.speed, seg.duration) for seg in self._segments)

    def scale(self, factor: float) -> SpeedProfile:
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return SpeedProfile(
            Segment(s.start, s.end, factor * s.speed) for s in self._segments
        )

    def restrict(self, start: float, end: float) -> SpeedProfile:
        segs = []
        for seg in self._segments:
            lo = max(seg.start, start)
            hi = min(seg.end, end)
            if hi > lo:
                segs.append(Segment(lo, hi, seg.speed))
        return SpeedProfile(segs)

    def shift(self, delta: float) -> SpeedProfile:
        return SpeedProfile(
            Segment(s.start + delta, s.end + delta, s.speed) for s in self._segments
        )

    def dominates(self, other: SpeedProfile, tol: float = EPS) -> bool:
        pts = sorted(set(self.breakpoints()) | set(other.breakpoints()))
        for a, b in zip(pts, pts[1:]):
            mid = 0.5 * (a + b)
            if self.speed_at(mid) < other.speed_at(mid) - tol:
                return False
        return True


def sum_profiles(profiles: Sequence[SpeedProfile]) -> SpeedProfile:
    """Pointwise sum, one ``speed_at`` sum per breakpoint interval."""
    pts: list[float] = []
    for p in profiles:
        for seg in p.segments:
            pts.append(seg.start)
            pts.append(seg.end)
    if not pts:
        return SpeedProfile()
    uniq = sorted(set(pts))
    # collapse numerically-equal points
    collapsed: list[float] = [uniq[0]]
    for t in uniq[1:]:
        if t - collapsed[-1] > EPS:
            collapsed.append(t)
    segs = []
    for a, b in zip(collapsed, collapsed[1:]):
        mid = 0.5 * (a + b)
        speed = sum(p.speed_at(mid) for p in profiles)
        if speed > 0:
            segs.append(Segment(a, b, speed))
    return SpeedProfile(segs)


def max_profiles(profiles: Sequence[SpeedProfile]) -> SpeedProfile:
    """Pointwise maximum, one ``speed_at`` max per breakpoint interval."""
    pts: list[float] = []
    for p in profiles:
        for seg in p.segments:
            pts.append(seg.start)
            pts.append(seg.end)
    if not pts:
        return SpeedProfile()
    uniq = sorted(set(pts))
    collapsed: list[float] = [uniq[0]]
    for t in uniq[1:]:
        if t - collapsed[-1] > EPS:
            collapsed.append(t)
    segs = []
    for a, b in zip(collapsed, collapsed[1:]):
        mid = 0.5 * (a + b)
        speed = max((p.speed_at(mid) for p in profiles), default=0.0)
        if speed > 0:
            segs.append(Segment(a, b, speed))
    return SpeedProfile(segs)


def schedule_energy(self: Schedule, power: PowerFunction) -> float:
    """:meth:`Schedule.energy` as a sum over slices."""
    return sum(
        power.energy(s.speed, s.duration)
        for per in self._slices
        for s in per
    )


def schedule_max_speed(self: Schedule) -> float:
    """:meth:`Schedule.max_speed` as a max over slices."""
    return max(
        (s.speed for per in self._slices for s in per), default=0.0
    )


def max_intensity(
    jobs: Sequence[Job], compressor: TimelineCompressor
) -> tuple[float, float, float, list[Job], list[tuple[float, float]]] | None:
    """YDS's ``_max_intensity`` with scalar ``compress`` and ``dedupe_times``."""
    comp_r = np.array([compressor.compress(j.release) for j in jobs])
    comp_d = np.array([compressor.compress(j.deadline) for j in jobs])
    starts = np.array(dedupe_times(comp_r))
    ends = np.array(dedupe_times(comp_d))
    return _densest_window(jobs, comp_r, comp_d, starts, ends)


#: Every ``repro`` module that binds ``sum_profiles`` / ``max_profiles``
#: at import time (``tests/test_profile_kernel.py`` checks the list is
#: complete).
SUM_PROFILES_MODULES = (
    "repro.core.profile",
    "repro.core",
    "repro.speed_scaling.avr",
    "repro.qbss.crp2d",
)
MAX_PROFILES_MODULES = ("repro.core.profile", "repro.core")


def _reference_swaps() -> list[tuple[object, str, object]]:
    swaps: list[tuple[object, str, object]] = [
        (SpeedProfile, name, attr)
        for name, attr in vars(_SpeedProfileReference).items()
        if callable(attr) or isinstance(attr, classmethod)
    ]
    swaps += [
        (Schedule, "energy", schedule_energy),
        (Schedule, "max_speed", schedule_max_speed),
        (
            importlib.import_module("repro.speed_scaling.yds"),
            "_max_intensity",
            max_intensity,
        ),
    ]
    # importlib, not ``from package import module``: in ``repro.qbss`` and
    # ``repro.speed_scaling`` the function of that name shadows the module.
    swaps += [
        (importlib.import_module(m), "sum_profiles", sum_profiles)
        for m in SUM_PROFILES_MODULES
    ]
    swaps += [
        (importlib.import_module(m), "max_profiles", max_profiles)
        for m in MAX_PROFILES_MODULES
    ]
    return swaps


@contextlib.contextmanager
def reference_mode() -> Iterator[None]:
    """Run the body on the segment-loop algebra instead of the kernel.

    Patches the production bindings in place, so it is not thread safe and
    is for tests and benches only.  A module first imported *inside* the
    block binds the reference functions for good; import what you need
    before entering.
    """
    with contextlib.ExitStack() as stack:
        for target, name, value in _reference_swaps():
            stack.enter_context(mock.patch.object(target, name, value))
        yield
