"""The BKP online algorithm (Bansal, Kimbrel, Pruhs 2007).

At any time ``t`` the machine runs at

    s(t) = e * max_{t1 < t <= t2}  w(t, t1, t2) / (t2 - t1)

where ``w(t, t1, t2)`` is the total work of jobs that have *arrived* by time
``t`` (``r_j <= t``), have release at least ``t1`` and deadline at most
``t2``; jobs are executed in EDF order.  BKP is ``2 (alpha/(alpha-1))^alpha
e^alpha``-competitive for energy and ``e``-competitive for maximum speed —
the best possible for a deterministic algorithm on the latter objective.

Between consecutive event times (releases and deadlines) the maximising pair
``(t1, t2)`` ranges over a fixed finite candidate set, so ``s`` is piecewise
constant with breakpoints among the events; we evaluate the inner maximum at
segment midpoints.  One release x deadline table per profile holds the
work of every window ``[t1, t2]``; a sweep over the midpoints keeps it up
to date in place as jobs arrive.  Each block of midpoints between two
releases takes one maximum over ``t1`` per ``t2``, and each midpoint is
then one suffix-maximum lookup.  That is ``O(|R| * |R| * |D|)`` work for
``|R|`` releases and ``|D|`` deadlines, against the ``O(|R| * n * |D|)``
matmul per midpoint it replaced (kept as a test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.constants import E_CONST, EPS
from ..core.edf import EDFResult, run_edf
from ..core.job import Job
from ..core.profile import Segment, SpeedProfile
from ..core.timeline import dedupe_times


@dataclass
class BKPResult:
    """Profile plus the EDF realisation of a BKP run."""

    profile: SpeedProfile
    edf: EDFResult

    @property
    def schedule(self):
        return self.edf.schedule

    @property
    def feasible(self) -> bool:
        return self.edf.feasible


class _WindowTable:
    """Arrived work of every candidate window ``[t1, t2]``, swept in time.

    Rows are the distinct releases ``U`` and columns the distinct deadlines
    ``V`` (exact values).  The table starts as the work grid turned in place
    into its prefix sum over deadlines: cell ``[u, v]`` holds the work of
    the jobs released at ``U[u]`` with deadline at most ``V[v]``.  The jobs
    released by an instant ``t`` are the first ``a`` rows, and the sweep
    turns those rows, in place and only in the columns it has reached, into
    suffix sums over release: cell ``[u, v]`` becomes the work of arrived
    jobs released at or after ``U[u]`` with deadline at most ``V[v]``,
    which is ``w(t, U[u], V[v])``.  When rows arrive, their sum is added to
    every earlier row; when the sweep reaches a column, it sums that column
    once.  Only non-negative work of arrived jobs is added, so an empty
    window is exactly 0 and no not-yet-arrived work is ever subtracted.

    The maximum over ``t1`` of each column's ratio depends on ``t`` only
    through the arrived rows and the ``t1`` candidates, so it is computed
    once per release block; each instant in the block then takes a suffix
    maximum over its ``t2`` columns.

    Candidates and tolerances are those of the definition: ``t1`` ranges
    over the deduplicated releases ``< t``, a job counts in the window when
    ``r_j >= t1 - EPS`` and ``d_j <= t2 + EPS``, and ``t2`` ranges over the
    deduplicated deadlines ``>= t`` of the arrived jobs.
    """

    def __init__(self, jobs: Sequence[Job]) -> None:
        release = np.array([j.release for j in jobs], dtype=float)
        deadline = np.array([j.deadline for j in jobs], dtype=float)
        work = np.array([j.work for j in jobs], dtype=float)
        self.releases, row = np.unique(release, return_inverse=True)
        self.deadlines, col = np.unique(deadline, return_inverse=True)
        self.table = np.zeros((self.releases.size, self.deadlines.size))
        np.add.at(self.table, (row, col), work)
        np.cumsum(self.table, axis=1, out=self.table)
        # a deadline is a t2 candidate once one of its jobs has arrived
        self.first_row = np.full(self.deadlines.size, self.releases.size)
        np.minimum.at(self.first_row, col, row)
        # columns 0 .. last_col[u] hold every deadline of rows 0 .. u
        last = np.full(self.releases.size, -1)
        np.maximum.at(last, row, col)
        self.last_col = np.maximum.accumulate(last)
        # window starts, and per start the first row with r_j >= t1 - EPS
        self.starts = np.array(dedupe_times(self.releases.tolist()))
        self.lo = np.searchsorted(self.releases, self.starts - EPS, "left")
        # per window end t2, the last column with d_j <= t2 + EPS
        self.hi = np.searchsorted(
            self.deadlines, self.deadlines + EPS, "right"
        ) - 1
        # window lengths t2 - t1; a window no longer than EPS has ratio 0
        self.span = self.deadlines - self.starts[:, None]
        self.span[self.span <= EPS] = np.inf
        # the common case needs no gathers: each start counts its own row
        # on, each end its own column back
        self.own_rows = np.array_equal(self.lo, np.arange(self.releases.size))
        self.own_cols = np.array_equal(self.hi, np.arange(self.deadlines.size))
        # no two deadlines within EPS: deduplicating any subset keeps it all
        self.distinct_ends = bool(np.all(np.diff(self.deadlines) > EPS))
        # sweep state: rows [0, arrived) hold suffix sums in the columns
        # [left, reached); everything else still holds the prefix grid
        self.arrived = 0
        self.left = 0
        self.reached = 0

    def intensities(self, times: Sequence[float]) -> list[float]:
        """The BKP intensity (without the factor e) at each of ``times``,
        which must be nondecreasing: the sweep only moves forward."""
        t = np.array(times, dtype=float)
        arrived = np.searchsorted(self.releases, t, "right")
        n_starts = np.searchsorted(self.starts, t, "left")
        first = np.searchsorted(self.deadlines, t, "left")
        out = np.zeros(t.size)
        cut = np.flatnonzero(
            (np.diff(arrived) != 0) | (np.diff(n_starts) != 0)
        ) + 1
        for begin, end in zip([0, *cut.tolist()], [*cut.tolist(), t.size]):
            a, n1 = int(arrived[begin]), int(n_starts[begin])
            k0 = int(first[begin])
            k1 = int(self.last_col[a - 1]) + 1 if a else 0
            if n1 == 0 or k0 >= k1:
                continue
            self._advance(a, k0, int(self.hi[k1 - 1]) + 1)
            best = self._column_max(a, n1, k0, k1)
            if self.distinct_ends:
                # deduplicating distinct deadlines keeps them all: the
                # candidates are every arrived column from first[i] on
                suffix = np.append(np.maximum.accumulate(best[::-1])[::-1], 0.0)
                out[begin:end] = suffix[np.minimum(first[begin:end], k1) - k0]
            else:
                for i in range(begin, end):
                    out[i] = self._deduped_max(best, a, int(first[i]), k0, k1)
        return out.tolist()

    def _advance(self, a: int, left: int, right: int) -> None:
        """Bring rows ``[0, a)`` of columns ``[left, right)`` up to date."""
        table = self.table
        old, self.left = self.arrived, max(self.left, left)
        left = self.left
        if a > old and self.reached > left:
            new = table[old:a, left:self.reached]
            np.cumsum(new[::-1], axis=0, out=new[::-1])
            table[:old, left:self.reached] += new[0]
        self.arrived = a
        if right > self.reached:
            start = max(self.reached, left)
            new = table[:a, start:right]
            np.cumsum(new[::-1], axis=0, out=new[::-1])
            self.reached = right

    def _column_max(self, a: int, n1: int, k0: int, k1: int) -> np.ndarray:
        """Per column ``t2`` in ``[k0, k1)``, the max ratio over ``t1``.

        ``a`` rows have arrived and the first ``n1`` starts are ``t1``
        candidates; columns none of whose jobs arrived read 0.
        """
        work = self.table[:n1] if self.own_rows else self.table[self.lo[:n1]]
        if self.own_cols:
            work = work[:, k0:k1]
        else:
            work = work[:, self.hi[k0:k1]]
        best = np.divide(work, self.span[:n1, k0:k1]).max(axis=0)
        best[self.first_row[k0:k1] >= a] = 0.0
        return best

    def _deduped_max(
        self, best: np.ndarray, a: int, first: int, k0: int, k1: int
    ) -> float:
        """Max of ``best`` over the deduplicated arrived deadlines from
        column ``first`` on (the general path, for near-equal deadlines)."""
        cols = [k for k in range(first, k1) if self.first_row[k] < a]
        kept = dedupe_times(self.deadlines[cols].tolist())
        idx = np.searchsorted(self.deadlines, kept) - k0
        return float(best[idx].max(initial=0.0))


def bkp_intensity_at(jobs: Sequence[Job], t: float) -> float:
    """``max_{t1 < t <= t2} w(t, t1, t2) / (t2 - t1)`` (without the factor e).

    Only jobs with ``r_j <= t`` (arrived) are visible.  The supremum over
    ``t1`` is attained at the smallest release of the chosen job set (or
    approached when that release equals ``t``; callers evaluate at times
    strictly between events so the two coincide).  A one-instant query on
    the table :func:`bkp_profile` sweeps.
    """
    positive = [j for j in jobs if j.work > 0]
    if not positive:
        return 0.0
    return _WindowTable(positive).intensities([t])[0]


def bkp_profile(jobs: Sequence[Job]) -> SpeedProfile:
    """The piecewise-constant BKP speed profile ``s(t)``."""
    live = [j for j in jobs if j.work > EPS]
    if not live:
        return SpeedProfile()
    events = dedupe_times(
        [j.release for j in live] + [j.deadline for j in live]
    )
    mids = [0.5 * (a + b) for a, b in zip(events, events[1:])]
    intensity = _WindowTable(live).intensities(mids)
    segments = []
    for a, b, value in zip(events, events[1:], intensity):
        speed = E_CONST * value
        if speed > 0:
            segments.append(Segment(a, b, speed))
    return SpeedProfile(segments)


def bkp(jobs: Sequence[Job]) -> BKPResult:
    """Run BKP: compute the profile and realise it with EDF.

    Feasibility is guaranteed by the BKP analysis (the profile always
    dominates the current critical intensity of the remaining work); tests
    assert it on random instances.
    """
    profile = bkp_profile(jobs)
    return BKPResult(profile, run_edf(jobs, profile))
