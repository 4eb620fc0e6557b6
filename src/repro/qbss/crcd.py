"""CRCD — Common Release, Common Deadline (paper Algorithm 1, Sec. 4.2).

All jobs share the window ``(r0, r0 + D]``.  The algorithm:

1. partitions the jobs with the golden-ratio rule into ``A`` (no query,
   ``c_j > w_j/phi``) and ``B`` (query, ``c_j <= w_j/phi``);
2. first half ``(r0, r0 + D/2]``: runs every query ``c_j`` (jobs in ``B``)
   and *half* of every unqueried workload ``w_j/2`` (jobs in ``A``) at the
   constant speed equal to the sum of their densities;
3. at the half point every query has completed, revealing the exact loads;
4. second half: runs the revealed loads ``w*_j`` and the remaining halves
   ``w_j/2`` at the sum of their densities.

Guarantees (Theorem 4.6): 2-approximate for maximum speed and
``min{2^{alpha-1} phi^alpha, 2^alpha}``-approximate for energy, with the
refined ``rho_3`` ratio of Theorem 4.8 for ``alpha >= 2``.
"""

from __future__ import annotations


from ..core.constants import EPS
from ..core.instance import Instance, QBSSInstance
from ..core.job import Job
from ..core.profile import Segment, SpeedProfile
from ..core.schedule import Schedule
from .decisions import DecisionLog, QueryDecision
from .packing import pack_sequential
from .policies import QueryPolicy, golden_ratio_policy
from .result import QBSSResult


def crcd(
    qinstance: QBSSInstance,
    *,
    query_policy: QueryPolicy | None = None,
) -> QBSSResult:
    """Run CRCD on a common-release common-deadline instance.

    ``query_policy`` defaults to the golden-ratio rule; the ablation benches
    inject other policies to quantify how much the rule matters.
    """
    return crcd_tuned(qinstance, query_policy=query_policy)


def crcd_tuned(
    qinstance: QBSSInstance,
    x: float = 0.5,
    lam: float = 0.5,
    query_policy: QueryPolicy | None = None,
    name: str = "CRCD",
) -> QBSSResult:
    """CRCD's design space opened up: phase split ``x`` and workload split
    ``lam``.

    Phase 1 is ``(r0, r0 + x D]`` and runs every query plus the fraction
    ``lam`` of each un-queried workload; phase 2 runs the revealed loads
    plus the remaining ``1 - lam``.  ``x = lam = 1/2`` is exactly the
    paper's Algorithm 1; the minimax experiment
    (:func:`repro.analysis.experiments.experiment_minimax`) shows other
    points can win per instance, and the ``crcd-design-space`` bench sweeps
    the plane empirically.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"phase split x must be in (0, 1), got {x}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"workload split lam must be in [0, 1], got {lam}")
    if qinstance.machines != 1:
        raise ValueError("CRCD is a single-machine algorithm")
    if len(qinstance) == 0:
        return QBSSResult(
            Schedule(1), [SpeedProfile()], Instance([]), DecisionLog(), qinstance, name
        )
    if not qinstance.common_release or not qinstance.common_deadline:
        raise ValueError("CRCD requires a common release and a common deadline")

    policy = query_policy or golden_ratio_policy()
    r0 = qinstance.jobs[0].release
    d = qinstance.jobs[0].deadline
    half = r0 + x * (d - r0)
    half_len = half - r0

    log = DecisionLog()
    views = qinstance.views()

    # -- phase 1: queries (B) + the lam-fraction of unqueried workloads (A) ---
    first_works: list[tuple[str, float]] = []
    derived: list[Job] = []
    queried_views = []
    for view in views:
        if policy.should_query(view):
            log.record(view.id, QueryDecision(True, x))
            first_works.append((view.id + ":query", view.query_cost))
            derived.append(Job(r0, half, view.query_cost, view.id + ":query"))
            queried_views.append(view)
        else:
            log.record(view.id, QueryDecision(False))
            part = lam * view.work_upper
            if part > EPS:
                first_works.append((view.id + ":full1", part))
                derived.append(Job(r0, half, part, view.id + ":full1"))

    s1 = sum(w for _, w in first_works) / half_len
    schedule = Schedule(1)
    if s1 > 0:
        for sl in pack_sequential(first_works, r0, half, s1):
            schedule.add(sl.start, sl.end, sl.speed, sl.job_id)

    # -- split point: all queries are complete; reveal the exact loads --------
    queried_ids = {v.id for v in queried_views}
    second_works: list[tuple[str, float]] = []
    for view in views:
        if view.id in queried_ids:
            wstar = view.reveal(half)
            second_works.append((view.id + ":work", wstar))
            derived.append(Job(half, d, wstar, view.id + ":work"))
        else:
            part = (1.0 - lam) * view.work_upper
            if part > EPS:
                second_works.append((view.id + ":full2", part))
                derived.append(Job(half, d, part, view.id + ":full2"))

    s2 = sum(w for _, w in second_works) / (d - half)
    if s2 > 0:
        for sl in pack_sequential(second_works, half, d, s2):
            schedule.add(sl.start, sl.end, sl.speed, sl.job_id)

    segments = []
    if s1 > 0:
        segments.append(Segment(r0, half, s1))
    if s2 > 0:
        segments.append(Segment(half, d, s2))
    profile = SpeedProfile(segments)

    derived_instance = Instance(derived)
    return QBSSResult(
        schedule, [profile], derived_instance, log, qinstance, name
    )
