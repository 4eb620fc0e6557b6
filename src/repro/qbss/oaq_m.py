"""OAQ(m): the OA-with-queries extension on m parallel machines.

Combines the Section 7 open question (does OA extend to QBSS?) with the
Section 6 multi-machine setting: golden-ratio queries, equal-window split,
OA(m) replanning over the derived stream.  Purely an empirical extension —
no bound is claimed; the multi-machine bench compares it against AVRQ(m).
"""

from __future__ import annotations

from ..core.constants import DEFAULT_ALPHA
from ..core.instance import QBSSInstance
from ..speed_scaling.multi.oa_m import oa_m
from .avrq import check_queries_complete
from .policies import EqualWindowSplit, QueryPolicy, golden_ratio_policy
from .result import QBSSResult
from .transform import derive_online


def oaq_m(
    qinstance: QBSSInstance,
    *,
    alpha: float = DEFAULT_ALPHA,
    query_policy: QueryPolicy | None = None,
    split_policy=None,
) -> QBSSResult:
    """Run OAQ(m) on the instance's machines.

    ``alpha`` parameterises the per-arrival energy-optimal replanning (the
    plan depends on the power exponent, unlike AVR's densities).
    """
    m = qinstance.machines
    policy = query_policy or golden_ratio_policy()
    derived = derive_online(qinstance, policy, split_policy or EqualWindowSplit())
    result = oa_m(derived.jobs, m, alpha=alpha)
    if not result.feasible:  # pragma: no cover - replanned optima are feasible
        raise RuntimeError(
            f"OAQ(m) internal error: unfinished {result.unfinished}"
        )
    check_queries_complete(derived, result.schedule)
    return QBSSResult(
        result.schedule,
        result.profiles,
        derived.instance(m),
        derived.decisions,
        qinstance,
        f"OAQ({m})",
    )
