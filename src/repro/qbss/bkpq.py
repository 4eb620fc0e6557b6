"""BKPQ — BKP with Queries (paper Sec. 5.2).

The online adaptation of BKP to the QBSS model: query a job exactly when
``c_j <= w_j / phi`` (the golden-ratio rule), with the equal-window split.
Queried jobs spawn ``(r, (r+d)/2, c)`` at arrival and ``((r+d)/2, d, w*)``
at the midpoint; unqueried jobs spawn ``(r, d, w)``.  BKP runs over the
derived stream.

Guarantees: ``s_BKPQ(t) <= (2 + phi) s_BKP*(t)`` pointwise (Theorem 5.4),
hence ``(2+phi)^alpha * 2 (alpha/(alpha-1))^alpha e^alpha``-competitive for
energy and ``(2+phi) e``-competitive for maximum speed (Corollary 5.5).
"""

from __future__ import annotations

from ..core.edf import run_edf
from ..core.instance import QBSSInstance
from ..speed_scaling.bkp import bkp_profile
from .avrq import check_queries_complete
from .policies import EqualWindowSplit, QueryPolicy, golden_ratio_policy
from .result import QBSSResult
from .transform import derive_online


def bkpq(
    qinstance: QBSSInstance,
    *,
    query_policy: QueryPolicy | None = None,
    split_policy=None,
) -> QBSSResult:
    """Run BKPQ on a single machine.

    ``query_policy`` defaults to the golden-ratio rule and ``split_policy``
    to the equal window; the ablation benches inject alternatives.
    """
    if qinstance.machines != 1:
        raise ValueError("bkpq is a single-machine algorithm")
    policy = query_policy or golden_ratio_policy()
    derived = derive_online(qinstance, policy, split_policy or EqualWindowSplit())
    jobs = derived.jobs
    profile = bkp_profile(jobs)
    edf = run_edf(jobs, profile)
    if not edf.feasible:  # pragma: no cover - BKP profiles are feasible
        raise RuntimeError(f"BKPQ internal error: EDF infeasible ({edf.unfinished})")
    check_queries_complete(derived, edf.schedule)
    return QBSSResult(
        edf.schedule, [profile], derived.instance(), derived.decisions,
        qinstance, "BKPQ",
    )
