"""The clairvoyant optimal baseline.

Section 3 of the paper: *"the optimal offline solution for the QBSS model
coincides with the optimal offline solution in the classical speed scaling
setting by using a job (r_j, d_j, p*_j) for each job j"*, where
``p*_j = min{w_j, c_j + w*_j}``.  Every approximation and competitive ratio
in the library is measured against the values computed here.

Subtlety worth recording: on a single machine the *value* of the optimum
equals YDS on ``I*`` — the optimal schedule can always order a queried job's
query before its revealed load inside the window at the single YDS speed,
so collapsing the pair into one job of load ``p*`` loses nothing.  On ``m``
machines the same argument holds per machine because the optimum never runs
a job parallel to itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.constants import DEFAULT_ALPHA
from ..core.instance import Instance, QBSSInstance
from ..core.power import PowerFunction
from ..core.profile import SpeedProfile
from ..core.schedule import Schedule
from ..speed_scaling.multi.bounds import max_speed_lower_bound, pooled_lower_bound
from ..speed_scaling.multi.optimal import convex_optimal_energy
from ..speed_scaling.yds import yds


@dataclass
class ClairvoyantBaseline:
    """Optimal-energy / optimal-max-speed values for a QBSS instance."""

    instance: QBSSInstance
    star: Instance
    energy_value: float
    max_speed_value: float
    schedule: Schedule | None
    profile: SpeedProfile | None
    exact: bool  # False when the multi-machine value is the pooled lower bound


def clairvoyant(
    qinstance: QBSSInstance,
    *,
    alpha: float = DEFAULT_ALPHA,
    exact_multi: bool = False,
) -> ClairvoyantBaseline:
    """Compute the clairvoyant optimum for ``qinstance``.

    Single machine: YDS on ``I*`` (exact, with schedule and profile).
    Multiple machines: by default the pooled lower bound (fast, always
    valid — measured ratios become conservative *upper* estimates);
    ``exact_multi=True`` solves the convex program instead (small n only).
    """
    star = qinstance.clairvoyant_instance()
    if qinstance.machines == 1:
        result = yds(list(star.jobs))
        power = PowerFunction(alpha)
        return ClairvoyantBaseline(
            instance=qinstance,
            star=star,
            energy_value=result.profile.energy(power),
            max_speed_value=result.profile.max_speed(),
            schedule=result.schedule,
            profile=result.profile,
            exact=True,
        )
    jobs = list(star.jobs)
    m = qinstance.machines
    if exact_multi:
        from ..speed_scaling.multi.optimal import optimal_schedule

        energy = convex_optimal_energy(jobs, m, alpha)
        schedule = optimal_schedule(jobs, m, alpha)
        exact = True
    else:
        energy = pooled_lower_bound(jobs, m, alpha)
        schedule = None
        exact = False
    return ClairvoyantBaseline(
        instance=qinstance,
        star=star,
        energy_value=energy,
        max_speed_value=max_speed_lower_bound(jobs, m),
        schedule=schedule,
        profile=None,
        exact=exact,
    )


def clairvoyant_values(
    qinstance: QBSSInstance,
    *,
    alpha: float = DEFAULT_ALPHA,
    exact_multi: bool = False,
) -> ClairvoyantBaseline:
    """Values-only clairvoyant optimum (no schedule materialisation).

    Produces the same ``energy_value`` / ``max_speed_value`` /
    ``exact`` as :func:`clairvoyant` — bit for bit — but skips
    everything ratio measurement never reads: on a single machine the
    EDF realisation inside each YDS critical interval (via
    :func:`~repro.speed_scaling.yds.yds_profile`), and on multiple
    machines with ``exact_multi`` the ``optimal_schedule`` solve.  The
    fast path for per-shard baselines in trace replay, where one
    baseline serves every algorithm.
    """
    from ..speed_scaling.yds import yds_profile

    star = qinstance.clairvoyant_instance()
    if qinstance.machines == 1:
        profile = yds_profile(list(star.jobs))
        return ClairvoyantBaseline(
            instance=qinstance,
            star=star,
            energy_value=profile.energy(PowerFunction(alpha)),
            max_speed_value=profile.max_speed(),
            schedule=None,
            profile=profile,
            exact=True,
        )
    jobs = list(star.jobs)
    m = qinstance.machines
    if exact_multi:
        energy = convex_optimal_energy(jobs, m, alpha)
        exact = True
    else:
        energy = pooled_lower_bound(jobs, m, alpha)
        exact = False
    return ClairvoyantBaseline(
        instance=qinstance,
        star=star,
        energy_value=energy,
        max_speed_value=max_speed_lower_bound(jobs, m),
        schedule=None,
        profile=None,
        exact=exact,
    )


def optimal_energy(qinstance: QBSSInstance, alpha: float, exact_multi: bool = False) -> float:
    """Clairvoyant optimal energy (see :func:`clairvoyant`)."""
    return clairvoyant(qinstance, alpha=alpha, exact_multi=exact_multi).energy_value


def optimal_max_speed(qinstance: QBSSInstance) -> float:
    """Clairvoyant optimal maximum speed."""
    return clairvoyant(qinstance, alpha=2.0).max_speed_value
