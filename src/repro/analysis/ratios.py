"""Measuring algorithms against the clairvoyant optimum.

The unit of every experiment is a *ratio measurement*: run an algorithm on
a QBSS instance, validate the schedule, and divide its energy / max speed
by the clairvoyant baseline's.  :func:`measure` does one instance;
:func:`measure_many` aggregates a batch (max and mean ratios — the max is
what competitive analysis talks about).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable

from ..core.constants import DEFAULT_ALPHA
from ..core.instance import QBSSInstance
from ..core.power import PowerFunction
from ..qbss.clairvoyant import ClairvoyantBaseline, clairvoyant
from ..qbss.registry import get_algorithm
from ..qbss.result import QBSSResult

#: Algorithms are passed either as a callable ``qi -> QBSSResult`` or as an
#: :data:`~repro.qbss.registry.ALGORITHMS` name (resolved at measure time).
Algorithm = Callable[[QBSSInstance], QBSSResult] | str


def _resolve_algorithm(algorithm: Algorithm, alpha: float):
    """Turn a registry name into its runner (callables pass through)."""
    if not isinstance(algorithm, str):
        return algorithm
    spec = get_algorithm(algorithm)
    if "alpha" in spec.accepts:
        return lambda qi: spec.fn(qi, alpha=alpha)
    return spec.fn


@dataclass(frozen=True)
class RatioMeasurement:
    """One algorithm run compared against the clairvoyant optimum."""

    algorithm: str
    energy: float
    optimal_energy: float
    max_speed: float
    optimal_max_speed: float
    feasible: bool
    exact_baseline: bool  # False => multi-machine pooled LB (conservative)

    @property
    def energy_ratio(self) -> float:
        if self.optimal_energy <= 0:
            return math.inf if self.energy > 0 else 1.0
        return self.energy / self.optimal_energy

    @property
    def max_speed_ratio(self) -> float:
        if self.optimal_max_speed <= 0:
            return math.inf if self.max_speed > 0 else 1.0
        return self.max_speed / self.optimal_max_speed


def measure(
    algorithm: Algorithm,
    qinstance: QBSSInstance,
    *,
    alpha: float = DEFAULT_ALPHA,
    exact_multi: bool = False,
    validate: bool = True,
    baseline: "ClairvoyantBaseline | None" = None,
) -> RatioMeasurement:
    """Run ``algorithm`` on ``qinstance`` and compare against the optimum.

    ``algorithm`` may be an :data:`~repro.qbss.registry.ALGORITHMS` name
    (e.g. ``"bkpq"``) or any callable ``qi -> QBSSResult``.  ``baseline``
    supplies a precomputed clairvoyant optimum for ``qinstance`` (e.g. one
    shared across the algorithms of a replay shard); when omitted, it is
    computed here.
    """
    result = _resolve_algorithm(algorithm, alpha)(qinstance)
    if validate:
        result.validate().raise_if_infeasible()
    power = PowerFunction(alpha)
    base = (
        baseline
        if baseline is not None
        else clairvoyant(qinstance, alpha=alpha, exact_multi=exact_multi)
    )
    return RatioMeasurement(
        algorithm=result.algorithm or getattr(algorithm, "__name__", "algorithm"),
        energy=result.energy(power),
        optimal_energy=base.energy_value,
        max_speed=result.max_speed(),
        optimal_max_speed=base.max_speed_value,
        feasible=True,
        exact_baseline=base.exact,
    )


@dataclass(frozen=True)
class RatioSummary:
    """Aggregate of many measurements of one algorithm."""

    algorithm: str
    count: int
    max_energy_ratio: float
    mean_energy_ratio: float
    max_speed_ratio: float
    mean_speed_ratio: float
    exact_baseline: bool


def measure_many(
    algorithm: Algorithm,
    instances: Iterable[QBSSInstance],
    *,
    alpha: float = DEFAULT_ALPHA,
    exact_multi: bool = False,
) -> RatioSummary:
    """Measure a batch of instances and aggregate."""
    measurements: list[RatioMeasurement] = [
        measure(algorithm, inst, alpha=alpha, exact_multi=exact_multi)
        for inst in instances
    ]
    if not measurements:
        raise ValueError("need at least one instance")
    name = measurements[0].algorithm
    e_ratios = [m.energy_ratio for m in measurements]
    s_ratios = [m.max_speed_ratio for m in measurements]
    return RatioSummary(
        algorithm=name,
        count=len(measurements),
        max_energy_ratio=max(e_ratios),
        mean_energy_ratio=sum(e_ratios) / len(e_ratios),
        max_speed_ratio=max(s_ratios),
        mean_speed_ratio=sum(s_ratios) / len(s_ratios),
        exact_baseline=all(m.exact_baseline for m in measurements),
    )


# -- reference baselines -------------------------------------------------------------


def never_query_offline(qinstance: QBSSInstance) -> QBSSResult:
    """Optimal offline schedule that never queries: YDS on ``(r, d, w_j)``.

    This is the strongest member of the never-query class, so its measured
    ratio *lower-bounds* every never-query algorithm — the right comparator
    for Lemma 4.1.
    """
    from ..core.schedule import Schedule
    from ..qbss.decisions import DecisionLog, QueryDecision
    from ..speed_scaling.yds import yds

    if qinstance.machines != 1:
        raise ValueError("never_query_offline is single-machine")
    upper = qinstance.upper_bound_instance()
    run = yds(list(upper.jobs))
    log = DecisionLog()
    for j in qinstance:
        log.record(j.id, QueryDecision(False))
    return QBSSResult(
        run.schedule, [run.profile], upper, log, qinstance, "NeverQuery-YDS"
    )


def always_query_equal_window_offline(qinstance: QBSSInstance) -> QBSSResult:
    """Optimal offline schedule of the always-query equal-window class.

    YDS on the derived half-window jobs; every equal-window always-query
    algorithm is at least this expensive (used by the Lemma 4.5 bench).
    Information-wise this is a relaxation — YDS sees ``w*`` — which is
    exactly what makes it a *lower bound* for the class.
    """
    from ..core.job import Job
    from ..core.instance import Instance
    from ..qbss.decisions import DecisionLog, QueryDecision
    from ..speed_scaling.yds import yds

    if qinstance.machines != 1:
        raise ValueError("always_query_equal_window_offline is single-machine")
    derived = []
    log = DecisionLog()
    for j in qinstance:
        mid = j.midpoint
        derived.append(Job(j.release, mid, j.query_cost, j.id + ":query"))
        derived.append(Job(mid, j.deadline, j.work_true, j.id + ":work"))
        log.record(j.id, QueryDecision(True, 0.5))
    run = yds(derived)
    return QBSSResult(
        run.schedule,
        [run.profile],
        Instance(derived),
        log,
        qinstance,
        "EqualWindow-YDS",
    )
