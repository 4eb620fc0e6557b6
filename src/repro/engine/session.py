"""Execution sessions: one object owning the engine's execution context.

Before 1.2, every entry point that wanted hardened execution —
:func:`repro.engine.runner.run_experiments`,
:func:`repro.traces.replay.replay_jobs` — threaded the same nine knobs by
hand (pool size, cache toggle and directory, package version, deadline,
retry policy, fault plan, tracer, metrics) into
:func:`~repro.engine.runner.execute_hardened` and
:class:`~repro.engine.cache.ResultCache`.  :class:`ExecutionSession`
bundles them: construct one, hand it to any number of runs, and the pool
configuration, cache handle and observability sinks are shared — the
prerequisite shape for a long-lived ``qbss-serve`` process, where a single
session must outlive many requests.

``session=`` is the entry points' only execution parameter; omitting it
means a default ``ExecutionSession()`` that the call opens and closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any
from collections.abc import Callable, Iterable

from .backends.base import Backend, create_backend, parse_backend_spec
from .cache import ResultCache
from .faults import FaultPlan, RetryPolicy
from .runner import (
    ExecutionStats,
    HardenedTask,
    execute_hardened,
    resolve_jobs,
)


@dataclass
class ExecutionSession:
    """The execution context shared by engine and replay runs.

    Fields:

    * ``jobs`` — pool size request (``int``, ``0``/``"auto"`` = per-CPU);
    * ``cache``/``cache_dir``/``package_version`` — the content-addressed
      :class:`~repro.engine.cache.ResultCache` configuration;
    * ``task_timeout``/``retry``/``fault_plan`` — the hardening layer;
    * ``tracer``/``metrics`` — the observability sinks
      (:class:`repro.obs.Tracer` / :class:`repro.obs.MetricsRegistry`);
    * ``backend`` — where tasks execute: a spec string (``"serial"``,
      ``"pool"``, ``"remote:HOST:PORT[,...]"``), a constructed
      :class:`~repro.engine.backends.Backend`, or ``None`` for the
      default local pool (see :mod:`repro.engine.backends`).

    The cache handle is created lazily on first use and then reused for
    the session's lifetime, so warm lookups across consecutive runs share
    one store (and one quarantine tally — callers measure deltas).

    Long-lived holders (``qbss-serve``) retire a session with
    :meth:`close` — idempotent, after which :meth:`execute` and
    :attr:`store` raise :class:`RuntimeError` — or use the session as a
    context manager.
    """

    jobs: int | str = 1
    cache: bool = True
    cache_dir: str | Path | None = None
    package_version: str | None = None
    task_timeout: float | None = None
    retry: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    tracer: Any | None = None
    metrics: Any | None = None
    backend: str | Backend | None = None

    def __post_init__(self) -> None:
        resolve_jobs(self.jobs)  # fail fast on malformed requests
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )
        if isinstance(self.backend, str):
            parse_backend_spec(self.backend)  # fail fast on malformed specs
        self._store: ResultCache | None = None
        self._backend: Backend | None = None
        self._backend_resolved: bool = False
        self._closed: bool = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Retire the session.  Idempotent; drops the cache handle.

        A closed session refuses further work (:meth:`execute` and
        :attr:`store` raise :class:`RuntimeError`) so lifecycle bugs in
        long-lived holders surface as clear errors, not stale-handle
        corruption.
        """
        self._closed = True
        self._store = None
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        self._backend_resolved = False

    def __enter__(self) -> ExecutionSession:
        self._check_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "ExecutionSession is closed; submitting work to a closed "
                "session is a bug — create a new session instead"
            )

    @property
    def pool_jobs(self) -> int:
        """The resolved concrete worker count (>= 1)."""
        return resolve_jobs(self.jobs)

    @property
    def retry_policy(self) -> RetryPolicy:
        """The retry policy, defaulted (never ``None``)."""
        return self.retry if self.retry is not None else RetryPolicy()

    @property
    def store(self) -> ResultCache | None:
        """The session's result cache (lazy; ``None`` when caching is off)."""
        self._check_open()
        if not self.cache:
            return None
        if self._store is None:
            self._store = ResultCache(self.cache_dir, metrics=self.metrics)
        return self._store

    @property
    def execution_backend(self) -> Backend | None:
        """The resolved :class:`Backend` (lazy; ``None`` = built-in pool).

        A spec string is instantiated once and reused across runs — for
        the remote backend that keeps worker connections warm between
        batches (idle links survive :meth:`Backend.release`), mirroring
        how the cache handle is shared.
        """
        self._check_open()
        if not self._backend_resolved:
            self._backend = create_backend(self.backend)
            self._backend_resolved = True
        return self._backend

    def execute(
        self,
        tasks: Iterable[HardenedTask],
        *,
        worker: Callable[..., dict[str, Any]],
        payload: Callable[[HardenedTask], tuple],
        on_success: Callable[[HardenedTask, dict[str, Any], bool], None],
        on_failure: Callable[[HardenedTask, str, str | None], None],
        jobs: int | None = None,
        max_inflight: int | None = None,
        trace_parent: Any | None = None,
    ) -> ExecutionStats:
        """Run ``tasks`` under this session's hardening and observability.

        Thin wrapper over :func:`~repro.engine.runner.execute_hardened`
        with the session supplying pool size, retry policy, deadline and
        tracer.  ``jobs`` overrides the pool size for this call only (the
        engine shrinks it to the task count).
        """
        self._check_open()
        return execute_hardened(
            tasks,
            worker=worker,
            payload=payload,
            on_success=on_success,
            on_failure=on_failure,
            jobs=self.pool_jobs if jobs is None else jobs,
            retry=self.retry_policy,
            task_timeout=self.task_timeout,
            max_inflight=max_inflight,
            tracer=self.tracer,
            trace_parent=trace_parent,
            backend=self.execution_backend,
        )
