"""One cold start of a replay workload, in a fresh interpreter.

    python3 perfbench/warmstart.py SRC WORKLOAD SEED

Imports the program from SRC, opens the workload's ``ExecutionSession``
(serial for replay_dense, a 2-worker pool for replay_pool) and replays a
4-job, 2-shard warm-up input through it, so the pool spawns both workers.
``run.py`` times the whole process as one set-up: the start every
``qbss-replay`` invocation pays before its first real shard.  The
benchmark process cannot time this itself, since it has the program
imported already.
"""

from __future__ import annotations

import sys

import workloads as wl


def main(src: str, workload: str, seed: int) -> None:
    sys.path.insert(0, src)
    from repro.core.qjob import QJob
    from repro.engine.session import ExecutionSession
    from repro.traces.replay import replay_jobs

    pool = workload == "replay_pool"
    jobs = [
        QJob(*fields, id=f"w{op}-{i}")
        for op in (0, 1)
        for i, fields in enumerate(wl.dense_shard(seed, op)[:2])
    ]
    with ExecutionSession(
        jobs=2 if pool else 1, backend="pool" if pool else "serial", cache=False
    ) as session:
        report, _ = replay_jobs(
            iter(jobs), alpha=wl.ALPHA, shard_window=wl.DENSE_WINDOW, session=session
        )
    if len(report.shards) != 2 or any(s.get("status") != "ok" for s in report.shards):
        raise SystemExit(f"warm-up replay failed: {report.shards}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
