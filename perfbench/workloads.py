"""Seeded input generators for the benchmark workloads.

Everything a workload feeds the program is drawn here from the
``--seed`` argument with :class:`random.Random`, whose streams are fixed
across Python versions.  Nothing comes from ``repro.workloads``, so a
change to the program cannot change the inputs it is measured on.

All generators return plain data (tuples, JSONL text, SWF text); the
replay workload turns its tuples into ``QJob`` objects itself.
"""

from __future__ import annotations

import json
import random

#: The power exponent every workload runs with.
ALPHA = 3.0

#: Dense replay: jobs per shard, shard window, and the deadline window
#: range.  The deadline window (40-160) is far larger than the mean
#: inter-arrival gap (1), so candidate windows overlap heavily.
DENSE_JOBS = 400
DENSE_WINDOW = 400.0
DENSE_SPAN = (40.0, 160.0)

#: Pool replay: one SWF trace of POOL_JOBS records, POOL_PER_SHARD per
#: POOL_WINDOW-wide shard (20 shards per replay call).
POOL_JOBS = 1000
POOL_PER_SHARD = 50
POOL_WINDOW = 1000.0

#: Serve requests: SERVE_WINDOW is the daemon's --shard-window.
SERVE_WINDOW = 100.0
SPARSE_JOBS = 20
SPARSE_PER_SHARD = 5
CACHED_BATCHES = 8
CACHED_JOBS = 200
CACHED_PER_SHARD = 50


def _rng(seed: int, *stream: object) -> random.Random:
    """An independent stream per (seed, purpose, index)."""
    return random.Random(":".join(str(part) for part in (seed, *stream)))


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """``n`` values, one drawn from each of ``n`` equal slices of
    ``[lo, hi)``, in random order.  Every seed gets the same spread of
    values, so the cost of a shard varies little from seed to seed."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def dense_shard(seed: int, op: int) -> list[tuple[float, float, float, float, float]]:
    """One replay_dense shard: ``(release, deadline, c, w, w*)`` tuples,
    release-sorted inside the window ``[op * DENSE_WINDOW, +DENSE_WINDOW)``."""
    rng = _rng(seed, "dense", op)
    origin = op * DENSE_WINDOW
    gap = DENSE_WINDOW / DENSE_JOBS
    n = DENSE_JOBS
    spans = _stratified(rng, n, *DENSE_SPAN)
    w_true = _stratified(rng, n, 1.0, 10.0)
    w_factor = _stratified(rng, n, 1.0, 3.0)
    q_frac = _stratified(rng, n, 0.05, 0.5)
    jobs = []
    for i in range(n):
        release = origin + (i + rng.random()) * gap
        w_upper = w_true[i] * w_factor[i]
        jobs.append((release, release + spans[i], w_upper * q_frac[i], w_upper, w_true[i]))
    return jobs


def swf_trace(seed: int) -> str:
    """The replay_pool trace in Standard Workload Format (18 fields).

    Releases are stratified so every shard holds exactly POOL_PER_SHARD
    jobs; the requested time (field 9) sets the deadline through the
    replayer's deadline slack.
    """
    rng = _rng(seed, "swf")
    gap = POOL_WINDOW / POOL_PER_SHARD
    runtimes = _stratified(rng, POOL_JOBS, 5.0, 60.0)
    factors = _stratified(rng, POOL_JOBS, 1.0, 2.0)
    lines = ["; perfbench replay_pool trace, seed %d" % seed]
    for i in range(POOL_JOBS):
        shard, slot = divmod(i, POOL_PER_SHARD)
        submit = shard * POOL_WINDOW + (slot + rng.random()) * gap
        runtime = runtimes[i]
        requested = runtime * factors[i]
        lines.append(
            f"{i + 1} {submit:.3f} 0 {runtime:.3f} 1 -1 -1 1 {requested:.3f} "
            "-1 1 1 1 -1 1 -1 -1 -1"
        )
    return "\n".join(lines) + "\n"


def _request_body(rng: random.Random, origin: float, n: int, per_shard: int) -> str:
    """JSONL for ``n`` release-sorted jobs, ``per_shard`` per serve window."""
    gap = SERVE_WINDOW / per_shard
    runtimes = _stratified(rng, n, 1.0, 10.0)
    spans = _stratified(rng, n, 20.0, 80.0)
    lines = []
    for i in range(n):
        release = origin + (i + rng.random()) * gap
        job = {
            "id": f"j{i}",
            "release": round(release, 6),
            "runtime": round(runtimes[i], 6),
            "deadline": round(release + spans[i], 6),
        }
        lines.append(json.dumps(job, sort_keys=True))
    return "\n".join(lines) + "\n"


def sparse_request(seed: int, index: int) -> str:
    """serve_sparse request ``index``: SPARSE_JOBS jobs on windows no
    other request touches, so every shard is a cache miss."""
    shards = SPARSE_JOBS // SPARSE_PER_SHARD
    origin = index * shards * SERVE_WINDOW
    return _request_body(_rng(seed, "sparse", index), origin, SPARSE_JOBS, SPARSE_PER_SHARD)


def cached_batches(seed: int) -> list[str]:
    """The serve_cached working set: CACHED_BATCHES distinct batches."""
    shards = CACHED_JOBS // CACHED_PER_SHARD
    return [
        _request_body(
            _rng(seed, "cached", b), b * shards * SERVE_WINDOW, CACHED_JOBS, CACHED_PER_SHARD
        )
        for b in range(CACHED_BATCHES)
    ]

