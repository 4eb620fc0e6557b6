#!/usr/bin/env python
"""Replay a cluster log through the QBSS online algorithms.

Generates a synthetic Standard Workload Format trace (no external data
needed — swap in any real SWF archive from the Parallel Workloads
Archive), then replays it twice through the streaming shard evaluator:
once under the benign ``multiplicative`` noise model and once under the
``adversarial`` one, where every job sits exactly on the golden-ratio
query/skip boundary.  Ends by demonstrating the warm-cache path: the
second pass over identical shards is served entirely from the
content-addressed cache, byte-identical to the cold run.

This is the library face of the ``qbss-replay`` CLI:

    qbss-replay trace.swf --noise-model adversarial --shard-window 1800

Run:  python examples/trace_replay_swf.py
"""

import json
import tempfile
from pathlib import Path

from repro.engine import ExecutionSession
from repro.traces import replay_trace
from repro.workloads import write_synthetic_swf

N_JOBS = 150
SHARD_WINDOW = 1800.0  # half an hour of trace time per shard
ALPHA = 3.0


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        trace = write_synthetic_swf(
            Path(tmp) / "synthetic.swf", N_JOBS, seed=7, arrival_rate=0.02
        )
        cache_dir = Path(tmp) / "cache"
        print(
            f"synthetic SWF log: {N_JOBS} jobs, Poisson arrivals, "
            f"lognormal runtimes -> {trace.name}\n"
        )

        for noise in ("multiplicative", "adversarial"):
            report, metrics = replay_trace(
                trace,
                noise_model=noise,
                seed=0,
                shard_window=SHARD_WINDOW,
                alpha=ALPHA,
                session=ExecutionSession(cache_dir=cache_dir),
            )
            print(report.render(max_shard_rows=5))
            print(metrics.footer())
            print()

        # warm pass: same parameters, every shard served from the cache
        report_cold, _ = replay_trace(
            trace,
            noise_model="multiplicative",
            seed=0,
            shard_window=SHARD_WINDOW,
            alpha=ALPHA,
            session=ExecutionSession(cache_dir=cache_dir),
        )
        report_warm, metrics_warm = replay_trace(
            trace,
            noise_model="multiplicative",
            seed=0,
            shard_window=SHARD_WINDOW,
            alpha=ALPHA,
            session=ExecutionSession(cache_dir=cache_dir),
        )
        identical = json.dumps(report_cold.to_dict(), sort_keys=True) == (
            json.dumps(report_warm.to_dict(), sort_keys=True)
        )
        print(
            f"warm replay: {metrics_warm.hits} cache hits, "
            f"{metrics_warm.misses} misses; byte-identical to cold run: "
            f"{identical}"
        )


if __name__ == "__main__":
    main()
