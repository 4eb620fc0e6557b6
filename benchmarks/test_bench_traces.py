"""TRACES — shard throughput of the streaming replayer, cold vs warm.

Generates a 10k-job synthetic SWF log (Poisson arrivals over ~140 hourly
shards), replays it cold (every shard evaluated) and warm (every shard
served from the content-addressed cache), and records both shard rates.
The warm pass must dominate — a hit is one JSON read — and both passes
must produce byte-identical reports, the replay determinism guarantee.

Writes ``benchmarks/results/replay_trace_shard_rates.json``; CI uploads
the ``benchmarks/results`` JSONs as the ``replay-benchmarks`` artifact.
"""

import json

import pytest

from repro.engine import ExecutionSession
from repro.traces import replay_trace
from repro.workloads import write_synthetic_swf

N_JOBS = 10_000
SHARD_WINDOW = 3600.0
SEED = 1


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("traces")
    return write_synthetic_swf(root / "bench_10k.swf", N_JOBS, seed=SEED)


def _replay(trace_path, cache_dir):
    return replay_trace(
        trace_path,
        shard_window=SHARD_WINDOW,
        session=ExecutionSession(jobs=1, cache_dir=cache_dir),
    )


def test_bench_replay_cold_vs_warm(trace_path, tmp_path, results_dir):
    cache_dir = tmp_path / "cache"
    cold_report, cold = _replay(trace_path, cache_dir)
    warm_report, warm = _replay(trace_path, cache_dir)

    assert cold.misses == cold.shards > 100
    assert warm.hits == warm.shards and warm.misses == 0
    assert cold_report.n_jobs == N_JOBS
    # determinism: the cached pass reproduces the cold pass byte for byte
    assert json.dumps(warm_report.to_dict(), sort_keys=True) == json.dumps(
        cold_report.to_dict(), sort_keys=True
    )

    cold_rate = cold.shards / cold.wall_time
    warm_rate = warm.shards / warm.wall_time
    assert warm.wall_time < 0.5 * cold.wall_time, (
        f"warm {warm.wall_time:.2f}s not well under cold {cold.wall_time:.2f}s"
    )

    payload = {
        "trace_jobs": N_JOBS,
        "shards": cold.shards,
        "shard_window": SHARD_WINDOW,
        "cold_wall_s": round(cold.wall_time, 4),
        "warm_wall_s": round(warm.wall_time, 4),
        "cold_shards_per_s": round(cold_rate, 2),
        "warm_shards_per_s": round(warm_rate, 2),
        "warm_speedup": round(cold.wall_time / warm.wall_time, 2),
        "peak_resident_jobs": cold.peak_resident_jobs,
    }
    out = results_dir / "replay_trace_shard_rates.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_bench_replay_warm_rate(benchmark, trace_path, tmp_path):
    cache_dir = tmp_path / "cache"
    _replay(trace_path, cache_dir)  # prime

    def warm():
        return _replay(trace_path, cache_dir)

    report, metrics = benchmark.pedantic(warm, rounds=3, iterations=1)
    assert metrics.hits == metrics.shards
    assert len(report.shards) == metrics.shards


def test_bench_replay_cold_rate(benchmark, trace_path, tmp_path):
    counter = iter(range(10**6))

    def cold():
        return _replay(trace_path, tmp_path / str(next(counter)))

    report, metrics = benchmark.pedantic(cold, rounds=1, iterations=1)
    assert metrics.misses == metrics.shards
    assert metrics.peak_resident_jobs < N_JOBS  # streaming stayed bounded
