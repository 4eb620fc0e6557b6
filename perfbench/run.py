"""The repository benchmark: four fixed workloads, end-to-end metrics and
a traced per-layer breakdown.  See perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit status: 0 = outputs correct, 1 = a correctness check failed,
2 = the program could not be set up (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

import workloads as wl  # noqa: E402  (sibling module; run as a script)
from layers import PER_LAYER, TARGETS, layer_metrics  # noqa: E402
from loadgen import Outcome, closed_loop, percentile, post_jobs, samples_beyond  # noqa: E402
from shims import Recorder, install, read_spans, summarize, uninstall, write_spans  # noqa: E402

if TYPE_CHECKING:
    from repro.engine.session import ExecutionSession

ALPHA = wl.ALPHA
SETUP_REPEATS = 5
#: Throughput is the median over this many runs of consecutive operations.
CHUNKS = 10
SERIAL_RUNS = 3  # serial reference replays behind engine.parallel_efficiency
#: Distinct serve_sparse requests made per timed second, more than the
#: one caller can send: no request repeats, so every shard misses.
SPARSE_PER_SECOND = 100
#: Tolerance of the "no schedule beats the clairvoyant optimum" check.
RATIO_FLOOR = 1.0 - 1e-9

END_TO_END = (
    ("throughput_jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("slo_attainment", "ratio"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Op:
    """One timed operation: a replay call or a serve request."""

    rid: str
    latency: float  # seconds
    jobs: int
    ok: bool


@dataclass
class Phase:
    """What one timed phase produced."""

    ops: list[Op]
    shards: int = 0
    retries: int = 0
    degraded: int = 0
    client_latency: dict[str, float] = field(default_factory=dict)

    def throughput(self) -> float | None:
        """Jobs per second: the phase's operations are cut into CHUNKS
        runs of consecutive ones, each run's successful jobs are divided
        by its length times its median operation time, and the median
        run is reported.  A stall of the host then moves neither the run
        it falls in nor the figure.  ``None`` when no operation
        succeeded."""
        if not any(o.ok for o in self.ops):
            return None
        n = len(self.ops)
        k = min(CHUNKS, n)
        runs = [self.ops[i * n // k:(i + 1) * n // k] for i in range(k)]
        return statistics.median(
            sum(o.jobs for o in run if o.ok) / (len(run) * statistics.median(o.latency for o in run))
            for run in runs
        )


@dataclass
class Workload:
    slo_ms: float  # latency limit for slo_attainment
    setup: Callable[[Run], float]  # one set-up; returns its seconds
    phase: Callable[[Run, bool], Phase]  # one timed phase (traced?)
    check: Callable[[Run], None]  # correctness gate, outside the timing
    teardown: Callable[[Run], None]


@dataclass
class Run:
    """State of one benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    state: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    rss_kb: int = 0

    def fail(self, message: str) -> None:
        self.violations.append(message)


# -- correctness --------------------------------------------------------------------


def shard_ok(shard: dict) -> bool:
    return shard.get("status") == "ok"


def check_shards(run: Run, shards: list[dict], jobs: int, algorithms: int, where: str) -> None:
    """Value checks on the shards of one successful operation."""
    if sum(int(s.get("n_jobs", 0)) for s in shards) != jobs:
        run.fail(f"{where}: shards hold {sum(s.get('n_jobs', 0) for s in shards)} jobs, sent {jobs}")
    for shard in shards:
        rows = shard.get("rows", [])
        if len(rows) != algorithms:
            run.fail(f"{where}: shard {shard.get('index')} has {len(rows)} rows")
        for row in rows:
            tag = f"{where}: shard {shard.get('index')} {row.get('algorithm')}"
            if not row["energy_ratio"] >= RATIO_FLOOR:
                run.fail(f"{tag}: energy_ratio {row['energy_ratio']} < 1")
            if not row["max_speed_ratio"] >= RATIO_FLOOR:
                run.fail(f"{tag}: max_speed_ratio {row['max_speed_ratio']} < 1")
            if row.get("within_bound") is False:
                run.fail(f"{tag}: energy_ratio {row['energy_ratio']} above the paper bound")


def canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True)


# -- program entry points --------------------------------------------------------------
#
# The program is imported inside the functions that call it: ``main`` first
# checks that its sources exist and puts them on ``sys.path``.


@contextmanager
def traced(run: Run, enabled: bool) -> Iterator[Recorder | None]:
    """Span shims installed in this process for the block (if enabled)."""
    if not enabled:
        yield None
        return
    recorder = Recorder()
    patches = install(recorder, TARGETS)
    try:
        yield recorder
    finally:
        uninstall(patches)
        run.state["spans"] = recorder.spans


def timed_ops(run: Run, recorder: Recorder | None, op: Callable[[int], Op]) -> Phase:
    """Run ``op(k)`` for k = 0, 1, ... until ``run.seconds`` have passed."""
    ops: list[Op] = []
    started = time.perf_counter()
    while time.perf_counter() - started < run.seconds:
        k = len(ops)
        if recorder is None:
            ops.append(op(k))
        else:
            with recorder.span("bench.op", rid=f"op{k}"):
                ops.append(op(k))
    return Phase(ops)


# -- replay workloads -----------------------------------------------------------------


def replay_setup(run: Run) -> float:
    """Seconds for one cold start of the workload in a fresh interpreter
    (``warmstart.py``: import, session open, a warm-up replay that spawns
    the pool).  The benchmark process has the program imported already,
    so it cannot time this in place."""
    if run.workload == "replay_pool" and not (run.work / "trace.swf").exists():
        (run.work / "trace.swf").write_text(wl.swf_trace(run.seed))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "warmstart.py"), str(SRC), run.workload, str(run.seed)],
        check=True,
    )
    return time.perf_counter() - start


def replay_session(run: Run) -> ExecutionSession:
    """The workload's session, opened once and shared by both phases.  The
    program's pool backend is per batch: every ``replay_trace`` call spawns
    and shuts down its own workers, so that cost stays in each call."""
    if "session" not in run.state:
        from repro.engine.session import ExecutionSession

        dense = run.workload == "replay_dense"
        run.state["session"] = ExecutionSession(
            jobs=1 if dense else 2, backend="serial" if dense else "pool", cache=False
        )
    return run.state["session"]


def replay_teardown(run: Run) -> None:
    session = run.state.pop("session", None)
    if session is not None:
        session.close()


def replay_phase(run: Run, trace: bool) -> Phase:
    """Replay calls until the time is up: one 400-job shard per
    ``replay_jobs`` call (replay_dense) or the whole SWF trace per
    ``replay_trace`` call on a 2-worker pool (replay_pool)."""
    from repro.core.qjob import QJob
    from repro.traces.replay import replay_jobs, replay_trace

    dense = run.workload == "replay_dense"
    session = replay_session(run)
    reports = run.state.setdefault("reports", [])
    totals = Phase([])

    def op(k: int) -> Op:
        if dense:
            jobs = [QJob(*fields, id=f"d{k}-{i}")
                    for i, fields in enumerate(wl.dense_shard(run.seed, k))]
            start = time.perf_counter()
            report, metrics = replay_jobs(
                iter(jobs), alpha=ALPHA, shard_window=wl.DENSE_WINDOW, session=session
            )
        else:
            start = time.perf_counter()
            report, metrics = replay_trace(
                run.work / "trace.swf", seed=run.seed, alpha=ALPHA,
                shard_window=wl.POOL_WINDOW, session=session,
            )
        latency = time.perf_counter() - start
        reports.append(report.to_dict())
        totals.shards += metrics.shards
        totals.retries += metrics.retries
        totals.degraded += sum(1 for s in report.shards if s.get("status") == "degraded")
        return Op(f"op{k}", latency, metrics.jobs, all(shard_ok(s) for s in report.shards))

    with traced(run, trace) as recorder:
        phase = timed_ops(run, recorder, op)
    phase.shards, phase.retries, phase.degraded = totals.shards, totals.retries, totals.degraded
    return phase


def dense_check(run: Run) -> None:
    for k, report in enumerate(run.state.get("reports", [])):
        if all(shard_ok(s) for s in report["shards"]):
            check_shards(run, report["shards"], wl.DENSE_JOBS, 2, f"replay_dense call {k}")


def serial_reference(run: Run, runs: int = 1) -> tuple[dict, list[float]]:
    """The replay_pool trace replayed serially: its report and the wall
    seconds of each replay, at least ``runs`` of them (kept for the run)."""
    report, walls = run.state.get("serial", (None, []))
    if len(walls) < runs:
        from repro.engine.session import ExecutionSession
        from repro.traces.replay import replay_trace

        with ExecutionSession(jobs=1, backend="serial", cache=False) as session:
            while len(walls) < runs:
                start = time.perf_counter()
                result, _ = replay_trace(
                    run.work / "trace.swf", seed=run.seed, alpha=ALPHA,
                    shard_window=wl.POOL_WINDOW, session=session,
                )
                walls.append(time.perf_counter() - start)
                report = result.to_dict()
        run.state["serial"] = (report, walls)
    return report, walls


def pool_check(run: Run) -> None:
    reference, _ = serial_reference(run)
    check_shards(run, reference["shards"], wl.POOL_JOBS, 2, "replay_pool serial reference")
    expected = canonical(reference)
    for k, report in enumerate(run.state.get("reports", [])):
        if all(shard_ok(s) for s in report["shards"]) and canonical(report) != expected:
            run.fail(f"replay_pool call {k}: report differs from the serial reference")


# -- the serve daemon -----------------------------------------------------------------


def http_get(host: str, port: int, path: str) -> tuple[int, str]:
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


class Daemon:
    """One ``qbss-serve`` process started through the benchmark's launcher,
    with a fresh cache and journal directory."""

    def __init__(self, workdir: Path, serve_args: list[str], spans: Path | None = None):
        workdir.mkdir(parents=True)
        self.stats = workdir / "stats.json"
        port_file = workdir / "port"
        cmd = [sys.executable, str(HERE / "daemon.py"), "--stats", str(self.stats)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += [
            "--", "--bind", "127.0.0.1:0", "--port-file", str(port_file),
            "--cache-dir", str(workdir / "cache"), "--journal", str(workdir / "journal"),
            "--alpha", str(ALPHA), "--shard-window", str(wl.SERVE_WINDOW), *serve_args,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.log = open(workdir / "daemon.log", "wb")
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            deadline = time.monotonic() + 120
            while not port_file.exists():
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"qbss-serve did not start; see {workdir / 'daemon.log'}")
                time.sleep(0.002)
            host, port = port_file.read_text().strip().rsplit(":", 1)
            self.host, self.port = host, int(port)
            if http_get(self.host, self.port, "/healthz")[0] != 200:
                raise RuntimeError("qbss-serve /healthz is not OK")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> dict:
        """SIGTERM (graceful drain) and wait; returns the launcher's stats."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return json.loads(self.stats.read_text()) if self.stats.exists() else {}


def serve_args(run: Run) -> list[str]:
    args = ["--seed", str(run.seed), "--jobs", "1"]
    if run.workload == "serve_sparse":
        args += ["--algorithms", "avrq,bkpq,oaq"]
    return args


def start_daemon(run: Run, spans: Path | None = None) -> Daemon:
    run.state["daemons"] = run.state.get("daemons", 0) + 1
    daemon = Daemon(run.work / f"daemon{run.state['daemons']}", serve_args(run), spans)
    run.state["daemon"] = daemon
    return daemon


def stop_daemon(run: Run) -> None:
    daemon = run.state.pop("daemon", None)
    if daemon is not None:
        stats = daemon.stop()
        run.rss_kb = max(run.rss_kb, int(stats.get("maxrss_kb", 0)))


def parse_response(text: str) -> tuple[list[dict], dict | None]:
    envelopes = [json.loads(line) for line in text.splitlines() if line.strip()]
    shards = [e["shard"] for e in envelopes if e.get("kind") == "shard_result"]
    summary = next((e for e in envelopes if e.get("kind") == "summary"), None)
    return shards, summary


def response_ok(outcome: Outcome) -> bool:
    if not outcome.ok:
        return False
    shards, summary = parse_response(outcome.text)
    return summary is not None and summary.get("failed_shards") == 0 and all(
        shard_ok(s) for s in shards
    )


def serve_phase_result(run: Run, outcomes: list[Outcome], jobs: int) -> Phase:
    ops = [Op(o.rid, o.latency, jobs, response_ok(o)) for o in outcomes]
    shards = degraded = 0
    for o in outcomes:
        if o.ok:
            parsed, _ = parse_response(o.text)
            shards += len(parsed)
            degraded += sum(1 for s in parsed if s.get("status") == "degraded")
    phase = Phase(ops, shards=shards, degraded=degraded)
    phase.client_latency = {o.rid: o.latency for o in outcomes}
    run.state.setdefault("outcomes", []).extend(outcomes)
    return phase


def scrape_retries(daemon: Daemon) -> int:
    _, text = http_get(daemon.host, daemon.port, "/metrics")
    return int(sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("qbss_retries_total")
    ))


def serve_phase(run: Run, trace: bool) -> Phase:
    """One timed phase against a daemon: the set-up one, or (traced) a
    fresh daemon started under the span shims."""
    spans = OUT / f"{run.workload}-seed{run.seed}-spans.jsonl"
    if trace:
        stop_daemon(run)
        start_daemon(run, spans)
        if run.workload == "serve_cached":
            prime(run)
    daemon = run.state["daemon"]
    if run.workload == "serve_sparse":
        bodies = [wl.sparse_request(run.seed, i).encode()
                  for i in range(int(SPARSE_PER_SECOND * run.seconds))]
        run.state["sparse_bodies"] = bodies
        jobs = wl.SPARSE_JOBS
    else:
        bodies = [b.encode() for b in run.state["batches"]]
        jobs = wl.CACHED_JOBS
    started = time.perf_counter()
    outcomes = asyncio.run(closed_loop(daemon.host, daemon.port, bodies, seconds=run.seconds))
    if run.workload == "serve_sparse" and len(outcomes) > len(bodies):
        raise RuntimeError(f"serve_sparse sent {len(outcomes)} requests, more than its "
                           f"{len(bodies)} distinct ones: raise SPARSE_PER_SECOND")
    phase = serve_phase_result(run, outcomes, jobs)
    if trace:
        phase.retries = scrape_retries(daemon)
        stop_daemon(run)
        run.state["spans"] = [s for s in read_spans(spans) if s.start >= started]
    return phase


def serve_setup(run: Run) -> float:
    """Daemon start to ready (healthz OK), plus priming for serve_cached."""
    stop_daemon(run)
    start = time.perf_counter()
    start_daemon(run)
    if run.workload == "serve_cached":
        prime(run)
    return time.perf_counter() - start


def prime(run: Run) -> None:
    """Evaluate the serve_cached working set once, so every timed request
    is a cache hit; the responses are the reference the hits must equal."""
    daemon = run.state["daemon"]
    batches = run.state.setdefault("batches", wl.cached_batches(run.seed))

    async def send_all() -> list[tuple[int, str]]:
        return [
            await post_jobs(daemon.host, daemon.port, body.encode(), f"p{i}", 120.0)
            for i, body in enumerate(batches)
        ]

    replies = asyncio.run(send_all())
    primed = []
    for i, (status, text) in enumerate(replies):
        shards, summary = parse_response(text)
        if status != 200 or summary is None or not all(shard_ok(s) for s in shards):
            raise RuntimeError(f"priming batch {i} failed with HTTP {status}")
        primed.append(shards)
    run.state["primed"] = primed


def replay_records(run: Run, body: bytes, algorithms: tuple[str, ...]) -> list[dict]:
    """In-process ``replay_jobs`` of a request's records, evaluated with the
    daemon's parameters: the reference a served response must equal."""
    from repro.engine.session import ExecutionSession
    from repro.traces.records import TraceRecord
    from repro.traces.replay import replay_jobs
    from repro.traces.synthesize import synthesize_jobs

    records = [
        TraceRecord(index=i, id=str(job["id"]), release=float(job["release"]),
                         runtime=float(job["runtime"]), deadline=float(job["deadline"]))
        for i, job in enumerate(json.loads(line) for line in body.decode().splitlines() if line)
    ]
    stream = synthesize_jobs(iter(records), model="multiplicative", seed=run.seed,
                             deadline_slack=2.0)
    with ExecutionSession(jobs=1, backend="serial", cache=False) as session:
        report, _ = replay_jobs(stream, algorithms=algorithms, alpha=ALPHA,
                                shard_window=wl.SERVE_WINDOW, session=session)
    return report.shards


def serve_check(run: Run) -> None:
    sparse = run.workload == "serve_sparse"
    algorithms = ("avrq", "bkpq", "oaq") if sparse else ("avrq", "bkpq")
    jobs = wl.SPARSE_JOBS if sparse else wl.CACHED_JOBS
    good = [o for o in run.state.get("outcomes", []) if response_ok(o)]
    for o in good:
        shards, _ = parse_response(o.text)
        check_shards(run, shards, jobs, len(algorithms), f"{run.workload} request {o.rid}")
    if sparse:
        sample = good[0] if good else None
        if sample is not None:
            body = run.state["sparse_bodies"][sample.body_index]
            expected = replay_records(run, body, algorithms)
            if canonical(parse_response(sample.text)[0]) != canonical(expected):
                run.fail(f"serve_sparse request {sample.rid}: payloads differ from replay_jobs")
        return
    primed = run.state["primed"]
    for i, shards in enumerate(primed):
        check_shards(run, shards, jobs, len(algorithms), f"serve_cached primed batch {i}")
    expected = replay_records(run, run.state["batches"][0].encode(), algorithms)
    if canonical(primed[0]) != canonical(expected):
        run.fail("serve_cached primed batch 0: payloads differ from replay_jobs")
    for o in good:
        if canonical(parse_response(o.text)[0]) != canonical(primed[o.body_index]):
            run.fail(f"serve_cached request {o.rid}: cache hit differs from the cold answer")


WORKLOADS = {
    "replay_dense": Workload(10_000.0, replay_setup, replay_phase,
                             dense_check, replay_teardown),
    "replay_pool": Workload(2_000.0, replay_setup, replay_phase,
                            pool_check, replay_teardown),
    "serve_sparse": Workload(250.0, serve_setup, serve_phase,
                             serve_check, stop_daemon),
    "serve_cached": Workload(250.0, serve_setup, serve_phase,
                             serve_check, stop_daemon),
}


# -- metrics ---------------------------------------------------------------------------


def end_to_end(run: Run, phase: Phase, setup: list[float], slo_ms: float) -> dict[str, float]:
    ops = phase.ops
    latencies = [o.latency for o in ops if o.ok] or [o.latency for o in ops]
    attained = sum(1 for o in ops if o.ok and o.latency * 1e3 <= slo_ms)
    return {
        "throughput_jobs_per_s": phase.throughput() or 0.0,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "slo_attainment": attained / len(ops),
        "success_rate": sum(1 for o in ops if o.ok) / len(ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run.rss_kb / 1024.0,
    }


def self_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def report_layers(run: Run, reference: Phase, phase: Phase, extra: dict) -> dict[str, float]:
    """Per-layer metrics of the traced phase; writes the span file and the
    per-layer summary next to it."""
    spans = run.state.get("spans", [])
    ref, traced_value = reference.throughput(), phase.throughput()
    if not ref or traced_value is None:
        # No successful operation to compare; success_rate shows the failures.
        extra["trace.overhead_pct"] = 0.0
    else:
        extra["trace.overhead_pct"] = (ref - traced_value) / ref * 100.0
    extra["engine.retries"] = phase.retries
    extra["engine.degraded"] = phase.degraded
    serve = run.workload.startswith("serve")
    values = layer_metrics(
        spans,
        shards=phase.shards,
        requests=len(phase.ops) if serve else 0,
        client_latency=phase.client_latency if serve else {},
        extra=extra,
    )
    stem = OUT / f"{run.workload}-seed{run.seed}"
    if not serve:  # serve spans were written by the daemon itself
        write_spans(spans, f"{stem}-spans.jsonl")
    summary = summarize(spans)
    per = max(phase.shards, 1)
    table = {
        name: {
            "calls_per_shard": row["calls"] / per,
            "inclusive_ms_per_shard": row["inclusive_s"] * 1e3 / per,
            "self_ms_per_shard": row["self_s"] * 1e3 / per,
        }
        for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["inclusive_s"])
    }
    doc = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "shards": phase.shards, "requests": len(phase.ops) if serve else 0,
        "untraced_headline": ref, "traced_headline": traced_value,
        "per_layer": values, "spans": table,
    }
    Path(f"{stem}-layers.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"# span summary ({stem}-layers.json), ms per shard:", file=sys.stderr)
    for name, row in table.items():
        print(
            f"#   {name:32s} calls {row['calls_per_shard']:10.2f}  inclusive "
            f"{row['inclusive_ms_per_shard']:10.3f}  self {row['self_ms_per_shard']:10.3f}",
            file=sys.stderr,
        )
    return values


def execute(run: Run) -> tuple[dict[str, float], list[Phase]]:
    """Set up, measure and check one workload; returns (metrics, phases)."""
    workload = WORKLOADS[run.workload]
    try:
        setup = [workload.setup(run) for _ in range(SETUP_REPEATS)]
        reference = workload.phase(run, False)
        phases = [reference]
        if run.trace:
            phases.append(workload.phase(run, True))
    finally:
        workload.teardown(run)
    if not run.workload.startswith("serve"):
        run.rss_kb = self_rss_kb()
    workload.check(run)
    if not run.trace:
        metrics = end_to_end(run, reference, setup, workload.slo_ms)
        print_samples(run, reference)
        return metrics, phases
    extra = {}
    if run.workload == "replay_pool":
        _, serial_walls = serial_reference(run, SERIAL_RUNS)
        pool_wall = statistics.median(o.latency for o in reference.ops)
        extra["engine.parallel_efficiency"] = statistics.median(serial_walls) / (2 * pool_wall)
    return report_layers(run, reference, phases[1], extra), phases


def print_samples(run: Run, phase: Phase) -> None:
    """The sample count and the latency tail, which is not a gated metric:
    on a shared host it spreads past any useful bound (README.md)."""
    latencies = [o.latency for o in phase.ops if o.ok]
    n = len(latencies)
    print(f"# {run.workload}: {len(phase.ops)} operations, {n} latency samples, "
          f"{samples_beyond(n, 90)} beyond p90, {phase.shards} shards")
    if latencies:
        print(f"# latency_p90_ms = {percentile(latencies, 90) * 1e3:.6g} ms (not gated)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        metrics, phases = execute(run)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {run.workload} could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(PER_LAYER if run.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for message in run.violations:
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)
    ops = [o for phase in phases for o in phase.ops]
    result = {
        "correct": not run.violations,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if not o.ok),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not run.violations else 1


if __name__ == "__main__":
    sys.exit(main())
