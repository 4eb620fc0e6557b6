"""Tests of the benchmark's own code (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import layers
import loadgen
import run
import shims
import workloads as wl

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- inputs ------------------------------------------------------------------------------


def all_inputs(seed: int) -> bytes:
    parts = [
        json.dumps(wl.dense_shard(seed, 0)),
        json.dumps(wl.dense_shard(seed, 3)),
        wl.swf_trace(seed),
        wl.sparse_request(seed, 0),
        wl.sparse_request(seed, 7),
        *wl.cached_batches(seed),
    ]
    return "\x00".join(parts).encode()


def test_same_seed_gives_byte_identical_inputs():
    assert all_inputs(11) == all_inputs(11)


def test_different_seed_gives_different_inputs():
    assert wl.dense_shard(11, 0) != wl.dense_shard(12, 0)
    assert wl.swf_trace(11) != wl.swf_trace(12)
    assert wl.sparse_request(11, 0) != wl.sparse_request(12, 0)
    assert wl.cached_batches(11) != wl.cached_batches(12)


def test_inputs_have_the_documented_shape():
    shard = wl.dense_shard(5, 2)
    assert len(shard) == wl.DENSE_JOBS
    releases = [job[0] for job in shard]
    assert releases == sorted(releases)
    assert 2 * wl.DENSE_WINDOW <= releases[0] and releases[-1] < 3 * wl.DENSE_WINDOW
    for release, deadline, query, upper, true in shard:
        assert deadline > release and 0 < query <= upper and 0 < true <= upper
    sparse = [json.loads(line) for line in wl.sparse_request(5, 3).splitlines()]
    windows = {int(job["release"] // wl.SERVE_WINDOW) for job in sparse}
    assert len(sparse) == wl.SPARSE_JOBS
    assert len(windows) == wl.SPARSE_JOBS // wl.SPARSE_PER_SHARD
    # requests never share a shard window, so every serve_sparse shard misses
    other = [json.loads(line) for line in wl.sparse_request(5, 4).splitlines()]
    assert windows.isdisjoint({int(job["release"] // wl.SERVE_WINDOW) for job in other})
    data = [line for line in wl.swf_trace(5).splitlines() if not line.startswith(";")]
    assert len(data) == wl.POOL_JOBS and all(len(line.split()) == 18 for line in data)


# -- BENCHMARK.json ----------------------------------------------------------------------


def test_benchmark_json_names_and_limits():
    e2e, per_layer = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in (*BENCHMARK["workloads"], *e2e, *per_layer)]
    assert all(NAME.match(name) for name in names), names
    assert len(set(m["name"] for m in (*e2e, *per_layer))) == len(e2e) + len(per_layer)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    # the gated workloads; the others stay runnable by name (README.md)
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["replay_dense", "serve_cached"]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


# -- span shims --------------------------------------------------------------------------


def original_functions() -> dict[int, object]:
    shims.import_program()
    found = {}
    for target in layers.TARGETS:
        for path in target.paths:
            fn = shims.resolve(path)
            fn = getattr(fn, shims._WRAPPED, fn)
            found[id(fn)] = fn
    return found


def test_shim_install_is_complete_idempotent_and_undone():
    from repro.qbss.registry import ALGORITHMS

    originals = original_functions()
    yds_module = sys.modules["repro.speed_scaling.yds"]
    before = {(id(h), k): v for (h, k, _), v in shims.bindings(originals)}
    # the registry and a re-export are among the bindings found
    assert ALGORITHMS["bkpq"].fn in before.values()
    assert (id(sys.modules["repro.speed_scaling.oa"]), "yds") in before

    recorder = shims.Recorder()
    first = shims.install(recorder, layers.TARGETS)
    try:
        assert len(first) == len(before)
        assert list(shims.bindings(originals)) == []  # no original left anywhere
        assert hasattr(ALGORITHMS["bkpq"].fn, shims._WRAPPED)
        second = shims.install(shims.Recorder(), layers.TARGETS)
        assert second == []  # nothing wrapped twice
        wrapped = getattr(yds_module.yds, shims._WRAPPED)
        assert not hasattr(wrapped, shims._WRAPPED)
    finally:
        shims.uninstall(first)
    after = {(id(h), k): v for (h, k, _), v in shims.bindings(originals)}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_shims_record_nested_spans_without_changing_results(tmp_path):
    from repro.engine.session import ExecutionSession
    from repro.traces.replay import replay_trace

    trace = tmp_path / "t.swf"
    trace.write_text(wl.swf_trace(3).splitlines()[0] + "\n" + "\n".join(
        wl.swf_trace(3).splitlines()[1:61]) + "\n")

    def replay() -> dict:
        with ExecutionSession(jobs=1, backend="serial", cache=False) as session:
            report, _ = replay_trace(trace, seed=3, shard_window=wl.POOL_WINDOW, session=session)
        return report.to_dict()

    plain = replay()
    recorder = shims.Recorder()
    patches = shims.install(recorder, layers.TARGETS)
    try:
        with recorder.span("bench.op", rid="op0"):
            traced = replay()
    finally:
        shims.uninstall(patches)
    assert traced == plain
    spans = recorder.spans
    by_id = {s.id: s for s in spans}
    names = {s.name for s in spans}
    assert {"traces.parse", "traces.synthesize", "qbss.bkpq", "speed_scaling.bkp_profile",
            "core.run_edf", "qbss.clairvoyant"} <= names
    assert sum(1 for s in spans if s.name == "traces.parse") == 61  # 60 records + exhaustion
    for s in spans:
        assert s.rid == "op0"
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    bkp = next(s for s in spans if s.name == "speed_scaling.bkp_profile")
    assert by_id[bkp.parent].name == "qbss.bkpq"
    path = tmp_path / "spans.jsonl"
    shims.write_spans(spans, path)
    assert sorted(shims.read_spans(path), key=lambda s: s.id) == sorted(spans, key=lambda s: s.id)


def test_summarize_self_and_inclusive_time():
    spans = [
        shims.Span(0, "a", 0.0, 10.0, None, "r"),
        shims.Span(1, "b", 1.0, 4.0, 0, "r"),
        shims.Span(2, "a", 5.0, 7.0, 0, "r"),  # re-entrant: not counted twice
        shims.Span(3, "c", 5.5, 6.0, 2, "r"),
    ]
    summary = shims.summarize(spans)
    assert summary["a"] == {"calls": 2, "inclusive_s": 10.0, "self_s": 5.0 + 1.5}
    assert summary["b"]["self_s"] == 3.0 and summary["c"]["inclusive_s"] == 0.5


def test_queue_wait_and_overhead_from_spans():
    spans = [
        shims.Span(0, "serve.admit", 1.0, 1.2, None, "s0"),
        shims.Span(1, "traces.replay_jobs", 1.5, 2.0, None, "s0"),
        shims.Span(2, "serve.admit", 1.1, 1.3, None, "s1"),
        shims.Span(3, "traces.replay_jobs", 2.0, 2.4, None, "s1"),
    ]
    assert layers.queue_waits(spans) == pytest.approx({"s0": 0.3, "s1": 0.7})
    values = layers.layer_metrics(
        spans, shards=4, requests=2, client_latency={"s0": 1.0, "s1": 1.5}, extra={}
    )
    assert values["serve.queue_wait_ms"] == pytest.approx(500.0)
    assert values["serve.evaluate_ms"] == pytest.approx(450.0)
    # (1.0 - 0.3 - 0.5) and (1.5 - 0.7 - 0.4)
    assert values["serve.overhead_ms"] == pytest.approx(300.0)
    assert list(values) == [name for name, _ in layers.PER_LAYER]


# -- latency statistics ------------------------------------------------------------------


def test_percentile_and_samples_beyond():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == pytest.approx(50.5)
    assert loadgen.percentile(values, 90) == pytest.approx(90.1)
    assert loadgen.samples_beyond(100, 90) == 10
    assert loadgen.samples_beyond(99, 90) == 9


def test_tail_percentile_has_ten_samples_beyond_it():
    # A serve run whose every request took the whole SLO still has ten
    # samples beyond its p90 (the caller sends one request at a time).
    seconds = BENCHMARK["run_seconds"]
    slowest = min(w.slo_ms for name, w in run.WORKLOADS.items() if name.startswith("serve"))
    assert loadgen.samples_beyond(int(seconds / (slowest / 1e3)), 90) >= 10


# -- load generator ----------------------------------------------------------------------


class SlowHandler(BaseHTTPRequestHandler):
    delay = 0.15

    def log_message(self, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay)
        body = json.dumps({"client": self.headers["X-QBSS-Client"]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def slow_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_closed_loop_waits_for_each_reply(slow_server):
    host, port = slow_server
    outcomes = asyncio.run(loadgen.closed_loop(host, port, [b"a", b"b"], seconds=0.4))
    assert 2 <= len(outcomes) <= 4  # one caller x ~0.4 s / 0.15 s each
    assert all(o.ok and json.loads(o.text)["client"] == o.rid for o in outcomes)
    assert all(o.latency >= SlowHandler.delay for o in outcomes)
    assert all(b.sent >= a.done for a, b in zip(outcomes, outcomes[1:]))
    assert [o.body_index for o in outcomes] == [n % 2 for n in range(len(outcomes))]


def test_refused_request_is_a_failure_not_an_exception():
    outcome = asyncio.run(loadgen._send("127.0.0.1", 9, "r0", 0, b"x"))
    assert not outcome.ok and outcome.error is not None


def test_phase_without_a_success_has_no_throughput():
    failed = run.Phase([run.Op("op0", 0.1, 20, ok=False)])
    assert failed.throughput() is None


def test_throughput_is_the_median_run_of_operations():
    ops = [run.Op(f"op{k}", 0.1, 20, ok=True) for k in range(30)]
    ops[4] = run.Op("op4", 5.0, 20, ok=True)  # a stall moves neither its run nor the figure
    ops[7] = run.Op("op7", 0.1, 20, ok=False)  # a failure costs its run the jobs
    assert run.Phase(ops).throughput() == pytest.approx(200.0)
    every_third_fails = [run.Op(f"op{k}", 0.1, 20, ok=k % 3 != 1) for k in range(30)]
    assert run.Phase(every_third_fails).throughput() == pytest.approx(40 / 0.3)


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "replay_dense", "--seed", "1", "--seconds", "1"])
    assert code != 0 and capsys.readouterr().out == ""
