"""The program's layers as the benchmark sees them: span targets and the
per-layer metrics derived from the spans.

Span names are ``<layer>.<function>``, with layers named after the
program's modules.  Every ``_ms`` metric is inclusive busy time per
shard (``serve.*``: per request); ``_calls`` and ``cache_puts`` are calls
per shard.  Metrics of a layer a workload does not reach read 0.
"""

from __future__ import annotations

from collections.abc import Sequence

from shims import Span, Target, summarize


def _client_rid(args: tuple, kwargs: dict) -> str | None:
    # QbssServer.submit_payload(self, body, client): the benchmark sends
    # each request under its own X-QBSS-Client, so the client is its id.
    return kwargs.get("client", args[2] if len(args) > 2 else None)


def _meta_rid(args: tuple, kwargs: dict) -> str | None:
    # replay_jobs(..., meta={"source": "serve:<client>"}) in the daemon.
    source = str((kwargs.get("meta") or {}).get("source", ""))
    return source.split(":", 1)[1] if source.startswith("serve:") else None


def _hit(result: object) -> str:
    return "miss" if result is None else "hit"


TARGETS: tuple[Target, ...] = (
    # serve: admission, protocol, journal
    Target("serve.admit", ("repro.serve.server:QbssServer.submit_payload",), rid=_client_rid),
    Target("serve.parse", ("repro.serve.protocol:parse_jobs_payload",)),
    Target(
        "serve.journal_append",
        (
            "repro.serve.journal:AdmissionJournal.log_admission",
            "repro.serve.journal:AdmissionJournal.log_shard_complete",
            "repro.serve.journal:AdmissionJournal.log_batch_complete",
        ),
    ),
    Target(
        "serve.respond",
        (
            "repro.serve.server:QbssServer.response_envelopes",
            "repro.serve.protocol:encode_jsonl",
        ),
    ),
    # traces: parse, synthesize, shard, cache key
    Target("traces.replay_trace", ("repro.traces.replay:replay_trace",)),
    Target("traces.replay_jobs", ("repro.traces.replay:replay_jobs",), rid=_meta_rid),
    Target("traces.parse", ("repro.traces.swf:parse_swf",)),
    Target("traces.synthesize", ("repro.traces.synthesize:synthesize_job",)),
    Target("traces.cache_key", ("repro.traces.replay:shard_cache_key",)),
    # io: shard document encode/decode
    Target("io.encode", ("repro.io:qbss_instance_to_dict",)),
    Target("io.decode", ("repro.io:qbss_instance_from_dict",)),
    # engine: session, cache, backends
    Target("engine.execute", ("repro.engine.session:ExecutionSession.execute",)),
    Target("engine.cache_get", ("repro.engine.cache:ResultCache.get",), tag=_hit),
    Target("engine.cache_put", ("repro.engine.cache:ResultCache.put",)),
    # qbss: online algorithms, clairvoyant baseline, validation
    Target("qbss.measure", ("repro.analysis.ratios:measure",)),
    Target("qbss.avrq", ("repro.qbss.avrq:avrq",)),
    Target("qbss.bkpq", ("repro.qbss.bkpq:bkpq",)),
    Target("qbss.oaq", ("repro.qbss.oaq:oaq",)),
    Target("qbss.derive_online", ("repro.qbss.transform:derive_online",)),
    Target(
        "qbss.clairvoyant",
        ("repro.qbss.clairvoyant:clairvoyant_values", "repro.qbss.clairvoyant:clairvoyant"),
    ),
    Target("qbss.validate", ("repro.qbss.result:QBSSResult.validate",)),
    # speed_scaling: AVR/BKP/OA/YDS profiles
    Target("speed_scaling.avr_profile", ("repro.speed_scaling.avr:avr_profile",)),
    Target("speed_scaling.bkp_profile", ("repro.speed_scaling.bkp:bkp_profile",)),
    Target("speed_scaling.bkp_intensity", ("repro.speed_scaling.bkp:bkp_intensity_at",)),
    Target("speed_scaling.oa", ("repro.speed_scaling.oa:oa",)),
    Target(
        "speed_scaling.yds",
        ("repro.speed_scaling.yds:yds", "repro.speed_scaling.yds:yds_profile"),
    ),
    # core: EDF realisation, feasibility
    Target("core.run_edf", ("repro.core.edf:run_edf",)),
    Target("core.check_feasible", ("repro.core.feasibility:check_feasible",)),
)

#: metric -> span, inclusive ms per shard.
SHARD_MS = {
    "speed_scaling.bkp_profile_ms": "speed_scaling.bkp_profile",
    "speed_scaling.avr_profile_ms": "speed_scaling.avr_profile",
    "speed_scaling.oa_ms": "speed_scaling.oa",
    "speed_scaling.yds_ms": "speed_scaling.yds",
    "core.run_edf_ms": "core.run_edf",
    "core.check_feasible_ms": "core.check_feasible",
    "qbss.avrq_ms": "qbss.avrq",
    "qbss.bkpq_ms": "qbss.bkpq",
    "qbss.oaq_ms": "qbss.oaq",
    "qbss.derive_online_ms": "qbss.derive_online",
    "qbss.validate_ms": "qbss.validate",
    "qbss.clairvoyant_ms": "qbss.clairvoyant",
    "engine.cache_get_ms": "engine.cache_get",
    "engine.cache_put_ms": "engine.cache_put",
    "engine.execute_ms": "engine.execute",
    "traces.synthesize_ms": "traces.synthesize",
    "traces.cache_key_ms": "traces.cache_key",
    "traces.parse_ms": "traces.parse",
    "io.encode_ms": "io.encode",
    "io.decode_ms": "io.decode",
}
#: metric -> span, calls per shard.
SHARD_CALLS = {
    "speed_scaling.bkp_intensity_calls": "speed_scaling.bkp_intensity",
    "core.run_edf_calls": "core.run_edf",
    "speed_scaling.yds_calls": "speed_scaling.yds",
    "engine.cache_puts": "engine.cache_put",
}
#: metric -> span, inclusive ms per request.
REQUEST_MS = {
    "serve.parse_ms": "serve.parse",
    "serve.journal_append_ms": "serve.journal_append",
    "serve.evaluate_ms": "traces.replay_jobs",
}

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((name, "ms") for name in SHARD_MS),
    *((name, "count") for name in SHARD_CALLS),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.parent_self_ms", "ms"),
    ("engine.parallel_efficiency", "ratio"),
    ("engine.retries", "count"),
    ("engine.degraded", "count"),
    *((name, "ms") for name in REQUEST_MS),
    ("serve.queue_wait_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def queue_waits(spans: Sequence[Span]) -> dict[str, float]:
    """Per request id: admission end -> evaluation start, in seconds."""
    admitted = {s.rid: s.end for s in spans if s.name == "serve.admit" and s.rid}
    started: dict[str, float] = {}
    for s in spans:
        if s.name == "traces.replay_jobs" and s.rid in admitted:
            started[s.rid] = min(started.get(s.rid, s.start), s.start)
    return {rid: started[rid] - admitted[rid] for rid in started}


def layer_metrics(
    spans: Sequence[Span],
    *,
    shards: int,
    requests: int,
    client_latency: dict[str, float],
    extra: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric from one traced phase.

    ``client_latency`` maps request id -> client-side latency from send
    (seconds; serve workloads only); ``extra`` carries the values that
    do not come from spans (parallel efficiency, retries, degraded,
    tracing overhead).
    """
    summary = summarize(list(spans))
    per_shard = 1.0 / shards if shards else 0.0
    per_request = 1.0 / requests if requests else 0.0

    def inclusive_ms(span: str) -> float:
        return summary.get(span, {}).get("inclusive_s", 0.0) * 1e3

    out: dict[str, float] = {}
    for metric, span in SHARD_MS.items():
        out[metric] = inclusive_ms(span) * per_shard
    for metric, span in SHARD_CALLS.items():
        out[metric] = summary.get(span, {}).get("calls", 0) * per_shard
    gets = [s.tag for s in spans if s.name == "engine.cache_get"]
    out["engine.cache_hit_ratio"] = gets.count("hit") / len(gets) if gets else 0.0
    out["engine.parent_self_ms"] = (
        summary.get("engine.execute", {}).get("self_s", 0.0) * 1e3 * per_shard
    )
    for metric, span in REQUEST_MS.items():
        out[metric] = inclusive_ms(span) * per_request if requests else 0.0
    waits = queue_waits(spans)
    out["serve.queue_wait_ms"] = sum(waits.values()) * 1e3 / len(waits) if waits else 0.0
    evaluate: dict[str, float] = {}
    for s in spans:
        if s.name == "traces.replay_jobs" and s.rid in client_latency:
            evaluate[s.rid] = evaluate.get(s.rid, 0.0) + (s.end - s.start)
    overheads = [
        client_latency[rid] - waits.get(rid, 0.0) - evaluate[rid] for rid in evaluate
    ]
    out["serve.overhead_ms"] = sum(overheads) * 1e3 / len(overheads) if overheads else 0.0
    for name in ("engine.parallel_efficiency", "engine.retries", "engine.degraded",
                 "trace.overhead_pct"):
        out[name] = float(extra.get(name, 0.0))
    return {name: out[name] for name, _ in PER_LAYER}
