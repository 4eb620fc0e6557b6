"""Load generation against the ``qbss-serve`` HTTP surface.

One asyncio event loop in the calling thread drives the connections, so
the load generator never runs on the daemon's interpreter lock.
:func:`closed_loop` is one caller that sends its next request only after
the previous reply: no request queues behind another, and the daemon
idles only while the caller reads a reply.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

#: Seconds a timed request may take before it counts as failed.
TIMEOUT = 60.0


@dataclass
class Outcome:
    """One request: ids, times (``perf_counter`` seconds) and the reply."""

    rid: str
    body_index: int
    sent: float
    done: float
    status: int
    text: str
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from the send to the end of the reply."""
        return self.done - self.sent

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200


async def post_jobs(
    host: str, port: int, body: bytes, rid: str, timeout: float
) -> tuple[int, str]:
    """``POST /v1/jobs`` on a fresh connection; returns (status, body)."""

    async def exchange() -> tuple[int, str]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                (
                    f"POST /v1/jobs HTTP/1.1\r\nHost: {host}:{port}\r\n"
                    "Content-Type: application/jsonl\r\n"
                    f"Content-Length: {len(body)}\r\nX-QBSS-Client: {rid}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("ascii")
                + body
            )
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            length = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode("latin-1").partition(":")
                if key.strip().lower() == "content-length":
                    length = int(value)
            data = await (reader.readexactly(length) if length is not None else reader.read())
            return status, data.decode("utf-8")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    return await asyncio.wait_for(exchange(), timeout)


async def _send(host: str, port: int, rid: str, index: int, body: bytes) -> Outcome:
    """Send one request; a failure is an outcome, not an exception."""
    sent = time.perf_counter()
    try:
        status, text = await post_jobs(host, port, body, rid, TIMEOUT)
        error = None
    except (OSError, asyncio.TimeoutError, ValueError, IndexError) as exc:
        status, text, error = 0, "", f"{type(exc).__name__}: {exc}"
    return Outcome(rid, index, sent, time.perf_counter(), status, text, error)


async def closed_loop(
    host: str, port: int, bodies: Sequence[bytes], *, seconds: float, prefix: str = "c"
) -> list[Outcome]:
    """Send ``bodies`` round-robin, one at a time, until ``seconds`` pass."""
    stop = time.perf_counter() + seconds
    outcomes: list[Outcome] = []
    while time.perf_counter() < stop:
        n = len(outcomes)
        index = n % len(bodies)
        outcomes.append(await _send(host, port, f"{prefix}{n}", index, bodies[index]))
    return outcomes


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)
