"""Asyncio HTTP load generator for the streaming service workload.

One process, one event loop, at most ``lanes`` connections open at a
time.  The service answers every request with ``Connection: close``,
so each request opens its own connection; a *lane* is one client that
sends its requests one after another under one ``X-AReST-Submitter``.

Two loop shapes:

- :func:`open_loop` -- requests are *due* on a fixed schedule whatever
  the service does (independent users).  Latency is measured from the
  due time, so a stall also charges the wait it imposes on the requests
  queued behind it; how late the generator itself ran is reported as
  lateness.
- :func:`closed_loop` -- each lane sends its next request as soon as the
  previous one is answered (callers that wait for a reply).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Sent:
    """One request's timeline (monotonic seconds) and outcome."""

    due: float
    sent: float
    done: float
    status: int

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its answer."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return self.sent - self.due


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    headers: tuple[tuple[str, str], ...] = (),
) -> tuple[int, bytes]:
    """One HTTP/1.1 exchange on a fresh connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head += [f"{name}: {value}" for name, value in headers]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split(b" ", 2)[1]), payload


def poster(host: str, port: int):
    """A ``send(body, submitter) -> status`` coroutine for ``POST /trace``."""

    async def send(body: bytes, submitter: str) -> int:
        status, _ = await http_request(
            host,
            port,
            "POST",
            "/trace",
            body,
            (("X-AReST-Submitter", submitter),),
        )
        return status

    return send


async def open_loop(
    send, bodies: list[bytes], rate: float, lanes: int = 2
) -> list[Sent]:
    """Send ``bodies`` at ``rate`` requests/s, round-robin over lanes.

    Request ``i`` is due ``i / rate`` seconds after the start and goes
    out on lane ``i % lanes``.  A lane that falls behind sends at once,
    so lateness grows instead of the schedule stretching.
    """
    clock = time.monotonic
    start = clock() + 0.01
    out: list[Sent | None] = [None] * len(bodies)

    async def lane(index: int) -> None:
        submitter = f"lane-{index}"
        for i in range(index, len(bodies), lanes):
            due = start + i / rate
            wait = due - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            sent = clock()
            status = await send(bodies[i], submitter)
            out[i] = Sent(due, sent, clock(), status)

    await asyncio.gather(*(lane(j) for j in range(lanes)))
    return out


async def closed_loop(
    send, bodies: list[bytes], lanes: int = 2
) -> list[Sent]:
    """Send ``bodies`` back to back on each lane (next after each answer).

    Due time equals send time here: a closed loop has no schedule to
    fall behind.
    """
    clock = time.monotonic
    out: list[Sent | None] = [None] * len(bodies)

    async def lane(index: int) -> None:
        submitter = f"lane-{index}"
        for i in range(index, len(bodies), lanes):
            sent = clock()
            status = await send(bodies[i], submitter)
            out[i] = Sent(sent, sent, clock(), status)

    await asyncio.gather(*(lane(j) for j in range(lanes)))
    return out
