"""Trace replay: open-loop arrival streams driven against a service.

Two replay paths, one accounting discipline:

* :func:`replay_serial` -- the *blessed* synchronous open-loop pump
  (``run_until`` to the arrival, then ``submit``).  Hand-rolled copies
  of this loop are flagged by ``scripts/lint_replay_pump.py`` (rule
  R4); this function is the one allowlisted instance.
* :func:`replay_async` -- the same trace through
  :class:`~repro.aio.AsyncEngineClient`: a producer coroutine submits
  under backpressure while a consumer drains the completion stream.

Both account every resolved ticket into a :class:`LoadReport` under
the tenant it carries and then ``release()`` it, so a million-request
replay holds O(queue depth) tickets and result frames, not O(trace).
Both pace the *modeled* clock from the trace's arrival stamps, so the
books they cut are machine-independent and (for the functional
results) bit-exact with each other.
"""

from __future__ import annotations

import asyncio
import time
from typing import List

from ..aio import AsyncEngineClient
from ..service.engine_service import EngineService
from ..service.request import ServiceTicket
from .report import LoadReport
from .trace import ArrivalTrace, CallFactory


def _new_report(trace: ArrivalTrace, mode: str,
                load_factor: float) -> LoadReport:
    return LoadReport(mode=mode, load_factor=load_factor,
                      offered_requests=len(trace),
                      offered_rate_per_s=trace.rate_per_s,
                      offered_duration_seconds=trace.duration_seconds)


def replay_serial(trace: ArrivalTrace, service: EngineService, *,
                  load_factor: float = 1.0) -> LoadReport:
    """Replay ``trace`` synchronously; returns the level's books.

    This is the canonical open-loop pump: advance the modeled clock to
    each arrival (dispatching every wave startable before it), submit,
    and fold the tickets those calls resolved into the books.
    """
    factory = CallFactory(trace)
    report = _new_report(trace, "serial", load_factor)

    def settle(resolved: List[ServiceTicket]) -> None:
        # Newest first: the order the latency books have always been
        # summed in, so their float means stay bit-identical.
        for ticket in reversed(resolved):
            report.account(ticket)
            service.release(ticket)

    wall_start = time.perf_counter()
    for entry in trace.entries:
        call = factory.call(entry)
        options = factory.options(entry)
        resolved = service.run_until(entry.arrival_seconds)
        ticket = service.submit(call, options)
        if ticket.done:
            settle([ticket])
        settle(resolved)
    resolved = []
    while service.queue:
        resolved += service.step()
    report.service = service.drain()
    settle(resolved)
    report.wall_elapsed_seconds = time.perf_counter() - wall_start
    return report


def replay_async(trace: ArrivalTrace, service: EngineService, *,
                 load_factor: float = 1.0) -> LoadReport:
    """Replay ``trace`` through the asyncio facade (own event loop)."""
    return asyncio.run(areplay(trace, service, load_factor=load_factor))


async def areplay(trace: ArrivalTrace, service: EngineService, *,
                  load_factor: float = 1.0) -> LoadReport:
    """:func:`replay_async` for callers already inside an event loop.

    A producer task submits the trace in arrival order (suspending on
    backpressure when the bounded queue is at depth); a consumer task
    accounts and releases tickets off the completion stream as waves
    retire -- the streaming pattern an application front end uses.
    """
    factory = CallFactory(trace)
    report = _new_report(trace, "async", load_factor)
    total = len(trace)
    wall_start = time.perf_counter()
    async with AsyncEngineClient(service) as client:
        # Opened before the first submit: registration is eager, so no
        # ticket can resolve into the void while the consumer task is
        # still waiting for its first slice of the event loop.
        stream = client.completions()

        async def consume() -> None:
            accounted = 0
            if accounted >= total:  # empty trace: nothing will stream
                await stream.aclose()
                return
            async with stream:
                async for async_ticket in stream:
                    report.account(async_ticket.ticket,
                                   async_ticket.wall_latency_seconds)
                    client.release(async_ticket)
                    accounted += 1
                    if accounted >= total:
                        break

        consumer = asyncio.ensure_future(consume())
        try:
            for entry in trace.entries:
                await client.submit(factory.call(entry),
                                    factory.options(entry))
            report.service = await client.drain()
            await consumer
        finally:
            consumer.cancel()
        report.backpressure_waits = client.backpressure_waits
        report.backpressure_wall_seconds = (
            client.backpressure_wall_seconds)
    report.wall_elapsed_seconds = time.perf_counter() - wall_start
    return report
