"""The asyncio facade: bit-exactness, streaming, backpressure.

The async client may interleave production, dispatch and consumption
any way the event loop likes -- but every awaited ticket must evaluate
to *exactly* the serial ``VectorExecutor`` result for its call (same
0xFA57 corpus recipe as the scheduler/service equivalence suites), and
a replayed submission sequence must cut identical modeled books, or
the facade has smuggled wall-clock behaviour into the modeled domain.
"""

import asyncio
import random

import pytest

from repro.addresslib import BatchCall, INTER_OPS, INTRA_OPS, VectorExecutor
from repro.aio import AsyncEngineClient
from repro.api import (EnginePool, EngineService, Priority, RequestState,
                       ServiceError, ServicePolicy, SubmitOptions)
from repro.image import ImageFormat, noise_frame

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

SHARDS = 8
CASES_PER_SHARD = 26


def _random_batch_call(rng):
    """One corpus case as a batch call (the 0xFA57 recipe's geometry)."""
    width = rng.randrange(4, 25)
    height = rng.choice([8, 16, 24, 32, 33, 40, 48])
    fmt = ImageFormat(f"P{width}x{height}", width, height)
    frame_a = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.5:
        return BatchCall.intra(rng.choice(_INTRA), frame_a)
    frame_b = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.3:
        return BatchCall.inter_reduce(rng.choice(_INTER), frame_a,
                                      frame_b)
    return BatchCall.inter(rng.choice(_INTER), frame_a, frame_b)


def _serial_reference(call):
    if call.reduce_to_scalar:
        return VectorExecutor.inter_reduce(call.op, call.frames[0],
                                           call.frames[1], call.channels)
    if len(call.frames) == 2:
        return VectorExecutor.inter(call.op, call.frames[0],
                                    call.frames[1], call.channels)
    return VectorExecutor.intra(call.op, call.frames[0], call.channels)


def _assert_same(got, want):
    if isinstance(want, int):
        assert got == want
    else:
        assert got.equals(want)


class TestCorpusEquivalence:
    @pytest.mark.parametrize("shard", range(SHARDS))
    def test_awaited_results_match_serial_executor(self, shard):
        """The full corpus shard through the facade, random priority
        classes, awaited out of submission order: bit-exact."""
        rng = random.Random(0xFA57 + shard)
        calls = [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]
        options = [SubmitOptions(priority=rng.choice(list(Priority)))
                   for _ in calls]

        async def run():
            service = EngineService(
                policy=ServicePolicy(queue_depth=len(calls)))
            async with AsyncEngineClient(service) as client:
                tickets = [await client.submit(call, opts)
                           for call, opts in zip(calls, options)]
                results = [await ticket for ticket in tickets]
                report = await client.drain()
            return results, report

        results, report = asyncio.run(run())
        assert report.completed == len(calls)
        assert report.rejected == 0 and report.timed_out == 0
        for call, got in zip(calls, results):
            _assert_same(got, _serial_reference(call))

    def test_pool_backed_facade_matches_serial(self):
        """Same check against a 4-board pool (placement in play)."""
        rng = random.Random(0xFA57 + 21)
        calls = [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]

        async def run():
            service = EngineService(
                pool=EnginePool.of_engines(4),
                policy=ServicePolicy(queue_depth=len(calls)))
            async with AsyncEngineClient(service) as client:
                tickets = [await client.submit(call) for call in calls]
                return [await ticket for ticket in tickets]

        for call, got in zip(calls, asyncio.run(run())):
            _assert_same(got, _serial_reference(call))


class TestStreaming:
    def test_completions_stream_while_submitting(self):
        """Consumers see retired waves before the producer finishes."""
        fmt = ImageFormat("T16", 16, 16)
        calls = [BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=s))
                 for s in range(12)]

        async def run():
            service = EngineService(
                policy=ServicePolicy(queue_depth=4, max_batch=2))
            streamed = []
            async with AsyncEngineClient(service) as client:
                stream = client.completions()

                async def consume():
                    async with stream:
                        async for ticket in stream:
                            streamed.append(ticket)
                            if len(streamed) >= len(calls):
                                break

                consumer = asyncio.ensure_future(consume())
                for call in calls:
                    await client.submit(call)
                await client.drain()
                await consumer
            return streamed

        streamed = asyncio.run(run())
        assert len(streamed) == len(calls)
        assert all(t.ticket.state is RequestState.COMPLETED
                   for t in streamed)
        # Resolution order is modeled-completion order: monotone.
        times = [t.ticket.completion_seconds for t in streamed]
        assert times == sorted(times)

    def test_stream_registration_is_eager(self):
        """Tickets resolved before the consumer task first runs are
        buffered, not lost -- the stream exists from the call, not
        from the first iteration."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(policy=ServicePolicy(queue_depth=8))
            async with AsyncEngineClient(service) as client:
                stream = client.completions()
                ticket = await client.submit(
                    BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=1)))
                await client.drain()  # resolves before any iteration
                assert ticket.done
                async with stream:
                    got = await asyncio.wait_for(stream.__anext__(), 1.0)
                return got.request_id == ticket.request_id

        assert asyncio.run(run())

    def test_close_ends_streams_and_fails_unresolved(self):
        """Closing with work in flight fails the ticket (no forever
        awaiter) and terminates every completion stream."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(policy=ServicePolicy(queue_depth=8))
            client = AsyncEngineClient(service)
            async with client:
                stream = client.completions()
                ticket = await client.submit(
                    BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=2)))
            # Client closed with the request still queued.
            with pytest.raises(ServiceError):
                await ticket
            items = [t async for t in stream]
            return items

        assert asyncio.run(run()) == []


class TestBackpressure:
    def test_full_queue_suspends_then_completes_everything(self):
        """Producers outrunning a depth-4 queue suspend (counted) and
        every request still completes -- nothing is shed."""
        fmt = ImageFormat("T16", 16, 16)
        total = 24

        async def run():
            service = EngineService(
                policy=ServicePolicy(queue_depth=4, max_batch=2))
            async with AsyncEngineClient(service) as client:
                tickets = [await client.submit(
                    BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=s)))
                    for s in range(total)]
                report = await client.drain()
                waits = client.backpressure_waits
            return tickets, report, waits, service.queue.high_water

        tickets, report, waits, high_water = asyncio.run(run())
        assert report.completed == total
        assert report.rejected == 0
        assert waits > 0
        assert high_water <= 4
        assert all(t.ticket.state is RequestState.COMPLETED
                   for t in tickets)

    def test_backpressure_off_rejects_queue_full(self):
        """``backpressure=False`` restores the synchronous contract:
        the marginal submit comes back already rejected and awaiting
        it raises."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(policy=ServicePolicy(queue_depth=2))
            async with AsyncEngineClient(service,
                                         backpressure=False) as client:
                tickets = [await client.submit(
                    BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=s)))
                    for s in range(6)]
                rejected = [t for t in tickets if t.done]
                assert rejected, "expected queue-full rejections"
                with pytest.raises(ServiceError):
                    await rejected[0]
                report = await client.drain()
            return tickets, report

        tickets, report = asyncio.run(run())
        assert report.rejected_by_reason.get("queue_full", 0) > 0
        assert report.completed == len(tickets) - report.rejected


class TestTicketLifecycle:
    def test_release_bounds_service_ticket_table(self):
        """Account-then-release keeps the service's ticket table at
        O(in-flight), the memory valve million-request replays need."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(policy=ServicePolicy(queue_depth=8))
            async with AsyncEngineClient(service) as client:
                for s in range(32):
                    ticket = await client.submit(BatchCall.intra(
                        _INTRA[0], noise_frame(fmt, seed=s)))
                    await ticket.wait()
                    client.release(ticket)
                await client.drain()
            return len(service._tickets)

        assert asyncio.run(run()) == 0

    def test_release_requires_resolution(self):
        """Releasing a still-queued ticket is a caller bug: the
        service would KeyError at completion otherwise."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(policy=ServicePolicy(queue_depth=8))
            async with AsyncEngineClient(service) as client:
                ticket = await client.submit(BatchCall.intra(
                    _INTRA[0], noise_frame(fmt, seed=9)))
                with pytest.raises(ServiceError):
                    client.release(ticket)
                await client.drain()

        asyncio.run(run())


class TestModeledDeterminism:
    def test_replayed_arrivals_cut_identical_books(self):
        """The same arrival-stamped submission sequence, twice, through
        the facade: identical modeled books (latency percentiles,
        completion counts, wave counts) -- wall scheduling must never
        leak into modeled accounting."""
        rng = random.Random(0xA10)
        fmt = ImageFormat("T16", 16, 16)
        plan = [(s, rng.uniform(0.0, 0.02),
                 rng.choice(list(Priority))) for s in range(40)]
        arrivals = sorted(plan, key=lambda row: row[1])

        async def run_once():
            service = EngineService(
                pool=EnginePool.of_engines(2),
                policy=ServicePolicy(queue_depth=8, max_batch=4))
            async with AsyncEngineClient(service) as client:
                for seed, arrival, priority in arrivals:
                    await client.submit(
                        BatchCall.intra(_INTRA[0],
                                        noise_frame(fmt, seed=seed)),
                        SubmitOptions(priority=priority,
                                      arrival_seconds=arrival))
                report = await client.drain()
            payload = report.to_dict()
            payload["pool"] = None  # wall figures live under pool
            return payload

        first = asyncio.run(run_once())
        second = asyncio.run(run_once())
        assert first == second
