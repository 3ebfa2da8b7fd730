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
from repro.core import EngineDeadlock
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

    def test_close_during_hand_off_fails_the_submit(self):
        """A consumer closing the client while a stamped producer hands
        results off makes that submit raise: its call is never offered
        to a client that will never resolve it."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(
                policy=ServicePolicy(queue_depth=8, max_batch=1))
            async with AsyncEngineClient(service) as client:
                stream = client.completions()

                async def consume():
                    async for _ in stream:
                        await client.close()

                consumer = asyncio.ensure_future(consume())
                await client.submit(
                    BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=1)),
                    SubmitOptions(arrival_seconds=0.0))
                # Its run_until retires the first call, and the hand-off
                # lets the consumer close the client.
                with pytest.raises(ServiceError):
                    await client.submit(
                        BatchCall.intra(_INTRA[0],
                                        noise_frame(fmt, seed=2)),
                        SubmitOptions(arrival_seconds=1.0))
                await consumer
            return service.report().submitted

        assert asyncio.run(asyncio.wait_for(run(), 30.0)) == 1


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

    def test_close_fails_parked_producers(self):
        """Closing while a producer is parked on a full queue wakes it
        with ``ServiceError`` -- it must not wait forever on a slot no
        dispatcher will free."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(policy=ServicePolicy(queue_depth=1))
            async with AsyncEngineClient(service) as client:
                await asyncio.sleep(0)  # the dispatch task idles
                # Scheduled before the dispatch task is woken, so the
                # close lands before any wave frees the slot.
                closer = asyncio.ensure_future(client.close())
                queued = await client.submit(
                    BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=1)))
                with pytest.raises(ServiceError):
                    await client.submit(BatchCall.intra(
                        _INTRA[0], noise_frame(fmt, seed=2)))
                await closer
                with pytest.raises(ServiceError):
                    await queued
            return client.backpressure_waits

        assert asyncio.run(asyncio.wait_for(run(), 30.0)) == 1


class TestFailedStep:
    def test_failing_wave_keeps_the_timeout_it_booked(self):
        """A step that raises after expiring one request fails only the
        rest: the expiry it booked stands, the dispatch task dies."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(pool=EnginePool.of_engines(1),
                                    policy=ServicePolicy(queue_depth=8))
            async with AsyncEngineClient(service) as client:
                # Neither submit yields, so both queue before the
                # dispatch task first runs and ride one wave.
                doomed = await client.submit(
                    BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=1)),
                    SubmitOptions(deadline_seconds=1e-9))
                stranded = await client.submit(
                    BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=2)))
                service.pool.workers[0].failed = True
                expired = await doomed.wait()
                with pytest.raises(EngineDeadlock):
                    await stranded
                with pytest.raises(EngineDeadlock):
                    await client._dispatch_task
            return expired

        assert asyncio.run(run()).state is RequestState.TIMED_OUT

    def test_failing_run_until_keeps_what_it_booked(self):
        """The only board dies inside an arrival-stamped submit's
        ``run_until``: the completion and the expiry booked before it
        raised resolve and stream, the wave it died in fails, and the
        client closes with work still queued."""
        fmt = ImageFormat("T16", 16, 16)

        def call(op_index, seed):
            return BatchCall.intra(_INTRA[op_index],
                                   noise_frame(fmt, seed=seed))

        async def run():
            service = EngineService(pool=EnginePool.of_engines(1),
                                    policy=ServicePolicy(queue_depth=8))
            board = service.pool.workers[0]
            run_wave = board.run_wave

            def run_once_then_die(calls):
                results = run_wave(calls)
                board.failed = True
                return results

            board.run_wave = run_once_then_die
            async with AsyncEngineClient(service) as client:
                stream = client.completions()
                # No submit yields, so all four queue before the
                # dispatch task first runs.  Waves: [first], then
                # [doomed, stranded] (doomed expires at dispatch,
                # stranded finds no board), then [left].
                first = await client.submit(call(1, 1))
                doomed = await client.submit(
                    call(0, 2), SubmitOptions(deadline_seconds=1e-9))
                stranded = await client.submit(call(0, 3))
                left = await client.submit(call(2, 4))
                with pytest.raises(EngineDeadlock):
                    await client.submit(call(1, 5),
                                        SubmitOptions(arrival_seconds=1.0))
                # Settled by the failing call itself, not by a later wave.
                assert all(t.wall_resolve_seconds is not None
                           for t in (first, doomed, stranded, left))
                states = [(await t.wait()).state for t in (first, doomed)]
                for ticket in (stranded, left):
                    with pytest.raises(EngineDeadlock):
                        await ticket
                streamed = [t async for t in stream]
                # The dispatch task stops rather than step a dead pool.
                with pytest.raises(asyncio.CancelledError):
                    await client._dispatch_task
                with pytest.raises(ServiceError):
                    await client.submit(call(1, 6))
                with pytest.raises(ServiceError):
                    await asyncio.wait_for(client.drain(), timeout=5.0)
            return states, streamed, first, doomed

        states, streamed, first, doomed = asyncio.run(run())
        assert states == [RequestState.COMPLETED, RequestState.TIMED_OUT]
        assert streamed == [first, doomed]

    def test_parked_producer_fails_with_the_pool(self):
        """A producer parked on a full queue when the wave ahead of it
        raises gets ``ServiceError``, not a ticket that the dead
        dispatcher would never resolve."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(pool=EnginePool.of_engines(1),
                                    policy=ServicePolicy(queue_depth=1))
            service.pool.workers[0].failed = True
            async with AsyncEngineClient(service) as client:
                queued = await client.submit(
                    BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=1)))
                # Parks on the full queue; the dispatch task's wave of
                # the queued request then raises and frees the slot.
                with pytest.raises(ServiceError):
                    await client.submit(BatchCall.intra(
                        _INTRA[0], noise_frame(fmt, seed=2)))
                with pytest.raises(EngineDeadlock):
                    await queued
                with pytest.raises(EngineDeadlock):
                    await client._dispatch_task
            return client.backpressure_waits, len(service.queue)

        assert asyncio.run(run()) == (1, 0)

    def test_drain_in_flight_fails_with_the_pool(self):
        """A ``drain()`` waiting on the dispatch task when its wave
        raises wakes with ``ServiceError`` for the work left queued."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(pool=EnginePool.of_engines(1),
                                    policy=ServicePolicy(queue_depth=8))
            service.pool.workers[0].failed = True
            async with AsyncEngineClient(service) as client:
                # Two incompatible calls: the first wave raises, the
                # second call stays queued behind it.
                tickets = [await client.submit(BatchCall.intra(
                    _INTRA[index], noise_frame(fmt, seed=index)))
                    for index in range(2)]
                with pytest.raises(ServiceError):
                    await client.drain()
                for ticket in tickets:
                    with pytest.raises(EngineDeadlock):
                        await ticket
                with pytest.raises(EngineDeadlock):
                    await client._dispatch_task
            return len(service.queue)

        assert asyncio.run(asyncio.wait_for(run(), 30.0)) == 1


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

    def test_stamped_ticket_resolves_when_awaited(self):
        """An awaiter keeps the dispatch task stepping: a stamped
        submit with no later submit and no ``drain()`` still resolves
        when its ticket is awaited."""
        fmt = ImageFormat("T16", 16, 16)

        async def run():
            service = EngineService(policy=ServicePolicy(queue_depth=8))
            async with AsyncEngineClient(service) as client:
                ticket = await client.submit(
                    BatchCall.intra(_INTRA[0], noise_frame(fmt, seed=3)),
                    SubmitOptions(arrival_seconds=0.001))
                resolved = await asyncio.wait_for(ticket.wait(), 5.0)
            return resolved.state

        assert asyncio.run(run()) is RequestState.COMPLETED


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

    @pytest.mark.parametrize("queue_depth, parks", [(256, False),
                                                    (8, True)])
    def test_producer_yields_do_not_move_the_books(self, queue_depth,
                                                   parks):
        """A stamped producer that yields after every submit, while a
        consumer task releases the stream, cuts the same books as one
        that never yields: the dispatch task must not step a wave in
        those yields, ahead of the arrivals that pace the clock --
        whether the queue never fills or parks the producer."""
        rng = random.Random(0xF10)
        fmt = ImageFormat("T16", 16, 16)
        arrivals = sorted(rng.uniform(0.0, 0.05) for _ in range(300))

        async def run_once(yields):
            service = EngineService(
                pool=EnginePool.of_engines(2),
                policy=ServicePolicy(queue_depth=queue_depth,
                                     max_batch=4))
            async with AsyncEngineClient(service) as client:
                stream = client.completions()

                async def consume():
                    released = 0
                    async with stream:
                        async for ticket in stream:
                            client.release(ticket)
                            released += 1
                            if released == len(arrivals):
                                break

                consumer = asyncio.ensure_future(consume())
                for seed, arrival in enumerate(arrivals):
                    await client.submit(
                        BatchCall.intra(_INTRA[0],
                                        noise_frame(fmt, seed=seed)),
                        SubmitOptions(arrival_seconds=arrival))
                    if yields:
                        await asyncio.sleep(0)
                report = await client.drain()
                await consumer
                waits = client.backpressure_waits
            payload = report.to_dict()
            payload["pool"] = None  # wall figures live under pool
            return payload, waits

        steady, steady_waits = asyncio.run(run_once(yields=False))
        yielding, yielding_waits = asyncio.run(run_once(yields=True))
        assert yielding == steady
        assert (steady_waits > 0) is parks
        assert yielding_waits == steady_waits
