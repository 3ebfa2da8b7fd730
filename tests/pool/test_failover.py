"""Failover: a deadlocked board fails out, its wave re-runs whole.

A board that raises :class:`EngineDeadlock` mid-wave leaves rotation;
the wave re-places among the survivors and re-runs from scratch, so
failover never shows up in the functional results.  A pool with no
survivors propagates the deadlock.
"""

import random

import pytest

from repro.addresslib import (INTER_OPS, INTRA_OPS, BatchCall,
                              VectorExecutor)
from repro.api import EnginePool, EngineService, ServicePolicy
from repro.core import EngineDeadlock
from repro.image import ImageFormat, noise_frame

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)


def _random_batch_call(rng):
    """One corpus case (the 0xFA57 recipe's geometry)."""
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


def _fail_always(worker):
    """Make ``worker`` deadlock on every wave it is handed."""
    def boom(calls):
        raise EngineDeadlock("injected board failure")
    worker.run_wave = boom


class TestFailover:
    def test_wave_requeues_to_the_survivor(self):
        rng = random.Random(0xFA57 + 13)
        calls = [_random_batch_call(rng) for _ in range(4)]
        pool = EnginePool.of_engines(2)
        _fail_always(pool.workers[0])
        dispatch = pool.dispatch(calls)
        assert dispatch.worker_id == 1
        assert dispatch.failovers == 1
        for got, call in zip(dispatch.results, calls):
            _assert_same(got, _serial_reference(call))

    def test_failed_board_leaves_rotation(self):
        pool = EnginePool.of_engines(2)
        _fail_always(pool.workers[0])
        pool.dispatch([_random_batch_call(random.Random(1))])
        assert pool.workers[0].failed
        assert [w.worker_id for w in pool.alive()] == [1]
        # Subsequent waves never touch the dead board again.
        dispatch = pool.dispatch(
            [_random_batch_call(random.Random(2))])
        assert dispatch.worker_id == 1 and dispatch.failovers == 0

    def test_requeue_books_are_kept(self):
        rng = random.Random(0xFA57 + 17)
        calls = [_random_batch_call(rng) for _ in range(3)]
        pool = EnginePool.of_engines(2)
        _fail_always(pool.workers[0])
        pool.dispatch(calls)
        assert pool.failovers == 1
        assert pool.calls_requeued == len(calls)
        assert pool.workers[0].calls_requeued == len(calls)
        report = pool.report()
        assert report.failovers == 1
        assert report.calls_requeued == len(calls)
        assert report.workers[0].failed

    def test_no_survivors_propagates_the_deadlock(self):
        pool = EnginePool.of_engines(2)
        for worker in pool.workers:
            _fail_always(worker)
        with pytest.raises(EngineDeadlock):
            pool.dispatch([_random_batch_call(random.Random(3))])
        with pytest.raises(EngineDeadlock):
            pool.place([])  # a dead pool cannot place anything

    def test_service_results_survive_a_mid_drain_failover(self):
        """End to end: board 0 dies under the service, answers hold."""
        rng = random.Random(0xFA57 + 19)
        calls = [_random_batch_call(rng) for _ in range(10)]
        pool = EnginePool.of_engines(2)
        _fail_always(pool.workers[0])
        service = EngineService(pool=pool,
                                policy=ServicePolicy(queue_depth=len(calls)))
        tickets = [service.submit(call) for call in calls]
        report = service.drain()
        assert report.completed == len(calls)
        for call, ticket in zip(calls, tickets):
            _assert_same(ticket.result(), _serial_reference(call))
        assert report.pool is not None
        assert report.pool.failovers >= 1
        assert report.pool.workers[0].failed
        assert report.pool.workers[1].calls_routed == len(calls)

    def test_failover_is_result_invariant_vs_healthy_pool(self):
        """The same batch with and without a failover: same answers."""
        rng = random.Random(0xFA57 + 23)
        calls = [_random_batch_call(rng) for _ in range(8)]

        healthy = EngineService(pool=EnginePool.of_engines(2),
                                policy=ServicePolicy(queue_depth=len(calls)))
        healthy_tickets = [healthy.submit(call) for call in calls]
        healthy.drain()

        degraded_pool = EnginePool.of_engines(2)
        _fail_always(degraded_pool.workers[1])
        degraded = EngineService(pool=degraded_pool,
                                 policy=ServicePolicy(queue_depth=len(calls)))
        degraded_tickets = [degraded.submit(call) for call in calls]
        degraded.drain()

        for healthy_t, degraded_t in zip(healthy_tickets,
                                         degraded_tickets):
            _assert_same(degraded_t.result(), healthy_t.result())


class TestSerialReferenceStaysHonest:
    def test_reference_really_is_the_vector_executor(self):
        call = _random_batch_call(random.Random(29))
        want = _serial_reference(call)
        if call.reduce_to_scalar:
            assert isinstance(want, int)
        else:
            assert want.equals(VectorExecutor.intra(
                call.op, call.frames[0], call.channels)
                if len(call.frames) == 1 else VectorExecutor.inter(
                    call.op, call.frames[0], call.frames[1],
                    call.channels))
