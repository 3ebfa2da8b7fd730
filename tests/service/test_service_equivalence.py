"""Service-vs-serial bit-exactness over the randomized corpus.

The service may admit, reorder (by priority), coalesce and shard
requests -- but each ticket's result must be *exactly* what a direct
serial ``AddressLib``/``VectorExecutor`` call on the same frames
produces.  Same 0xFA57 corpus recipe as the scheduler and fast-path
equivalence suites.
"""

import random

import pytest

from repro.addresslib import (BatchCall, INTER_OPS, INTRA_OPS,
                              VectorExecutor)
from repro.api import (EnginePool, EngineService, EngineWorker, Priority,
                       ServicePolicy, SubmitOptions)
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
    def test_service_matches_serial_executor(self, shard):
        """Random priorities reorder dispatch; results never change."""
        rng = random.Random(0xFA57 + shard)
        calls = [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]
        priorities = [rng.choice(list(Priority)) for _ in calls]
        service = EngineService(
            policy=ServicePolicy(queue_depth=len(calls)))
        tickets = [service.submit(call, SubmitOptions(priority=priority))
                   for call, priority in zip(calls, priorities)]
        report = service.drain()
        assert report.completed == len(calls)
        assert report.rejected == 0 and report.timed_out == 0
        for call, ticket in zip(calls, tickets):
            _assert_same(ticket.result(), _serial_reference(call))

    def test_sharded_service_matches_serial_executor(self):
        """One shard again, waves sharded across two pool boards."""
        rng = random.Random(0xFA57)
        calls = [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]
        service = EngineService(
            pool=EnginePool.of_engines(2),
            policy=ServicePolicy(queue_depth=len(calls)))
        tickets = [service.submit(call) for call in calls]
        service.drain()
        for call, ticket in zip(calls, tickets):
            _assert_same(ticket.result(), _serial_reference(call))

    def test_engine_backend_service_matches_serial(self):
        """Engine-backed serving: same frames, driver books kept."""
        rng = random.Random(0xFA57 + 3)
        calls = [_random_batch_call(rng) for _ in range(12)]
        service = EngineService(
            policy=ServicePolicy(queue_depth=len(calls)))
        tickets = [service.submit(call) for call in calls]
        service.drain()
        for call, ticket in zip(calls, tickets):
            _assert_same(ticket.result(), _serial_reference(call))
        driver = service.pool.workers[0].driver
        assert driver.calls_submitted == len(calls)
        assert driver.calls_shed == 0

    def test_priority_shuffle_is_result_invariant(self):
        """The same calls under two different priority assignments
        complete with identical per-ticket results."""
        rng = random.Random(0xFA57 + 7)
        calls = [_random_batch_call(rng) for _ in range(10)]
        outcomes = []
        for seed in (1, 2):
            prio_rng = random.Random(seed)
            service = EngineService(
                policy=ServicePolicy(queue_depth=len(calls)))
            tickets = [service.submit(call, SubmitOptions(
                priority=prio_rng.choice(list(Priority))))
                for call in calls]
            service.drain()
            outcomes.append([t.result() for t in tickets])
        for got, want in zip(*outcomes):
            _assert_same(got, want)


class TestModeledAccounting:
    def test_software_and_engine_backends_price_identically(self):
        """Admission prices from geometry alone: backend-independent."""
        rng = random.Random(0xFA57 + 11)
        calls = [_random_batch_call(rng) for _ in range(8)]
        soft = EngineService(pool=EnginePool([EngineWorker(0)]))
        hard = EngineService()
        for call in calls:
            assert soft.admission.price(call)[1] == pytest.approx(
                hard.admission.price(call)[1], abs=0.0)
