"""Pool-vs-serial bit-exactness over the randomized corpus.

The pool shards waves across real boards, each with its own library,
driver books and residency banks -- but routing is placement, never
compute: every ticket's result must be exactly what a direct serial
``VectorExecutor`` call on the same frames produces, for any pool size.
Same 0xFA57 corpus recipe as the scheduler/fast-path/service suites.
"""

import random

import pytest

from repro.addresslib import INTER_OPS, INTRA_OPS, BatchCall, VectorExecutor
from repro.api import EnginePool, EngineService, ServicePolicy
from repro.image import ImageFormat, noise_frame

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

SHARDS = 8
CASES_PER_SHARD = 26
POOL_SIZES = (1, 2, 3, 4)


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


class TestPooledCorpusEquivalence:
    @pytest.mark.parametrize("shard", range(SHARDS))
    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    def test_pooled_service_matches_serial_executor(self, pool_size,
                                                    shard):
        """All 208 corpus cases, every pool size: bit-exact results."""
        rng = random.Random(0xFA57 + shard)
        calls = [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]
        service = EngineService(pool=EnginePool.of_engines(pool_size),
                                policy=ServicePolicy(queue_depth=len(calls)))
        tickets = [service.submit(call) for call in calls]
        report = service.drain()
        assert report.completed == len(calls)
        assert report.rejected == 0 and report.timed_out == 0
        for call, ticket in zip(calls, tickets):
            _assert_same(ticket.result(), _serial_reference(call))

    @pytest.mark.parametrize("pool_size", POOL_SIZES)
    def test_direct_dispatch_matches_serial_executor(self, pool_size):
        """Raw pool dispatch (no service): same bit-exactness."""
        rng = random.Random(0xFA57)
        calls = [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]
        pool = EnginePool.of_engines(pool_size)
        clock = 0.0
        for call in calls:
            dispatch = pool.dispatch([call], not_before=clock)
            clock = dispatch.end_seconds
            _assert_same(dispatch.results[0], _serial_reference(call))
        assert pool.waves_dispatched == len(calls)

    def test_pool_sizes_agree_with_each_other(self):
        """The same batch drained at every size: identical tickets."""
        rng = random.Random(0xFA57 + 5)
        calls = [_random_batch_call(rng) for _ in range(12)]
        outcomes = []
        for pool_size in POOL_SIZES:
            service = EngineService(
                pool=EnginePool.of_engines(pool_size),
                policy=ServicePolicy(queue_depth=len(calls)))
            tickets = [service.submit(call) for call in calls]
            service.drain()
            outcomes.append([t.result() for t in tickets])
        for results in outcomes[1:]:
            for got, want in zip(results, outcomes[0]):
                _assert_same(got, want)

    def test_pool_clock_speeds_up_with_size(self):
        """Sharding shrinks the modeled makespan monotonically."""
        rng = random.Random(0xFA57 + 9)
        calls = [_random_batch_call(rng) for _ in range(24)]
        clocks = []
        for pool_size in (1, 2, 4):
            service = EngineService(
                pool=EnginePool.of_engines(pool_size),
                policy=ServicePolicy(queue_depth=len(calls), max_batch=4))
            for call in calls:
                service.submit(call)
            report = service.drain()
            assert report.completed == len(calls)
            clocks.append(report.clock_seconds)
        assert clocks[0] >= clocks[1] >= clocks[2]
        assert clocks[0] > clocks[2]
