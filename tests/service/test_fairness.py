"""Tenant fairness: WFQ drain order, quotas, SLO books, policy object.

The tenancy redesign must change *scheduling*, never *results*: the
weighted-fair queue interleaves tenants by policy weight inside each
priority class (collapsing to exact FIFO for untagged work), quotas
shed with an explicit ``TENANT_QUOTA`` reason, the shedding books
balance per tenant, and the whole 0xFA57 corpus stays bit-exact with
fairness enabled.  The ``ServicePolicy`` object is the one spelling
of the knobs.
"""

import asyncio
import random
import warnings

import pytest

from repro.addresslib import (BatchCall, INTER_OPS, INTRA_OPS,
                              VectorExecutor)
from repro.aio import AsyncEngineClient
from repro.api import (EngineService, Priority, RequestState,
                       ServiceError, ServicePolicy, SubmitOptions,
                       TenantPolicy)
from repro.image import ImageFormat, noise_frame
from repro.service import (AdmissionController, MicroBatcher,
                           RejectReason, RequestQueue)
from repro.service.request import ServiceRequest

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

FMT = ImageFormat("T16", 16, 16)


def _request(request_id, tenant=None, priority=Priority.STANDARD,
             deadline_seconds=None, op_index=0):
    return ServiceRequest(
        request_id=request_id,
        call=BatchCall.intra(_INTRA[op_index],
                             noise_frame(FMT, seed=request_id % 8)),
        priority=priority, arrival_seconds=0.0,
        deadline_seconds=deadline_seconds, tenant=tenant)


def _drain_ids(queue):
    order = []
    while queue:
        order.append(queue.pop_next().request_id)
    return order


class TestWeightedFairQueue:
    def test_equal_weights_interleave_one_for_one(self):
        """Tenant a's burst of 4 then b's burst of 4 drain a,b,a,b...
        -- arrival clumping never converts into drain clumping."""
        queue = RequestQueue(policy=ServicePolicy())
        for i in range(4):
            assert queue.offer(_request(i, tenant="a")) is None
        for i in range(4, 8):
            assert queue.offer(_request(i, tenant="b")) is None
        assert _drain_ids(queue) == [0, 4, 1, 5, 2, 6, 3, 7]

    def test_weighted_tenant_drains_proportionally(self):
        """Weight 2 drains two for weight 1's one (alternating
        offers, so virtual finish tags decide, not arrival order)."""
        policy = ServicePolicy(tenants={"heavy": TenantPolicy(weight=2.0),
                                        "light": TenantPolicy(weight=1.0)})
        queue = RequestQueue(policy=policy)
        for i in range(4):
            queue.offer(_request(2 * i, tenant="heavy"))
            queue.offer(_request(2 * i + 1, tenant="light"))
        # heavy tags: .5, 1, 1.5, 2; light tags: 1, 2, 3, 4.
        assert _drain_ids(queue) == [0, 1, 2, 4, 3, 6, 5, 7]

    def test_untagged_queue_is_exact_fifo(self):
        """No tenant labels -> one bucket -> the pre-tenancy order."""
        queue = RequestQueue(policy=ServicePolicy())
        for i in range(6):
            queue.offer(_request(i))
        assert _drain_ids(queue) == list(range(6))

    def test_fifo_within_tenant_within_class(self):
        """Inside one tenant the drain order is submission order even
        while another tenant interleaves."""
        queue = RequestQueue(policy=ServicePolicy())
        for i in range(9):
            queue.offer(_request(i, tenant="a" if i % 3 else "b"))
        order = _drain_ids(queue)
        a_order = [i for i in order if i % 3]
        b_order = [i for i in order if not i % 3]
        assert a_order == sorted(a_order)
        assert b_order == sorted(b_order)

    def test_priority_still_strict_across_classes(self):
        """WFQ runs *within* a class; INTERACTIVE still preempts."""
        queue = RequestQueue(policy=ServicePolicy())
        queue.offer(_request(0, tenant="a", priority=Priority.BULK))
        queue.offer(_request(1, tenant="b",
                             priority=Priority.INTERACTIVE))
        queue.offer(_request(2, tenant="a",
                             priority=Priority.STANDARD))
        assert _drain_ids(queue) == [1, 2, 0]

    def test_fair_queueing_off_restores_global_fifo(self):
        """``fair_queueing=False`` collapses every tenant into the
        single pre-tenancy bucket."""
        policy = ServicePolicy(
            tenants={"heavy": TenantPolicy(weight=9.0)},
            fair_queueing=False)
        queue = RequestQueue(policy=policy)
        for i, tenant in enumerate(("light", "heavy", "light",
                                    "heavy")):
            queue.offer(_request(i, tenant=tenant))
        assert _drain_ids(queue) == [0, 1, 2, 3]


class TestTenantQuotas:
    def test_max_queued_rejects_with_tenant_quota(self):
        policy = ServicePolicy(
            tenants={"hog": TenantPolicy(max_queued=2)})
        queue = RequestQueue(policy=policy)
        assert queue.offer(_request(0, tenant="hog")) is None
        assert queue.offer(_request(1, tenant="hog")) is None
        assert (queue.offer(_request(2, tenant="hog"))
                is RejectReason.TENANT_QUOTA)
        # Everyone else still has the whole remaining depth.
        assert queue.offer(_request(3, tenant="other")) is None
        assert queue.offer(_request(4)) is None

    def test_depth_bound_takes_precedence_over_quota(self):
        policy = ServicePolicy(
            queue_depth=1, tenants={"hog": TenantPolicy(max_queued=5)})
        queue = RequestQueue(policy=policy)
        assert queue.offer(_request(0, tenant="hog")) is None
        assert (queue.offer(_request(1, tenant="hog"))
                is RejectReason.QUEUE_FULL)

    def test_max_in_flight_sheds_at_submit(self):
        """The in-flight cap counts accepted-unresolved requests, so a
        closed-loop tenant is bounded even with queue space free."""
        service = EngineService(policy=ServicePolicy(
            tenants={"hog": TenantPolicy(max_in_flight=2)}))
        options = SubmitOptions(tenant="hog")
        call = BatchCall.intra(_INTRA[0], noise_frame(FMT, seed=1))
        tickets = [service.submit(call, options) for _ in range(4)]
        states = [t.state for t in tickets]
        assert states[:2] == [RequestState.QUEUED, RequestState.QUEUED]
        assert all(s is RequestState.REJECTED for s in states[2:])
        assert all(t.reject_reason is RejectReason.TENANT_QUOTA
                   for t in tickets[2:])
        report = service.drain()
        assert report.completed == 2
        # Completion released the in-flight slots: submit works again.
        assert service.submit(call, options).accepted

    def test_quota_sheds_land_in_tenant_books(self):
        service = EngineService(policy=ServicePolicy(
            tenants={"hog": TenantPolicy(max_queued=1)}))
        call = BatchCall.intra(_INTRA[0], noise_frame(FMT, seed=2))
        for _ in range(3):
            service.submit(call, SubmitOptions(tenant="hog"))
        report = service.drain()
        assert report.rejected_by_reason == {"tenant_quota": 2}
        assert report.sheds_by_tenant == {"hog": 2}
        assert report.to_dict()["sheds_by_tenant"] == {"hog": 2}


class TestShedsBook:
    def test_drain_zeroes_stale_sheds_tallies(self):
        """A drain with zero rejects and zero timeouts returns empty
        per-tenant sheds, whatever a caller poked into the books."""
        service = EngineService()
        service.report_data.sheds_by_tenant["ghost"] = 3
        report = service.drain()
        assert report.sheds_by_tenant == {}

    def test_real_sheds_survive_later_empty_drains(self):
        service = EngineService(policy=ServicePolicy(
            tenants={"hog": TenantPolicy(max_queued=1)}))
        call = BatchCall.intra(_INTRA[0], noise_frame(FMT, seed=3))
        service.submit(call, SubmitOptions(tenant="hog"))
        service.submit(call, SubmitOptions(tenant="hog"))
        service.drain()
        report = service.drain()  # nothing new: tallies must survive
        assert report.sheds_by_tenant == {"hog": 1}

    def test_deadline_expiry_tallies_as_tenant_shed(self):
        service = EngineService()
        call = BatchCall.intra(_INTRA[0], noise_frame(FMT, seed=4))
        service.submit(call, SubmitOptions(
            tenant="late", deadline_seconds=0.0))
        report = service.drain()
        assert report.timed_out == 1
        assert report.sheds_by_tenant == {"late": 1}


class TestDeadlineAwareBatching:
    def _queue_with_followers(self, policy):
        queue = RequestQueue(policy=policy)
        queue.offer(_request(0))                            # head
        queue.offer(_request(1))                            # undated
        queue.offer(_request(2, deadline_seconds=5.0))      # dated
        return queue

    def test_near_deadline_follower_rides_first(self):
        policy = ServicePolicy(max_batch=2)
        batcher = MicroBatcher(policy=policy)
        wave = batcher.form_wave(self._queue_with_followers(policy))
        assert [r.request_id for r in wave] == [0, 2]

    def test_preference_off_keeps_drain_order(self):
        policy = ServicePolicy(max_batch=2,
                               deadline_aware_batching=False)
        batcher = MicroBatcher(policy=policy)
        wave = batcher.form_wave(self._queue_with_followers(policy))
        assert [r.request_id for r in wave] == [0, 1]

    def test_dated_ties_keep_drain_order(self):
        """Equal deadlines sort stably: drain order breaks the tie."""
        policy = ServicePolicy(max_batch=3)
        queue = RequestQueue(policy=policy)
        for i in range(3):
            queue.offer(_request(i, deadline_seconds=5.0))
        wave = MicroBatcher(policy=policy).form_wave(queue)
        assert [r.request_id for r in wave] == [0, 1, 2]


class TestAsyncTenancy:
    def test_fifo_within_tenant_under_suspended_producers(self):
        """Three concurrent producers outrun a depth-4 queue (so all
        of them suspend); each tenant's completions still land in its
        own submission order."""
        total_each = 8

        async def run():
            service = EngineService(policy=ServicePolicy(
                queue_depth=4, max_batch=2,
                tenants={"a": TenantPolicy(weight=2.0),
                         "b": TenantPolicy(weight=1.0),
                         "c": TenantPolicy(weight=1.0)}))
            async with AsyncEngineClient(service) as client:
                tickets = {}

                async def produce(tenant):
                    tickets[tenant] = []
                    for seed in range(total_each):
                        tickets[tenant].append(await client.submit(
                            BatchCall.intra(_INTRA[0],
                                            noise_frame(FMT, seed=seed)),
                            SubmitOptions(tenant=tenant)))
                await asyncio.gather(*(produce(t) for t in "abc"))
                report = await client.drain()
                waits = client.backpressure_waits
            return tickets, report, waits

        tickets, report, waits = asyncio.run(run())
        assert report.completed == 3 * total_each
        assert waits > 0, "producers must actually have suspended"
        for tenant, batch in tickets.items():
            times = [t.ticket.completion_seconds for t in batch]
            assert times == sorted(times), (
                f"tenant {tenant!r} completed out of submission order")

    def test_quota_rejects_resolve_as_tickets(self):
        """A tenant at quota is shed explicitly through the facade --
        an already-resolved TENANT_QUOTA ticket, never a producer
        parked against capacity it may not take."""
        async def run():
            service = EngineService(policy=ServicePolicy(
                tenants={"hog": TenantPolicy(max_queued=1)}))
            async with AsyncEngineClient(service) as client:
                tickets = [await client.submit(
                    BatchCall.intra(_INTRA[0],
                                    noise_frame(FMT, seed=s)),
                    SubmitOptions(tenant="hog"))
                    for s in range(8)]
                rejected = [t for t in tickets
                            if t.ticket.state is RequestState.REJECTED]
                assert rejected, "expected tenant-quota rejections"
                for ticket in rejected:
                    assert (ticket.ticket.reject_reason
                            is RejectReason.TENANT_QUOTA)
                    assert ticket.done
                    with pytest.raises(ServiceError):
                        await ticket
                report = await client.drain()
            assert (report.completed
                    + report.rejected) == len(tickets)
            assert report.sheds_by_tenant == {
                "hog": report.rejected} if report.rejected else True

        asyncio.run(run())


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


class TestCorpusWithFairness:
    """The full 208-case corpus with tenant tags and WFQ enabled."""

    SHARDS = 8
    CASES_PER_SHARD = 26

    @pytest.mark.parametrize("shard", range(SHARDS))
    def test_fair_queued_service_matches_serial_executor(self, shard):
        """Random tenants at unequal weights reorder dispatch;
        every result stays bit-exact with the serial executor."""
        rng = random.Random(0xFA57 + shard)
        calls = [_random_batch_call(rng)
                 for _ in range(self.CASES_PER_SHARD)]
        tenants = [rng.choice((None, "alpha", "beta", "gamma"))
                   for _ in calls]
        priorities = [rng.choice(list(Priority)) for _ in calls]
        service = EngineService(policy=ServicePolicy(
            queue_depth=len(calls),
            tenants={"alpha": TenantPolicy(weight=3.0),
                     "beta": TenantPolicy(weight=1.0),
                     "gamma": TenantPolicy(weight=0.5)}))
        tickets = [service.submit(call, SubmitOptions(
            priority=priority, tenant=tenant))
            for call, priority, tenant in zip(calls, priorities,
                                              tenants)]
        report = service.drain()
        assert report.completed == len(calls)
        assert report.rejected == 0 and report.timed_out == 0
        assert report.sheds_by_tenant == {}
        for call, ticket in zip(calls, tickets):
            _assert_same(ticket.result(), _serial_reference(call))


class TestPolicyObject:
    def test_modern_constructors_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            EngineService(policy=ServicePolicy())
            RequestQueue(policy=ServicePolicy(queue_depth=8))
            MicroBatcher(policy=ServicePolicy(max_batch=2))
            AdmissionController(policy=ServicePolicy())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ServicePolicy(queue_depth=0)
        with pytest.raises(ValueError):
            ServicePolicy(max_batch=0)
        with pytest.raises(ValueError):
            TenantPolicy(weight=0.0)
        with pytest.raises(ValueError):
            TenantPolicy(max_queued=0)
        with pytest.raises(ValueError):
            TenantPolicy(p95_target_seconds=0.0)

    def test_unlisted_tenant_gets_the_default_policy(self):
        policy = ServicePolicy(
            tenants={"a": TenantPolicy(weight=2.0)},
            default_tenant=TenantPolicy(weight=0.5))
        assert policy.tenant("a").weight == 2.0
        assert policy.tenant("anyone").weight == 0.5
        assert policy.tenant(None).weight == 0.5
        assert policy.weight("a") == 2.0
        assert policy.weight("anyone") == 0.5
