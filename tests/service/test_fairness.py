"""Tenant fairness: WFQ drain order, SLO books, policy object.

The tenancy redesign must change *scheduling*, never *results*: the
weighted-fair queue interleaves tenants by policy weight inside each
priority class (collapsing to exact FIFO for untagged work), the
shedding books balance per tenant, and the whole 0xFA57 corpus stays
bit-exact with fairness enabled.  The ``ServicePolicy`` object is the
one spelling of the knobs.
"""

import asyncio
import os
import random
import subprocess
import sys
import textwrap
import warnings

import pytest

import repro
from repro.addresslib import (BatchCall, INTER_OPS, INTRA_OPS,
                              VectorExecutor)
from repro.aio import AsyncEngineClient
from repro.api import (AdmissionPolicy, EngineService, Priority,
                       RequestState, ServiceError, ServicePolicy,
                       SubmitOptions, TenantPolicy)
from repro.image import ImageFormat, noise_frame
from repro.load import LoadReport
from repro.service import (AdmissionController, MicroBatcher,
                           RejectReason, RequestQueue)
from repro.service.policy import DEFAULT_TENANT_POLICY
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


class TestShedsBook:
    def test_real_sheds_survive_later_empty_drains(self):
        service = EngineService(policy=ServicePolicy(queue_depth=1))
        call = BatchCall.intra(_INTRA[0], noise_frame(FMT, seed=3))
        service.submit(call, SubmitOptions(tenant="hog"))
        shed = service.submit(call, SubmitOptions(tenant="hog"))
        service.drain()
        report = service.drain()  # nothing new: the books must survive
        assert report.rejected_by_reason == {"queue_full": 1}
        assert shed.reject_reason is RejectReason.QUEUE_FULL
        assert shed.tenant == "hog"

    def test_deadline_expiry_tallies_as_tenant_shed(self):
        service = EngineService()
        call = BatchCall.intra(_INTRA[0], noise_frame(FMT, seed=4))
        ticket = service.submit(call, SubmitOptions(
            tenant="late", deadline_seconds=0.0))
        report = service.drain()
        assert report.timed_out == 1
        books = LoadReport(mode="serial", load_factor=1.0,
                           offered_requests=1, offered_rate_per_s=0.0)
        books.account(ticket)
        assert books.to_dict()["sheds_by_tenant"] == {"late": 1}


class TestWeightShare:
    #: Three tenants weighted 0.1/0.2/0.7, each with queued work; prints
    #: the 0.1 tenant's share.
    SCRIPT = textwrap.dedent("""\
        from repro.addresslib import BatchCall, INTRA_GRAD
        from repro.api import (EngineService, ServicePolicy,
                               SubmitOptions, TenantPolicy)
        from repro.image import ImageFormat, noise_frame
        weights = {"tenth": 0.1, "fifth": 0.2, "rest": 0.7}
        service = EngineService(policy=ServicePolicy(tenants={
            name: TenantPolicy(weight=w) for name, w in weights.items()}))
        frame = noise_frame(ImageFormat("T8", 8, 8), seed=0)
        for name in weights:
            service.submit(BatchCall.intra(INTRA_GRAD, frame),
                           SubmitOptions(tenant=name))
        print(repr(service._weight_share("tenth")))
        """)

    def test_share_does_not_depend_on_the_hash_seed(self):
        """The active tenants form a set, whose order follows string
        hashing; the share must read the same under every
        ``PYTHONHASHSEED``."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        shares = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=src)
            shares.add(subprocess.run(
                [sys.executable, "-c", self.SCRIPT], env=env,
                check=True, capture_output=True, text=True,
                timeout=120).stdout.strip())
        assert len(shares) == 1, shares


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
        """``fair_queueing=False`` also turns deadline ranking off."""
        policy = ServicePolicy(max_batch=2, fair_queueing=False)
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

    def test_overload_rejects_resolve_as_tickets(self):
        """An over-budget tenant is shed explicitly through the facade
        -- an already-resolved OVERLOAD ticket, never a producer
        parked against a backlog admission has refused."""
        def call(seed):
            return BatchCall.intra(_INTRA[0], noise_frame(FMT, seed=seed))

        cost = EngineService().admission.price(call(0))[1]

        async def run():
            service = EngineService(policy=ServicePolicy(
                admission=AdmissionPolicy(2.0 * cost)))
            async with AsyncEngineClient(service) as client:
                tickets = [await client.submit(
                    call(s), SubmitOptions(tenant="hog"))
                    for s in range(8)]
                rejected = [t for t in tickets
                            if t.ticket.state is RequestState.REJECTED]
                assert rejected, "expected overload rejections"
                for ticket in rejected:
                    assert (ticket.ticket.reject_reason
                            is RejectReason.OVERLOAD)
                    assert ticket.ticket.tenant == "hog"
                    assert ticket.done
                    with pytest.raises(ServiceError):
                        await ticket
                report = await client.drain()
            assert client.backpressure_waits == 0
            assert (report.completed
                    + report.rejected) == len(tickets)
            assert report.rejected == len(rejected)

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
            TenantPolicy(p95_target_seconds=0.0)

    def test_unlisted_tenant_gets_the_default_policy(self):
        policy = ServicePolicy(tenants={"a": TenantPolicy(weight=2.0)})
        assert policy.tenant("a").weight == 2.0
        assert policy.tenant("anyone") is DEFAULT_TENANT_POLICY
        assert policy.tenant(None) is DEFAULT_TENANT_POLICY
        assert policy.weight("a") == 2.0
        assert policy.weight("anyone") == DEFAULT_TENANT_POLICY.weight
        assert DEFAULT_TENANT_POLICY == TenantPolicy()
