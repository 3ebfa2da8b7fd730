"""The queue's backlog books equal what it holds.

``RequestQueue`` is the one owner of what is queued: admission prices
a request against the queue's total and per-tenant estimated cost, and
no other layer keeps a copy.  After any sequence of ``offer``,
``pop_next``, ``pop_compatible`` and ``requeue_front`` the books must
equal the costs of the requests the queue holds, in total and per
tenant, and exactly the tenants with queued work hold an entry.

Costs are drawn from the prices of real calls, tiny frames to CIF
(1.2-18.5 ms): the per-tenant book drops an entry once it is within
1e-15 s of zero, an absolute bound that holds float residue at these
prices but not at costs near 0.1 s and above.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (BatchCall, INTER_ABSDIFF, INTRA_BOX3,
                              INTRA_GRAD)
from repro.image import CIF, QCIF, ImageFormat, noise_frame
from repro.perf import EngineTimingModel
from repro.pool.pricing import call_cost_seconds
from repro.service import (Priority, RequestQueue, ServicePolicy,
                           ServiceRequest, TenantPolicy)

TENANTS = (None, "a", "b", "c")
TIMING = EngineTimingModel()


def _prices():
    """Overlapped modeled costs of real calls, tiny frames to CIF:
    the values admission stamps on requests."""
    calls = []
    for fmt in (ImageFormat("T8", 8, 8), QCIF, CIF):
        frame = noise_frame(fmt, seed=1)
        other = noise_frame(fmt, seed=2)
        calls += [BatchCall.intra(INTRA_GRAD, frame),
                  BatchCall.intra(INTRA_BOX3, frame),
                  BatchCall.inter(INTER_ABSDIFF, frame, other),
                  BatchCall.inter_reduce(INTER_ABSDIFF, frame, other)]
    return sorted({call_cost_seconds(call, TIMING)[1] for call in calls})


PRICES = _prices()
CALL = BatchCall.intra(INTRA_GRAD, noise_frame(ImageFormat("T8", 8, 8),
                                               seed=0))

offer = st.tuples(st.just("offer"), st.sampled_from(TENANTS),
                  st.sampled_from(list(Priority)),
                  st.sampled_from(PRICES))
pop_next = st.tuples(st.just("pop_next"))
pop_compatible = st.tuples(st.just("pop_compatible"),
                           st.sampled_from(TENANTS), st.integers(0, 4),
                           st.booleans())
requeue_front = st.tuples(st.just("requeue_front"), st.integers(0, 64))
operations = st.lists(st.one_of(offer, pop_next, pop_compatible,
                                requeue_front), max_size=80)


def _assert_books_match(queue):
    held = list(queue)
    assert len(held) == len(queue)
    assert queue.cost_seconds == pytest.approx(
        math.fsum(r.estimated_cost_seconds for r in held), abs=1e-12)
    by_tenant = {}
    for request in held:
        by_tenant.setdefault(request.tenant, []).append(
            request.estimated_cost_seconds)
    assert set(queue.cost_by_tenant) == set(by_tenant)
    for tenant, costs in by_tenant.items():
        assert queue.cost_by_tenant[tenant] == pytest.approx(
            math.fsum(costs), abs=1e-12)


class TestQueueBooks:
    @given(operations=operations, depth=st.integers(1, 8),
           fair=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_books_equal_the_held_costs(self, operations, depth, fair):
        queue = RequestQueue(policy=ServicePolicy(
            queue_depth=depth, fair_queueing=fair,
            tenants={"a": TenantPolicy(weight=2.0),
                     "b": TenantPolicy(weight=0.5)}))
        popped = []
        next_id = 0
        for operation in operations:
            kind = operation[0]
            if kind == "offer":
                _, tenant, priority, cost = operation
                queue.offer(ServiceRequest(
                    request_id=next_id, call=CALL, priority=priority,
                    arrival_seconds=0.0, deadline_seconds=None,
                    estimated_cost_seconds=cost, tenant=tenant))
                next_id += 1
            elif kind == "pop_next":
                if queue:
                    popped.append(queue.pop_next())
            elif kind == "pop_compatible":
                _, tenant, limit, ranked = operation
                popped += queue.pop_compatible(
                    lambda request: request.tenant == tenant, limit,
                    prefer=((lambda request: -request.request_id)
                            if ranked else None))
            elif popped:
                queue.requeue_front(
                    popped.pop(operation[1] % len(popped)))
            _assert_books_match(queue)
