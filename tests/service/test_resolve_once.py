"""Every submitted request resolves exactly once, and says so once.

A rejected request comes back resolved from ``submit``; an accepted
one is returned by exactly one ``step`` or ``run_until`` -- the call
that completed it or timed it out.  Whatever the queue depth, wave
size, pool size, admission budget, deadlines, retries and tenant
weights, the returned tickets must cover every request id once -- a
full queue (``QUEUE_FULL``), an over-budget backlog (``OVERLOAD``) and
expired deadlines all reach the property -- and the service books and
the per-tenant books cut from the returned tickets must balance.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.addresslib import BatchCall, INTRA_BOX3, INTRA_GRAD
from repro.api import (AdmissionPolicy, EnginePool, EngineService,
                       Priority, RequestState, ServicePolicy,
                       SubmitOptions, TenantPolicy)
from repro.image import ImageFormat, noise_frame
from repro.load import LoadReport

FMT = ImageFormat("T16", 16, 16)
FRAMES = [noise_frame(FMT, seed=seed) for seed in range(3)]
OPS = (INTRA_GRAD, INTRA_BOX3)

#: One request: (arrival gap, op, frame, tenant, priority, deadline,
#: retries), with the gap and the deadline in units of one call's cost.
requests = st.lists(st.tuples(
    st.floats(0.0, 1.0),
    st.integers(0, len(OPS) - 1),
    st.integers(0, len(FRAMES) - 1),
    st.sampled_from(["a", "b", None]),
    st.sampled_from(list(Priority)),
    st.one_of(st.none(), st.floats(0.1, 4.0)),
    st.integers(0, 2),
), min_size=1, max_size=30)


#: Three simultaneous requests of one tenant, without deadlines.
_BURST = [(0.0, 0, 0, "a", Priority.STANDARD, None, 0)] * 3


class TestResolvedExactlyOnce:
    @given(requests=requests, depth=st.integers(1, 6),
           max_batch=st.integers(1, 4), boards=st.integers(1, 3),
           budget=st.one_of(st.none(), st.floats(0.25, 4.0)))
    # Pinned reaches for each way a request can be shed: a full
    # queue, an over-budget backlog, and expired deadlines.
    @example(requests=_BURST, depth=1, max_batch=1, boards=1,
             budget=None)
    @example(requests=_BURST, depth=6, max_batch=1, boards=1,
             budget=0.5)
    @example(requests=[(0.0, 0, 0, "b", Priority.STANDARD, 0.5, 1)] * 3,
             depth=6, max_batch=1, boards=1, budget=None)
    @settings(max_examples=80, deadline=None)
    def test_every_request_comes_back_once(self, requests, depth,
                                           max_batch, boards, budget):
        unit = EngineService().admission.price(
            BatchCall.intra(INTRA_GRAD, FRAMES[0]))[1]
        service = EngineService(
            pool=EnginePool.of_engines(boards),
            policy=ServicePolicy(
                queue_depth=depth, max_batch=max_batch,
                admission=AdmissionPolicy(
                    None if budget is None else budget * unit),
                tenants={"a": TenantPolicy(weight=2.0)}))
        tickets = {}
        returned = Counter()
        submitted_by_tenant = Counter()
        books = LoadReport(mode="serial", load_factor=1.0,
                           offered_requests=len(requests),
                           offered_rate_per_s=0.0)

        def collect(resolved):
            for ticket in resolved:
                assert ticket.done
                assert ticket is tickets[ticket.request_id]
                returned[ticket.request_id] += 1
                books.account(ticket)

        clock = 0.0
        for gap, op, frame, tenant, priority, deadline, retries in (
                requests):
            clock += gap * unit
            collect(service.run_until(clock))
            ticket = service.submit(
                BatchCall.intra(OPS[op], FRAMES[frame]),
                SubmitOptions(
                    priority=priority, tenant=tenant,
                    deadline_seconds=(None if deadline is None
                                      else deadline * unit),
                    max_retries=retries, arrival_seconds=clock))
            tickets[ticket.request_id] = ticket
            submitted_by_tenant[tenant] += 1
            assert ticket.tenant == tenant
            if ticket.done:
                assert ticket.state is RequestState.REJECTED
                collect([ticket])
        while service.queue:
            collect(service.step())
        report = service.drain()

        assert returned == Counter({rid: 1 for rid in tickets})
        assert all(ticket.done for ticket in tickets.values())
        assert report.submitted == len(requests)
        assert (report.completed + report.rejected + report.timed_out
                == report.submitted)
        assert books.completed == report.completed
        assert books.rejected_by_reason == report.rejected_by_reason
        assert books.timed_out == report.timed_out
        for tenant in ("a", "b"):
            book = books.tenants.get(tenant)
            submitted = book.submitted if book else 0
            assert submitted == submitted_by_tenant[tenant]
            if book:
                assert (book.completed + book.rejected + book.timed_out
                        == book.submitted)
