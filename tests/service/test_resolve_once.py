"""Every submitted request resolves exactly once, and says so once.

A rejected request comes back resolved from ``submit``; an accepted
one is returned by exactly one ``step`` or ``run_until`` -- the call
that completed it or timed it out.  Whatever the queue depth, wave
size, pool size, admission budget, deadlines, retries and tenant
quotas, the returned tickets must cover every request id once, and the
service books must balance against them.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import BatchCall, INTRA_BOX3, INTRA_GRAD
from repro.api import (AdmissionPolicy, EnginePool, EngineService,
                       Priority, RequestState, ServicePolicy,
                       SubmitOptions, TenantPolicy)
from repro.image import ImageFormat, noise_frame

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


class TestResolvedExactlyOnce:
    @given(requests=requests, depth=st.integers(1, 6),
           max_batch=st.integers(1, 4), boards=st.integers(1, 3),
           budget=st.one_of(st.none(), st.floats(0.25, 4.0)))
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
                tenants={"a": TenantPolicy(max_queued=2,
                                           max_in_flight=3)}))
        tickets = {}
        returned = Counter()
        submitted_by_tenant = Counter()

        def collect(resolved):
            for ticket in resolved:
                assert ticket.done
                assert ticket is tickets[ticket.request_id]
                returned[ticket.request_id] += 1

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
                returned[ticket.request_id] += 1
        while service.queue:
            collect(service.step())
        report = service.drain()

        assert returned == Counter({rid: 1 for rid in tickets})
        assert all(ticket.done for ticket in tickets.values())
        assert report.submitted == len(requests)
        assert (report.completed + report.rejected + report.timed_out
                == report.submitted)
        for tenant in ("a", "b"):
            assert (report.calls_by_tenant.get(tenant, 0)
                    + report.sheds_by_tenant.get(tenant, 0)
                    == submitted_by_tenant[tenant])
