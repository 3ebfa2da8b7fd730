"""Drain-time book integrity: tenant tallies track completions.

Per-tenant books are cut from the resolved tickets, each of which
carries the tenant it was submitted under: ``LoadReport.account`` folds
them into one ``TenantBook`` per tenant.  A drain that completed
nothing therefore shows no tenant completions, and the tenant books
always sum to the service's own completion count.
"""

from repro.addresslib import BatchCall, INTRA_OPS
from repro.api import EngineService, ServicePolicy, SubmitOptions
from repro.image import ImageFormat, noise_frame
from repro.load import LoadReport

FMT = ImageFormat("T16", 16, 16)
OP = INTRA_OPS["intra_grad"]


def _call(seed=1):
    return BatchCall.intra(OP, noise_frame(FMT, seed=seed))


def _tenant_books(tickets):
    """Per-tenant books of resolved ``tickets`` (tenant -> TenantBook)."""
    books = LoadReport(mode="serial", load_factor=1.0,
                       offered_requests=len(tickets),
                       offered_rate_per_s=0.0)
    for ticket in tickets:
        books.account(ticket)
    return books.tenants


def _completions(tickets):
    return {name: book.completed
            for name, book in _tenant_books(tickets).items()
            if book.completed}


class TestDrainZeroCompletions:
    def test_all_timeouts_leave_no_tenant_tallies(self):
        """A drain that completes nothing reports no per-tenant
        completions -- zero completions, zero tenant completions."""
        service = EngineService(policy=ServicePolicy(queue_depth=8))
        # Zero deadline: every request expires at dispatch time.
        tickets = [service.submit(_call(seed), SubmitOptions(
            tenant="doomed", deadline_seconds=0.0)) for seed in range(4)]
        report = service.drain()
        assert report.completed == 0
        assert report.timed_out == 4
        assert _completions(tickets) == {}
        assert _tenant_books(tickets)["doomed"].timed_out == 4

    def test_rejects_never_tally_tenants(self):
        service = EngineService(policy=ServicePolicy(queue_depth=1))
        first = service.submit(_call(0), SubmitOptions(
            tenant="a", deadline_seconds=0.0))
        # Queue full: rejected at offer, must not touch tenant books.
        ticket = service.submit(_call(1), SubmitOptions(tenant="b"))
        assert not ticket.accepted
        report = service.drain()
        assert report.completed == 0
        assert _completions([first, ticket]) == {}
        assert _tenant_books([ticket])["b"].rejected == 1


class TestTenantTalliesTrackCompletions:
    def test_tallies_sum_to_completed(self):
        """Mixed outcomes: the tenant books sum exactly to the
        completion count, with expired work absent."""
        service = EngineService(policy=ServicePolicy(queue_depth=16))
        tickets = [service.submit(_call(seed), SubmitOptions(tenant="ok"))
                   for seed in range(3)]
        tickets += [service.submit(_call(10 + seed), SubmitOptions(
            tenant="late", deadline_seconds=0.0)) for seed in range(2)]
        report = service.drain()
        assert report.completed == 3
        assert report.timed_out == 2
        assert _completions(tickets) == {"ok": 3}
        assert sum(_completions(tickets).values()) == report.completed

    def test_tallies_survive_a_later_empty_drain(self):
        """A second drain with nothing queued must not touch the books
        of the completions the first drain recorded."""
        service = EngineService(policy=ServicePolicy(queue_depth=8))
        ticket = service.submit(_call(5), SubmitOptions(tenant="kept"))
        first = service.drain()
        assert first.completed == 1
        assert _completions([ticket]) == {"kept": 1}
        second = service.drain()
        assert second.completed == 1
        assert _completions([ticket]) == {"kept": 1}
