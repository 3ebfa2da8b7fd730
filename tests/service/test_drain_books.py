"""Drain-time book integrity: tenant tallies track completions.

Regression suite for the stale per-tenant-books bug: the dispatch loop
used to bump ``calls_by_tenant`` *before* the completion loop ran, so a
drain cycle that completed nothing could still show tenant tallies.
The tally now lives in ``_complete`` (one source of truth) and
``drain()`` zeroes the per-tenant books whenever total completions are
zero.
"""

from repro.addresslib import BatchCall, INTRA_OPS
from repro.api import EngineService, ServicePolicy, SubmitOptions
from repro.image import ImageFormat, noise_frame

FMT = ImageFormat("T16", 16, 16)
OP = INTRA_OPS["intra_grad"]


def _call(seed=1):
    return BatchCall.intra(OP, noise_frame(FMT, seed=seed))


class TestDrainZeroCompletions:
    def test_all_timeouts_leave_no_tenant_tallies(self):
        """A drain that completes nothing reports empty per-tenant
        books -- zero completions, zero tenant completions."""
        service = EngineService(policy=ServicePolicy(queue_depth=8))
        for seed in range(4):
            # Zero deadline: every request expires at dispatch time.
            service.submit(_call(seed), SubmitOptions(
                tenant="doomed", deadline_seconds=0.0))
        report = service.drain()
        assert report.completed == 0
        assert report.timed_out == 4
        assert report.calls_by_tenant == {}

    def test_poked_stale_tallies_are_cleared(self):
        """Even tallies left behind by a meddling caller (or an old
        accounting bug) are wiped on a zero-completion drain."""
        service = EngineService(policy=ServicePolicy(queue_depth=8))
        service.report_data.calls_by_tenant["ghost"] = 7
        report = service.drain()
        assert report.completed == 0
        assert report.calls_by_tenant == {}

    def test_rejects_never_tally_tenants(self):
        service = EngineService(policy=ServicePolicy(queue_depth=1))
        service.submit(_call(0), SubmitOptions(tenant="a",
                                               deadline_seconds=0.0))
        # Queue full: rejected at offer, must not touch tenant books.
        ticket = service.submit(_call(1), SubmitOptions(tenant="b"))
        assert not ticket.accepted
        report = service.drain()
        assert report.completed == 0
        assert report.calls_by_tenant == {}


class TestTenantTalliesTrackCompletions:
    def test_tallies_sum_to_completed(self):
        """Mixed outcomes: the tenant books sum exactly to the
        completion count, with expired work absent."""
        service = EngineService(policy=ServicePolicy(queue_depth=16))
        for seed in range(3):
            service.submit(_call(seed), SubmitOptions(tenant="ok"))
        for seed in range(2):
            service.submit(_call(10 + seed), SubmitOptions(
                tenant="late", deadline_seconds=0.0))
        report = service.drain()
        assert report.completed == 3
        assert report.timed_out == 2
        assert report.calls_by_tenant == {"ok": 3}
        assert sum(report.calls_by_tenant.values()) == report.completed

    def test_tallies_survive_a_later_empty_drain(self):
        """A second drain with nothing queued must not wipe the books
        of the completions the first drain recorded."""
        service = EngineService(policy=ServicePolicy(queue_depth=8))
        service.submit(_call(5), SubmitOptions(tenant="kept"))
        first = service.drain()
        assert first.calls_by_tenant == {"kept": 1}
        second = service.drain()
        assert second.calls_by_tenant == {"kept": 1}
