"""Backpressure: bounded queue, modeled-backlog shedding, priorities."""

import pytest

from repro.addresslib import BatchCall, INTRA_BOX3, INTRA_GRAD
from repro.api import SubmitOptions
from repro.image import ImageFormat, noise_frame
from repro.service import (AdmissionPolicy, EngineService, Priority,
                           RejectReason, RequestState, ServiceError,
                           ServicePolicy)

QCIF = ImageFormat("QCIF", 176, 144)


def _frame(seed=1):
    return noise_frame(QCIF, seed=seed)


def _call(op=INTRA_GRAD, seed=1):
    return BatchCall.intra(op, _frame(seed))


def _service(budget_seconds=None, **knobs):
    """A service shedding above ``budget_seconds`` of modeled backlog
    (``None``: never)."""
    return EngineService(policy=ServicePolicy(
        admission=AdmissionPolicy(deadline_budget_seconds=budget_seconds),
        **knobs))


def _as(priority):
    return SubmitOptions(priority=priority)


class TestQueueFull:
    def test_depth_bound_rejects_with_reason(self):
        service = _service(queue_depth=2)
        accepted = [service.submit(_call()) for _ in range(2)]
        spilled = service.submit(_call())
        assert all(t.accepted for t in accepted)
        assert spilled.state is RequestState.REJECTED
        assert spilled.reject_reason is RejectReason.QUEUE_FULL
        assert spilled.done
        report = service.drain()
        assert report.rejected_by_reason == {"queue_full": 1}
        assert report.completed == 2

    def test_rejection_is_explicit_not_an_exception(self):
        service = _service(queue_depth=1)
        service.submit(_call())
        ticket = service.submit(_call())  # must not raise
        with pytest.raises(ServiceError):
            ticket.result()

    def test_draining_frees_depth(self):
        service = _service(queue_depth=1)
        first = service.submit(_call(seed=2))
        service.drain()
        second = service.submit(_call(seed=3))
        assert first.accepted and second.accepted
        service.drain()
        assert second.state is RequestState.COMPLETED


class TestOverloadShedding:
    def test_backlog_over_budget_sheds(self):
        cost = EngineService().admission.price(_call())[1]
        service = _service(cost * 1.5)
        tickets = [service.submit(_call()) for _ in range(4)]
        # Backlogs at admission: 0, c, 2c, ... -- budget 1.5c admits two.
        assert [t.accepted for t in tickets] == [True, True, False,
                                                 False]
        assert tickets[2].reject_reason is RejectReason.OVERLOAD
        report = service.drain()
        assert report.rejected_by_reason["overload"] == 2
        assert report.completed == 2
        assert report.reject_rate == pytest.approx(0.5)

    def test_no_policy_never_sheds(self):
        service = _service(queue_depth=256)
        tickets = [service.submit(_call()) for _ in range(64)]
        assert all(t.accepted for t in tickets)

    def test_draining_restores_admission(self):
        cost = EngineService().admission.price(_call())[1]
        service = _service(cost / 2)
        assert service.submit(_call()).accepted
        assert not service.submit(_call()).accepted
        service.drain()
        # The engine stays busy until the wave's modeled end; once the
        # clock has caught up the backlog is gone and admission reopens.
        assert service.submit(_call()).accepted

    def test_shed_requests_never_execute(self):
        cost = EngineService().admission.price(_call())[1]
        service = _service(cost / 2)
        service.submit(_call())
        service.submit(_call())
        service.drain()
        driver = service.pool.workers[0].driver
        assert driver.calls_submitted == 1
        assert driver.calls_shed == 1


class TestGraduatedBudgets:
    def test_bulk_sheds_before_interactive(self):
        """At the same backlog, BULK is over its (half) budget while
        INTERACTIVE still fits its full one."""
        cost = EngineService().admission.price(_call())[1]
        service = _service(cost * 1.4)
        service.submit(_call())  # backlog now ~1c for both below
        bulk = service.submit(_call(), _as(Priority.BULK))
        interactive = service.submit(_call(seed=4),
                                     _as(Priority.INTERACTIVE))
        assert bulk.reject_reason is RejectReason.OVERLOAD
        assert interactive.accepted


class TestPriorityDispatch:
    def test_interactive_overtakes_earlier_bulk(self):
        """Strict priority: a later INTERACTIVE request completes at an
        earlier modeled time than an earlier BULK one."""
        service = EngineService()
        bulk = service.submit(_call(op=INTRA_BOX3), _as(Priority.BULK))
        interactive = service.submit(_call(op=INTRA_GRAD),
                                     _as(Priority.INTERACTIVE))
        service.drain()
        assert (interactive.completion_seconds
                < bulk.completion_seconds)

    def test_fifo_within_class(self):
        service = _service(max_batch=1)
        first = service.submit(_call(seed=5))
        second = service.submit(_call(seed=6))
        service.drain()
        assert first.completion_seconds <= second.completion_seconds


class TestReportBooks:
    def test_counters_balance(self):
        cost = EngineService().admission.price(_call())[1]
        service = _service(cost * 2.5, queue_depth=3)
        tickets = [service.submit(_call()) for _ in range(6)]
        report = service.drain()
        assert report.submitted == 6
        assert report.accepted == report.completed
        assert report.accepted + report.rejected == report.submitted
        assert report.in_flight == 0
        assert report.queue_high_water <= 3
        states = [t.state for t in tickets]
        assert states.count(RequestState.COMPLETED) == report.completed
        assert states.count(RequestState.REJECTED) == report.rejected

    def test_latency_books_only_completed(self):
        service = _service(queue_depth=1)
        service.submit(_call())
        service.submit(_call())  # rejected
        report = service.drain()
        assert report.latency.count == report.completed == 1
        assert report.latency.p95 > 0.0
