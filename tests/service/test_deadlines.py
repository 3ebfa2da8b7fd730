"""Per-request deadlines: timeout at dispatch, bounded retry."""

import pytest

from repro.addresslib import (BatchCall, INTRA_BOX3, INTRA_GRAD,
                              VectorExecutor)
from repro.api import SubmitOptions
from repro.image import ImageFormat, noise_frame
from repro.service import EngineService, RequestState, ServiceError

QCIF = ImageFormat("QCIF", 176, 144)


def _frame(seed=1):
    return noise_frame(QCIF, seed=seed)


class TestTimeout:
    def test_unmeetable_deadline_times_out(self):
        service = EngineService()
        cost = service.admission.price(
            BatchCall.intra(INTRA_GRAD, _frame()))[1]
        ticket = service.submit(BatchCall.intra(INTRA_GRAD, _frame()),
                                SubmitOptions(deadline_seconds=cost / 2))
        report = service.drain()
        assert ticket.state is RequestState.TIMED_OUT
        assert ticket.attempts == 1
        assert report.timed_out == 1 and report.completed == 0
        with pytest.raises(ServiceError):
            ticket.result()

    def test_timed_out_work_is_never_executed(self):
        service = EngineService()
        cost = service.admission.price(
            BatchCall.intra(INTRA_GRAD, _frame()))[1]
        service.submit(BatchCall.intra(INTRA_GRAD, _frame()),
                       SubmitOptions(deadline_seconds=cost / 2))
        service.drain()
        driver = service.pool.workers[0].driver
        assert driver.calls_submitted == 0
        assert driver.calls_shed == 1

    def test_generous_deadline_completes(self):
        service = EngineService()
        cost = service.admission.price(
            BatchCall.intra(INTRA_GRAD, _frame()))[1]
        ticket = service.submit(BatchCall.intra(INTRA_GRAD, _frame()),
                                SubmitOptions(deadline_seconds=cost * 2))
        service.drain()
        assert ticket.state is RequestState.COMPLETED
        assert ticket.attempts == 1
        assert ticket.latency_seconds <= cost * 2

    def test_no_deadline_never_times_out(self):
        service = EngineService()
        tickets = [service.submit(BatchCall.intra(INTRA_GRAD,
                                                  _frame(seed=s)))
                   for s in range(5)]
        report = service.drain()
        assert report.timed_out == 0
        assert all(t.state is RequestState.COMPLETED for t in tickets)


class TestBoundedRetry:
    def test_retries_are_bounded_then_time_out(self):
        service = EngineService()
        cost = service.admission.price(
            BatchCall.intra(INTRA_GRAD, _frame()))[1]
        ticket = service.submit(BatchCall.intra(INTRA_GRAD, _frame()),
                                SubmitOptions(deadline_seconds=cost / 2,
                                              max_retries=2))
        report = service.drain()
        assert ticket.state is RequestState.TIMED_OUT
        assert ticket.attempts == 3          # initial + 2 retries
        assert report.retried == 2
        assert report.timed_out == 1

    def test_retry_after_transient_backlog_succeeds(self):
        """First dispatch misses because an earlier wave holds the
        engine; the re-based retry fits and completes bit-exactly."""
        service = EngineService()
        blocker_frame = _frame(seed=2)
        victim_frame = _frame(seed=3)
        cost = service.admission.price(
            BatchCall.intra(INTRA_GRAD, victim_frame))[1]
        service.submit(BatchCall.intra(INTRA_BOX3, blocker_frame))
        ticket = service.submit(BatchCall.intra(INTRA_GRAD, victim_frame),
                                SubmitOptions(deadline_seconds=cost * 1.5,
                                              max_retries=1))
        report = service.drain()
        assert ticket.state is RequestState.COMPLETED
        assert ticket.attempts == 2
        assert report.retried == 1 and report.timed_out == 0
        assert ticket.result().equals(
            VectorExecutor.intra(INTRA_GRAD, victim_frame))

    def test_retry_latency_counts_from_original_arrival(self):
        service = EngineService()
        cost = service.admission.price(
            BatchCall.intra(INTRA_GRAD, _frame()))[1]
        service.submit(BatchCall.intra(INTRA_BOX3, _frame(seed=2)))
        ticket = service.submit(BatchCall.intra(INTRA_GRAD, _frame()),
                                SubmitOptions(deadline_seconds=cost * 1.5,
                                              max_retries=1))
        service.drain()
        # Completed after the blocker's wave plus its own: the modeled
        # latency includes the time spent queued and retried.
        assert ticket.latency_seconds == pytest.approx(
            ticket.completion_seconds - ticket.arrival_seconds)
        assert ticket.latency_seconds > cost


class TestOpenLoopArrivals:
    def test_arrival_seconds_places_requests_on_the_clock(self):
        service = EngineService()
        early = service.submit(BatchCall.intra(INTRA_GRAD, _frame()),
                               SubmitOptions(arrival_seconds=0.0))
        late = service.submit(BatchCall.intra(INTRA_BOX3, _frame()),
                              SubmitOptions(arrival_seconds=1.0))
        service.drain()
        assert early.arrival_seconds == 0.0
        assert late.arrival_seconds == 1.0
        # The late request cannot start before it arrives.
        assert late.completion_seconds > 1.0

    def test_clock_never_runs_backwards(self):
        service = EngineService()
        service.submit(BatchCall.intra(INTRA_GRAD, _frame()),
                       SubmitOptions(arrival_seconds=2.0))
        ticket = service.submit(BatchCall.intra(INTRA_GRAD, _frame()),
                                SubmitOptions(arrival_seconds=1.0))
        assert ticket.arrival_seconds == 2.0

    def test_run_until_serves_only_due_work(self):
        service = EngineService()
        first = service.submit(BatchCall.intra(INTRA_GRAD, _frame()),
                               SubmitOptions(arrival_seconds=0.0))
        service.run_until(0.5)
        assert first.state is RequestState.COMPLETED
        assert service.clock >= 0.5
