"""Trace replay: serial/async agreement, accounting, memory bounds.

Below saturation the async facade paces the modeled clock exactly like
the blessed serial pump, so the two replays must cut *identical*
modeled books -- the strongest cheap check that no wall-clock behaviour
leaks into the modeled domain.  Accounting must balance (every offered
request lands in exactly one bucket) and account-then-release must keep
the service's ticket table empty.
"""

import json

import pytest

from repro.api import (AdmissionPolicy, EnginePool, EngineService,
                       ServicePolicy)
from repro.load import (ArrivalTrace, LoadReport, TenantSpec, TraceSpec,
                        replay_async, replay_serial)
from repro.perf.report import REPORT_SCHEMA_KEYS


def _trace(requests=400, rate_per_s=300.0, seed=0x0AD5):
    return ArrivalTrace.synthesize(TraceSpec(
        requests=requests, rate_per_s=rate_per_s, seed=seed))


def _service(queue_depth=64, boards=2, admission=None):
    return EngineService(
        pool=EnginePool.of_engines(boards),
        policy=ServicePolicy(queue_depth=queue_depth, max_batch=8,
                             admission=admission or AdmissionPolicy()))


def _modeled_books(report):
    """The machine-independent slice of a LoadReport payload."""
    payload = report.to_dict()
    for key in ("mode", "wall_latency", "backpressure_waits",
                "backpressure_wall_seconds", "wall_elapsed_seconds",
                "requests_per_wall_s", "service"):
        payload.pop(key)
    return payload


class TestAccounting:
    def test_books_balance(self):
        trace = _trace()
        report = replay_serial(trace, _service())
        assert report.accounted == len(trace)
        assert (report.completed + report.rejected + report.timed_out
                == len(trace))
        assert sum(b.submitted for b in report.tenants.values()) == (
            len(trace))
        assert report.modeled_latency.count == report.completed
        assert report.service is not None
        assert report.service.completed == report.completed

    def test_release_keeps_ticket_table_empty(self):
        trace = _trace(requests=200)
        service = _service()
        replay_serial(trace, service)
        assert len(service._tickets) == 0

        service = _service()
        replay_async(trace, service)
        assert len(service._tickets) == 0

    def test_async_replay_holds_tickets_to_queue_depth(self, monkeypatch):
        """Results are released as waves retire, not at ``drain()``:
        while a replay runs, the service never holds more than a full
        queue plus one wave of tickets, however long the trace."""
        queue_depth, max_batch = 8, 2
        trace = ArrivalTrace.synthesize(TraceSpec(
            requests=400, rate_per_s=300.0, seed=0x0AD5, width=16,
            height=16))
        service = EngineService(
            pool=EnginePool.of_engines(2),
            policy=ServicePolicy(queue_depth=queue_depth,
                                 max_batch=max_batch))
        held = []
        account = LoadReport.account

        def spy(report, ticket, *args):
            held.append(len(service._tickets))
            account(report, ticket, *args)

        monkeypatch.setattr(LoadReport, "account", spy)
        report = replay_async(trace, service)
        assert report.rejected == 0 and report.accounted == len(trace)
        assert len(held) == len(trace)
        assert max(held) <= queue_depth + max_batch

    def test_report_follows_shared_schema(self):
        report = replay_serial(_trace(requests=50), _service())
        payload = report.to_dict()
        assert list(payload)[:len(REPORT_SCHEMA_KEYS)] == list(
            REPORT_SCHEMA_KEYS)
        assert payload["kind"] == "load"
        json.dumps(payload)  # all figures must serialize

    def test_empty_trace(self):
        trace = _trace(requests=5).head(0)
        serial = replay_serial(trace, _service())
        asynch = replay_async(trace, _service())
        assert serial.accounted == 0 and asynch.accounted == 0


class TestSerialAsyncAgreement:
    def test_identical_modeled_books_below_saturation(self):
        """Low offered load, deep queue: neither path sheds or waits,
        and arrival pacing makes their modeled books identical."""
        trace = _trace(requests=300, rate_per_s=150.0)
        serial = replay_serial(trace, _service(queue_depth=128))
        asynch = replay_async(trace, _service(queue_depth=128))
        assert serial.rejected == 0 and asynch.rejected == 0
        assert asynch.backpressure_waits == 0
        assert _modeled_books(serial) == _modeled_books(asynch)

    def test_async_replay_is_deterministic(self):
        """The same trace replayed twice through the event loop cuts
        identical modeled books, backpressure and all."""
        trace = _trace(requests=400, rate_per_s=2500.0)
        first = replay_async(trace, _service(queue_depth=16))
        second = replay_async(trace, _service(queue_depth=16))
        assert first.backpressure_waits == second.backpressure_waits
        assert _modeled_books(first) == _modeled_books(second)


class TestShedding:
    def test_admission_policy_sheds_at_overload(self):
        """With a deadline budget in force, a trace offered well past
        capacity rejects at admission instead of queueing forever."""
        trace = ArrivalTrace.synthesize(TraceSpec(
            requests=400, rate_per_s=20_000.0, seed=0x5ED,
            tenants=(TenantSpec("t", deadline_seconds=0.01),)))
        report = replay_serial(
            trace, _service(queue_depth=16,
                            admission=AdmissionPolicy(0.010)))
        assert report.rejected > 0
        assert report.accounted == len(trace)
        per_reason = report.rejected_by_reason
        assert all(reason in ("overload", "queue_full")
                   for reason in per_reason)

    def test_async_backpressure_trades_rejects_for_waits(self):
        """Same hot trace: the async path suspends producers instead
        of shedding on queue depth, so it completes strictly more."""
        trace = _trace(requests=300, rate_per_s=5000.0)
        serial = replay_serial(trace, _service(queue_depth=8))
        asynch = replay_async(trace, _service(queue_depth=8))
        assert serial.rejected > 0
        assert asynch.rejected == 0
        assert asynch.backpressure_waits > 0
        assert asynch.completed > serial.completed
