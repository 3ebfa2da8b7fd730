"""Transport and pool books vs the shared report schema.

``CallScheduler.transport_stats()`` and the ``WorkerReport``/
``PoolReport`` books are the figures the BENCH emitters and
``repro.summary`` read; this suite pins the scheduler's counter keys
and the ``base_report_dict`` schema contract -- including the
degenerate books nobody exercises by hand: a scheduler that never
completed a call, and one that only ever kept its calls in the parent
(a one-CPU host).
"""

import pytest

from repro.addresslib import BatchCall, INTRA_GRAD
from repro.host import CallScheduler
from repro.image import ImageFormat, noise_frame
from repro.perf import REPORT_SCHEMA_KEYS, base_report_dict
from repro.pool import EnginePool, PoolReport
from repro.pool.worker import WorkerReport

QCIF = ImageFormat("QCIF", 176, 144)

#: The scheduler's transport counters; every one must exist (as an int)
#: in ``CallScheduler.transport_stats()``.
TRANSPORT_COUNTER_KEYS = (
    "round_trips", "pool_calls", "inline_calls", "bypass_calls",
    "worker_cache_hits", "worker_cache_attaches")


def _assert_schema(payload):
    for key in REPORT_SCHEMA_KEYS:
        assert key in payload, f"missing shared schema key {key!r}"
    assert isinstance(payload["calls"], int)
    assert isinstance(payload["cycles"], float)
    assert isinstance(payload["cache"], dict)
    assert isinstance(payload["shed"], int)


class TestSchedulerTransportStats:
    def test_zero_completion_books(self):
        with CallScheduler(max_workers=2) as scheduler:
            stats = scheduler.transport_stats()
        for key in TRANSPORT_COUNTER_KEYS:
            assert stats[key] == 0
        assert stats["dispatch_seconds"] == 0.0
        assert stats["store"] == {}

    def test_bypass_only_books(self, monkeypatch):
        monkeypatch.setattr("repro.host.scheduler.os.cpu_count",
                            lambda: 1)
        calls = [BatchCall.intra(INTRA_GRAD, noise_frame(QCIF, seed=i))
                 for i in range(3)]
        with CallScheduler(max_workers=2) as scheduler:
            scheduler.compute_batch(calls)
            stats = scheduler.transport_stats()
        assert stats["bypass_calls"] == len(calls)
        assert stats["pool_calls"] == 0
        assert stats["round_trips"] == 0
        assert stats["worker_cache_hits"] == 0

    def test_counters_are_ints(self):
        with CallScheduler(max_workers=1) as scheduler:
            stats = scheduler.transport_stats()
            for key in TRANSPORT_COUNTER_KEYS:
                assert isinstance(stats[key], int), key


class TestWorkerReportBooks:
    def test_zero_completion_schema(self):
        payload = WorkerReport(worker_id=0).to_dict(clock_hz=33e6)
        _assert_schema(payload)
        assert payload["kind"] == "pool_worker"
        assert payload["calls"] == 0
        assert payload["cycles"] == 0.0
        assert payload["cache"] == {}
        assert payload["residency_hit_rate"] is None


class TestPoolReportBooks:
    def test_zero_completion_schema(self):
        payload = PoolReport().to_dict()
        _assert_schema(payload)
        assert payload["kind"] == "pool"
        assert payload["calls"] == 0
        assert payload["workers"] == []

    def test_live_pool_report_conforms(self):
        calls = [BatchCall.intra(INTRA_GRAD, noise_frame(QCIF, seed=i))
                 for i in range(4)]
        pool = EnginePool.of_engines(2)
        pool.dispatch(calls)
        payload = pool.report().to_dict()
        _assert_schema(payload)
        assert payload["calls"] == len(calls)
        workers = payload["workers"]
        assert len(workers) == 2
        for worker_payload in workers:
            _assert_schema(worker_payload)
            assert worker_payload["kind"] == "pool_worker"


class TestSchemaContract:
    def test_base_report_dict_normalises_types(self):
        payload = base_report_dict("x", calls=3, cycles=7,
                                   cache=None, transport={"a": 1})
        _assert_schema(payload)
        assert payload["cycles"] == 7.0
        assert payload["transport"] == {"a": 1}
