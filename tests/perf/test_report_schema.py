"""One ``to_dict()`` schema across every report type.

Each layer keeps richer books, but all of them flatten through
:func:`repro.perf.report.base_report_dict`, so downstream tooling can
read ``kind / calls / cycles / cache / shed`` off any report without
knowing which layer produced it.
"""

import pytest

from repro.addresslib import BatchCall, INTRA_GRAD
from repro.api import EnginePool, EngineService, SubmitOptions
from repro.host import BatchReport, RunReport
from repro.image import ImageFormat, noise_frame
from repro.perf import REPORT_SCHEMA_KEYS, base_report_dict

QCIF = ImageFormat("QCIF", 176, 144)


def _service_report():
    service = EngineService(pool=EnginePool.of_engines(2))
    for seed in range(4):
        service.submit(BatchCall.intra(INTRA_GRAD,
                                       noise_frame(QCIF, seed=seed)),
                       SubmitOptions(tenant="t"))
    return service.drain()


class TestBaseReportDict:
    def test_schema_keys_come_first_and_in_order(self):
        books = base_report_dict("x", calls=1, cycles=2.0)
        assert tuple(books)[:len(REPORT_SCHEMA_KEYS)] == (
            REPORT_SCHEMA_KEYS)

    def test_extras_cannot_shadow_schema_keys(self):
        # A duplicate named key dies at the call boundary; anything
        # that slips past the signature dies on the clash check.
        with pytest.raises((TypeError, ValueError)):
            base_report_dict("x", calls=1, cycles=2.0,
                             **{"calls": 3})


class TestEveryReportSpeaksTheSchema:
    def test_run_report(self):
        books = RunReport(platform="p", intra_calls=2, inter_calls=1,
                          segment_calls=0, call_seconds=0.5,
                          high_level_seconds=0.1,
                          residency_hits=3).to_dict()
        assert books["kind"] == "run"
        assert books["calls"] == 3
        assert books["cache"]["hits"] == 3
        assert all(key in books for key in REPORT_SCHEMA_KEYS)

    def test_batch_report(self):
        books = BatchReport(calls=4, waves=2, workers=2,
                            dispatch_seconds=0.25,
                            modeled_serial_seconds=1.0,
                            modeled_pipelined_seconds=0.5).to_dict()
        assert books["kind"] == "batch"
        assert books["calls"] == 4 and books["shed"] == 0
        assert books["dispatch_seconds"] == 0.25
        assert books["modeled_speedup"] == pytest.approx(2.0)
        assert all(key in books for key in REPORT_SCHEMA_KEYS)

    def test_service_report_nests_the_pool_books(self):
        report = _service_report()
        books = report.to_dict()
        assert books["kind"] == "service"
        assert books["calls"] == report.completed == 4
        assert all(key in books for key in REPORT_SCHEMA_KEYS)
        pool_books = books["pool"]
        assert pool_books["kind"] == "pool"
        assert len(pool_books["workers"]) == 2
        assert all(key in pool_books for key in REPORT_SCHEMA_KEYS)

    def test_worker_reports_speak_the_schema_too(self):
        books = _service_report().to_dict()
        for worker_books in books["pool"]["workers"]:
            assert worker_books["kind"] == "pool_worker"
            assert all(key in worker_books
                       for key in REPORT_SCHEMA_KEYS)

    def test_cycles_are_consistent_with_the_pool_clock(self):
        report = _service_report()
        books = report.to_dict()
        assert books["cycles"] == pytest.approx(
            report.busy_seconds * report.clock_hz)
