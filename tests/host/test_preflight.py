"""The driver's opt-in pre-flight hook: rejects-before-execute."""

from __future__ import annotations

import pytest

from repro.addresslib import (AddressLib, BatchCall, INTRA_BOX3,
                              INTRA_GRAD)
from repro.analysis import ProgramCheckError
from repro.core import AddressEngine, intra_config
from repro.host import AddressEngineDriver, CallScheduler, EngineBackend
from repro.image import ImageFormat, noise_frame

FMT = ImageFormat("T32", 32, 32)
BIG = ImageFormat("4CIF", 704, 576)


class TestPreflight:
    def test_off_by_default(self):
        driver = AddressEngineDriver()
        assert not driver.preflight

    def test_clean_call_dispatches(self):
        driver = AddressEngineDriver(preflight=True)
        result = driver.submit(intra_config(INTRA_BOX3, FMT),
                               noise_frame(FMT, seed=1))
        assert result.frame is not None
        assert driver.calls_submitted == 1
        assert driver.calls_rejected == 0

    def test_capacity_error_rejected_before_dispatch(self):
        driver = AddressEngineDriver(preflight=True)
        with pytest.raises(ProgramCheckError) as excinfo:
            driver.submit(intra_config(INTRA_BOX3, BIG),
                          noise_frame(BIG, seed=1))
        assert excinfo.value.report.by_rule("CAP001")
        assert driver.calls_submitted == 0
        assert driver.calls_rejected == 1

    def test_ablated_engine_params_rejected(self):
        driver = AddressEngineDriver(
            preflight=True, simulate=True,
            engine=AddressEngine(plc_ticks_per_cycle=0))
        with pytest.raises(ProgramCheckError) as excinfo:
            driver.submit(intra_config(INTRA_BOX3, FMT),
                          noise_frame(FMT, seed=1))
        assert excinfo.value.report.by_rule("LIV002")

    def test_fallback_info_does_not_reject(self):
        driver = AddressEngineDriver(preflight=True)
        result = driver.submit(intra_config(INTRA_GRAD, FMT),
                               noise_frame(FMT, seed=1))
        assert result.frame is not None

    @pytest.mark.parametrize("scheduled", [False, True],
                             ids=["serial", "scheduled"])
    def test_batch_refused_with_or_without_scheduler(self, scheduled):
        calls = [BatchCall.intra(INTRA_BOX3, noise_frame(BIG, seed=s))
                 for s in (1, 2)]
        driver = AddressEngineDriver(preflight=True)
        lib = AddressLib(EngineBackend(driver))
        with CallScheduler(max_workers=2) as sched:
            with pytest.raises(ProgramCheckError) as excinfo:
                lib.run_batch(calls, scheduler=sched if scheduled else None)
        assert excinfo.value.report.by_rule("CAP001")
        assert driver.calls_rejected == 1
        assert driver.calls_submitted == 0
        assert lib.log.records == []

    def test_explicit_check_without_submit(self):
        driver = AddressEngineDriver()
        driver.check(intra_config(INTRA_BOX3, FMT))
        with pytest.raises(ProgramCheckError):
            driver.check(intra_config(INTRA_BOX3, BIG))
        assert driver.calls_submitted == 0
