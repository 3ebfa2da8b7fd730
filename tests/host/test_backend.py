"""The engine-backed AddressLib backend."""

import numpy as np
import pytest

from repro.addresslib import (AddressLib, AddressingMode, INTER_ABSDIFF,
                              INTRA_GRAD, luma_delta_criterion)
from repro.host import AddressEngineDriver, EngineBackend
from repro.image import blob_frame, noise_frame


class TestEngineBackend:
    def test_supports_only_v1_modes(self):
        backend = EngineBackend()
        assert backend.supports(AddressingMode.INTER)
        assert backend.supports(AddressingMode.INTRA)
        assert not backend.supports(AddressingMode.SEGMENT)

    def test_results_match_software_backend(self, fmt32, frame32,
                                            frame32_b):
        sw = AddressLib()
        hw = AddressLib(EngineBackend())
        assert np.array_equal(
            sw.intra(INTRA_GRAD, frame32).y,
            hw.intra(INTRA_GRAD, frame32).y)
        assert np.array_equal(
            sw.inter(INTER_ABSDIFF, frame32, frame32_b).y,
            hw.inter(INTER_ABSDIFF, frame32, frame32_b).y)
        assert (sw.inter_reduce(INTER_ABSDIFF, frame32, frame32_b)
                == hw.inter_reduce(INTER_ABSDIFF, frame32, frame32_b))

    def test_records_carry_timing(self, fmt32, frame32):
        lib = AddressLib(EngineBackend())
        lib.intra(INTRA_GRAD, frame32)
        record = lib.log.records[-1]
        assert record.extra["call_seconds"] > 0
        assert record.extra["board_seconds"] > 0
        assert record.profile is None

    def test_reduce_marks_op_name(self, fmt32, frame32, frame32_b):
        lib = AddressLib(EngineBackend())
        lib.inter_reduce(INTER_ABSDIFF, frame32, frame32_b)
        assert lib.log.records[-1].op_name.endswith("+reduce")

    def test_segment_falls_back_to_software(self, fmt32):
        lib = AddressLib(EngineBackend())
        frame = blob_frame(fmt32, [(16, 16)], radius=6)
        result = lib.segment(frame, [(16, 16)], luma_delta_criterion(8))
        assert result.pixels_processed > 0
        assert lib.log.records[-1].mode is AddressingMode.SEGMENT

    def test_simulated_backend_records_cycles(self, fmt32, frame32):
        lib = AddressLib(EngineBackend(AddressEngineDriver(simulate=True)))
        lib.intra(INTRA_GRAD, frame32)
        record = lib.log.records[-1]
        assert record.extra["cycles"] > 0
        assert record.extra["zbt_pixel_ops"] == 2 * fmt32.pixels
