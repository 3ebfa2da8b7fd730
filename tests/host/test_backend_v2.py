"""The v2 backend: hardware segment addressing behind AddressLib."""

import numpy as np
import pytest

from repro.addresslib import (AddressLib, AddressingMode, CON_8,
                              luma_delta_criterion, yuv_delta_criterion)
from repro.host import EngineBackendV2
from repro.image import ImageFormat, blob_frame

FMT = ImageFormat("V2T", 48, 48)


@pytest.fixture
def frame():
    return blob_frame(FMT, [(24, 24)], radius=10)


class TestDispatch:
    def test_supports_segment_mode(self):
        backend = EngineBackendV2()
        assert backend.supports(AddressingMode.SEGMENT)
        assert not backend.supports(AddressingMode.SEGMENT_INDEXED)

    def test_hardware_path_taken_for_mappable_criterion(self, frame):
        lib = AddressLib(EngineBackendV2())
        lib.segment(frame, [(24, 24)], luma_delta_criterion(10))
        record = lib.log.records[-1]
        assert record.op_name == "segment_expand_v2"
        assert record.extra["call_seconds"] > 0

    def test_software_fallback_for_arbitrary_criterion(self, frame):
        lib = AddressLib(EngineBackendV2())
        lib.segment(frame, [(24, 24)], yuv_delta_criterion(10, 10))
        assert lib.log.records[-1].op_name == "segment_expand"

    def test_software_fallback_for_other_connectivity(self, frame):
        lib = AddressLib(EngineBackendV2())
        lib.segment(frame, [(24, 24)], luma_delta_criterion(10),
                    connectivity=CON_8)
        assert lib.log.records[-1].op_name == "segment_expand"


class TestEquivalence:
    def test_labels_match_software(self, frame):
        sw = AddressLib()
        hw = AddressLib(EngineBackendV2())
        r_sw = sw.segment(frame, [(24, 24)], luma_delta_criterion(10))
        r_hw = hw.segment(frame, [(24, 24)], luma_delta_criterion(10))
        assert np.array_equal(r_sw.labels, r_hw.labels)
        assert r_sw.pixels_processed == r_hw.pixels_processed

    def test_inter_intra_still_work(self, frame):
        from repro.addresslib import INTRA_GRAD
        lib = AddressLib(EngineBackendV2())
        result = lib.intra(INTRA_GRAD, frame)
        assert result.y.shape == frame.y.shape


class TestResidency:
    def test_second_call_on_same_frame_is_cheaper(self, frame):
        lib = AddressLib(EngineBackendV2())
        lib.segment(frame, [(24, 24)], luma_delta_criterion(10))
        cold = lib.log.records[-1].extra["call_seconds"]
        lib.segment(frame, [(24, 24)], luma_delta_criterion(10))
        warm = lib.log.records[-1].extra["call_seconds"]
        assert warm < 0.6 * cold
        assert lib.log.records[-1].extra["frame_resident"] == 1.0

    def test_different_frame_resets_residency(self, frame):
        other = blob_frame(FMT, [(10, 10)], radius=6)
        lib = AddressLib(EngineBackendV2())
        lib.segment(frame, [(24, 24)], luma_delta_criterion(10))
        lib.segment(other, [(10, 10)], luma_delta_criterion(10))
        assert lib.log.records[-1].extra["frame_resident"] == 0.0

    def test_a_new_frame_on_a_dead_frames_id_is_not_resident(self):
        """CPython hands a dead frame's ``id()`` to the next object: a
        fresh frame that takes it was never shipped, so it must book
        ``frame_resident`` 0, however many such frames are tried."""
        lib = AddressLib(EngineBackendV2())
        reused = 0
        for seed in range(40):
            frame = blob_frame(FMT, [(24, 24)], radius=4 + seed % 8)
            dead = id(frame)
            lib.segment(frame, [(24, 24)], luma_delta_criterion(10))
            del frame
            fresh = blob_frame(FMT, [(12, 12)], radius=6)
            reused += id(fresh) == dead
            lib.segment(fresh, [(12, 12)], luma_delta_criterion(10))
            assert lib.log.records[-1].extra["frame_resident"] == 0.0
            del fresh
        assert reused  # the id was handed on at least once
