"""The AddressLib facade: dispatch, call logging, fallback routing."""

import numpy as np
import pytest

from repro.addresslib import (COLUMN_9, AddressLib, AddressingMode,
                              Backend, BatchCall, CallLog, CallRecord,
                              ChannelSet, INTER_ABSDIFF, INTRA_COPY,
                              INTRA_GRAD, InstructionCost, ScanOrder,
                              SoftwareBackend, SoftwareCostModel, erode_op,
                              luma_delta_criterion)
from repro.image import Channel, ImageFormat, blob_frame, noise_frame

FMT = ImageFormat("T16L", 16, 16)


class TestCallLog:
    def test_mode_tallies(self):
        log = CallLog()
        log.append(CallRecord(AddressingMode.INTRA, "x", ChannelSet.Y,
                              "T", 1))
        log.append(CallRecord(AddressingMode.INTER, "y", ChannelSet.Y,
                              "T", 1))
        log.append(CallRecord(AddressingMode.INTRA, "z", ChannelSet.Y,
                              "T", 1))
        assert log.intra_calls == 2
        assert log.inter_calls == 1
        assert log.total_calls == 3

    def test_total_extra(self):
        log = CallLog()
        log.append(CallRecord(AddressingMode.INTRA, "x", ChannelSet.Y,
                              "T", 1, extra={"k": 2.0}))
        log.append(CallRecord(AddressingMode.INTRA, "x", ChannelSet.Y,
                              "T", 1))
        assert log.total_extra("k") == 2.0

    def test_clear(self):
        log = CallLog()
        log.append(CallRecord(AddressingMode.INTRA, "x", ChannelSet.Y,
                              "T", 1))
        log.clear()
        assert log.total_calls == 0


class TestDispatchAndLogging:
    def test_intra_call_logged_with_profile(self):
        lib = AddressLib()
        lib.intra(INTRA_GRAD, noise_frame(FMT, seed=1))
        record = lib.log.records[-1]
        assert record.mode is AddressingMode.INTRA
        assert record.op_name == "intra_grad"
        assert record.profile is not None
        assert record.profile.total_instructions > 0
        assert record.extra["width"] == FMT.width

    def test_inter_reduce_marks_op_name(self):
        lib = AddressLib()
        frame = noise_frame(FMT, seed=2)
        lib.inter_reduce(INTER_ABSDIFF, frame, frame)
        assert lib.log.records[-1].op_name.endswith("+reduce")
        assert lib.log.inter_calls == 1

    def test_segment_logged_as_segment_mode(self):
        lib = AddressLib()
        frame = blob_frame(FMT, [(8, 8)], radius=4)
        lib.segment(frame, [(8, 8)], luma_delta_criterion(8))
        record = lib.log.records[-1]
        assert record.mode is AddressingMode.SEGMENT
        assert record.pixels > 0

    def test_histogram_logged_as_segment_indexed(self):
        lib = AddressLib()
        hist = lib.histogram(noise_frame(FMT, seed=3), Channel.Y)
        assert hist.sum() == FMT.pixels
        assert lib.log.records[-1].mode is AddressingMode.SEGMENT_INDEXED

    def test_merged_profile_spans_calls(self):
        lib = AddressLib()
        frame = noise_frame(FMT, seed=4)
        lib.intra(INTRA_COPY, frame)
        lib.inter(INTER_ABSDIFF, frame, frame)
        merged = lib.log.merged_profile()
        assert merged.calls == 2


class TestSoftwareRecords:
    """The software backend builds each call geometry's record once and
    logs that one read-only record for every call of the geometry."""

    def test_repeated_calls_log_equal_read_only_records(self):
        lib = AddressLib()
        frame = noise_frame(FMT, seed=5)
        lib.intra(INTRA_GRAD, frame)
        lib.inter_reduce(INTER_ABSDIFF, frame, frame)
        first_intra, first_inter = lib.log.records
        # A logged record is shared by reference: writing to it raises.
        with pytest.raises(TypeError):
            first_intra.profile.add_cost(InstructionCost(alu=7), 3.0)
        with pytest.raises(TypeError):
            first_intra.extra["width"] = -1.0
        with pytest.raises(AttributeError):
            first_inter.profile.add_call()
        with pytest.raises(AttributeError):
            first_inter.pixels = 0
        lib.intra(INTRA_GRAD, frame)
        lib.inter_reduce(INTER_ABSDIFF, frame, frame)
        lib.run_batch([BatchCall.inter_reduce(INTER_ABSDIFF, frame, frame),
                       BatchCall.intra(INTRA_GRAD, frame)])
        intra, inter, batch_inter, batch_intra = lib.log.records[2:]

        model = lib.backend.cost_model
        assert intra.profile == model.intra_profile(INTRA_GRAD, FMT)
        reduce_profile = model.inter_profile(INTER_ABSDIFF, FMT)
        reduce_profile.add_cost(InstructionCost(alu=1), FMT.pixels)
        assert inter.profile == reduce_profile
        assert intra.extra["width"] == FMT.width
        assert intra == first_intra and inter == first_inter
        assert batch_intra == intra and batch_inter == inter
        assert lib.log.merged_profile().calls == 6

    def test_cost_model_and_scan_select_the_record(self):
        """Swapping the backend's cost model or scan order books the
        profile of the new geometry, not the first one seen."""
        # A column neighbourhood: 9 fresh reads per horizontal step,
        # 1 per vertical step.
        op = erode_op(COLUMN_9)
        backend = SoftwareBackend()
        lib = AddressLib(backend)
        frame = noise_frame(FMT, seed=6)
        heavy = SoftwareCostModel(per_access_overhead=InstructionCost(alu=3))
        expected = []
        for model, scan in ((SoftwareCostModel(), ScanOrder.HORIZONTAL),
                            (heavy, ScanOrder.HORIZONTAL),
                            (heavy, ScanOrder.VERTICAL),
                            (SoftwareCostModel(), ScanOrder.HORIZONTAL)):
            backend.cost_model, backend.scan = model, scan
            lib.intra(op, frame)
            expected.append(model.intra_profile(op, FMT, ChannelSet.Y, scan))
        profiles = [record.profile for record in lib.log.records]
        assert profiles == expected
        assert len({p.total_instructions for p in profiles}) == 3


class _InterOnlyBackend(SoftwareBackend):
    """A backend that pretends to support only inter mode."""

    name = "inter_only"

    def supports(self, mode):
        return mode is AddressingMode.INTER


class TestFallbackRouting:
    def test_unsupported_mode_falls_back_to_software(self):
        lib = AddressLib(_InterOnlyBackend())
        frame = noise_frame(FMT, seed=5)
        result = lib.intra(INTRA_GRAD, frame)   # must not raise
        assert result.y.shape == frame.y.shape
        assert lib.log.intra_calls == 1

    def test_supported_mode_uses_backend(self):
        backend = _InterOnlyBackend()
        lib = AddressLib(backend)
        assert lib._dispatch(AddressingMode.INTER) is backend
        assert lib._dispatch(AddressingMode.INTRA) is not backend


class TestFunctionalResults:
    def test_intra_copy_identity_on_luma(self):
        lib = AddressLib()
        frame = noise_frame(FMT, seed=6)
        result = lib.intra(INTRA_COPY, frame)
        assert np.array_equal(result.y, frame.y)

    def test_inter_absdiff_self_is_zero(self):
        lib = AddressLib()
        frame = noise_frame(FMT, seed=7)
        result = lib.inter(INTER_ABSDIFF, frame, frame)
        assert int(result.y.sum()) == 0

    def test_yuv_channels_processed_independently(self):
        lib = AddressLib()
        a = noise_frame(FMT, seed=8)
        b = noise_frame(FMT, seed=9)
        y_only = lib.inter(INTER_ABSDIFF, a, b, ChannelSet.Y)
        yuv = lib.inter(INTER_ABSDIFF, a, b, ChannelSet.YUV)
        assert np.array_equal(y_only.y, yuv.y)
        assert np.array_equal(y_only.u, a.u)      # untouched channel
        assert not np.array_equal(yuv.u, a.u)
