"""Bounding the FrameResidencyCache: release and reporting.

The cache holds strong references to the frames it models as resident
in the ZBT banks -- only the last call's inputs and result.  These
tests cover explicit :meth:`release` of a frame the host reclaimed,
plus the surfacing of the cache counters in :class:`RunReport`.
"""

from repro.addresslib import (ChannelSet, INTER_ABSDIFF, INTRA_BOX3,
                              INTRA_SOBEL_X)
from repro.core import inter_config, intra_config
from repro.host import (EngineBackend, FrameResidencyCache,
                        engine_platform, software_platform)
from repro.image import ImageFormat, noise_frame

QCIF = ImageFormat("QCIF", 176, 144)


class TestRelease:
    def test_released_input_no_longer_resident(self):
        backend = EngineBackend(chain_frames=True)
        frame = noise_frame(QCIF, seed=1)
        backend.intra(INTRA_BOX3, frame, ChannelSet.Y)
        assert backend.residency.held_frames == 2  # input + result
        backend.residency.release(frame)
        assert backend.residency.evictions == 1
        flags, copy_cycles = backend.residency.plan(
            intra_config(INTRA_BOX3, QCIF), [frame])
        assert flags == [False]
        assert copy_cycles == 0

    def test_release_keeps_slot_indices(self):
        cache = FrameResidencyCache()
        a = noise_frame(QCIF, seed=2)
        b = noise_frame(QCIF, seed=3)
        result = noise_frame(QCIF, seed=4)
        config = inter_config(INTER_ABSDIFF, QCIF)
        cache.record_call(config, [a, b], result)
        cache.release(a)
        # Slot 1 must still hit even though slot 0 was dropped.
        flags, _ = cache.plan(config, [b, b])
        assert flags[0] is False

    def test_release_of_result_counts_eviction(self):
        cache = FrameResidencyCache()
        config = intra_config(INTRA_BOX3, QCIF)
        frame = noise_frame(QCIF, seed=5)
        result = noise_frame(QCIF, seed=6)
        cache.record_call(config, [frame], result)
        assert cache.held_frames == 2
        cache.release(result)
        assert cache.held_frames == 1
        assert cache.evictions == 1


class TestRunReportSurfacing:
    def test_report_carries_residency_counters(self):
        backend = EngineBackend(chain_frames=True)
        runtime = engine_platform(backend=backend)
        frame = noise_frame(QCIF, seed=11)
        runtime.lib.intra(INTRA_BOX3, frame)
        runtime.lib.intra(INTRA_SOBEL_X, frame)  # same input: a hit
        report = runtime.report()
        assert report.residency_hits == 1
        assert report.residency_misses == 1
        assert report.residency_result_reuses == 0
        backend.residency.release(frame)
        assert runtime.report().residency_evictions == 1

    def test_software_platform_reports_zero_counters(self):
        runtime = software_platform()
        frame = noise_frame(QCIF, seed=12)
        runtime.lib.intra(INTRA_BOX3, frame)
        report = runtime.report()
        assert report.residency_hits == 0
        assert report.residency_misses == 0
        assert report.residency_evictions == 0
