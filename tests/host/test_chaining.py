"""Call chaining: reusing on-board frames across AddressLib calls."""

import numpy as np
import pytest

from repro.addresslib import (AddressLib, INTER_ABSDIFF, INTRA_BOX3,
                              INTRA_GRAD)
from repro.host import AddressEngineDriver, EngineBackend
from repro.image import ImageFormat, noise_frame

FMT = ImageFormat("CH32", 32, 32)


@pytest.fixture
def frames():
    return noise_frame(FMT, seed=61), noise_frame(FMT, seed=62)


def chained_lib(simulate=False):
    return AddressLib(EngineBackend(
        AddressEngineDriver(simulate=simulate), chain_frames=True))


class TestResidencyDetection:
    def test_repeated_intra_input_is_resident(self, frames):
        lib = chained_lib()
        frame, _ = frames
        lib.intra(INTRA_GRAD, frame)
        assert lib.log.records[-1].extra["resident_inputs"] == 0
        lib.intra(INTRA_BOX3, frame)
        assert lib.log.records[-1].extra["resident_inputs"] == 1

    def test_result_reuse_counts_as_resident(self, frames):
        lib = chained_lib()
        frame, _ = frames
        edges = lib.intra(INTRA_GRAD, frame)
        lib.intra(INTRA_BOX3, edges)     # previous result as input
        assert lib.log.records[-1].extra["resident_inputs"] == 1

    def test_fresh_frame_is_not_resident(self, frames):
        lib = chained_lib()
        a, b = frames
        lib.intra(INTRA_GRAD, a)
        lib.intra(INTRA_GRAD, b)
        assert lib.log.records[-1].extra["resident_inputs"] == 0

    def test_layout_change_invalidates_residency(self, frames):
        """An intra-resident frame lives across both bank pairs; an
        inter call needs it confined to one pair -- reship."""
        lib = chained_lib()
        a, b = frames
        lib.intra(INTRA_GRAD, a)
        lib.inter(INTER_ABSDIFF, a, b)
        assert lib.log.records[-1].extra["resident_inputs"] == 0

    def test_inter_keeps_reference_resident(self, frames):
        """The GME pattern: same reference frame across SAD calls."""
        lib = chained_lib()
        a, b = frames
        lib.inter_reduce(INTER_ABSDIFF, a, b)
        lib.inter_reduce(INTER_ABSDIFF, a, b)
        assert lib.log.records[-1].extra["resident_inputs"] == 2

    def test_chaining_off_by_default(self, frames):
        lib = AddressLib(EngineBackend())
        frame, _ = frames
        lib.intra(INTRA_GRAD, frame)
        lib.intra(INTRA_BOX3, frame)
        assert lib.log.records[-1].extra["resident_inputs"] == 0


class TestFrameResidencyCache:
    def test_counters_classify_each_input(self, frames):
        lib = chained_lib()
        a, b = frames
        lib.inter_reduce(INTER_ABSDIFF, a, b)      # both miss
        lib.inter_reduce(INTER_ABSDIFF, a, b)      # both hit
        cache = lib.backend.residency
        assert cache.misses == 2
        assert cache.hits == 2
        assert cache.result_reuses == 0

    def test_result_reuse_counter(self, frames):
        lib = chained_lib()
        frame, _ = frames
        edges = lib.intra(INTRA_GRAD, frame)
        lib.intra(INTRA_BOX3, edges)
        assert lib.backend.residency.result_reuses == 1

    def test_identity_not_equality(self, frames):
        """An equal-valued copy is different memory: it must ship."""
        lib = chained_lib()
        frame, _ = frames
        lib.intra(INTRA_GRAD, frame)
        clone = noise_frame(FMT, seed=61)           # same pixels, new object
        lib.intra(INTRA_GRAD, clone)
        assert lib.log.records[-1].extra["resident_inputs"] == 0

    def test_invalidate_forgets_board_state(self, frames):
        lib = chained_lib()
        frame, _ = frames
        lib.intra(INTRA_GRAD, frame)
        lib.backend.residency.invalidate()
        lib.intra(INTRA_BOX3, frame)
        assert lib.log.records[-1].extra["resident_inputs"] == 0


class TestChainedTiming:
    def test_resident_call_is_cheaper(self, frames):
        lib = chained_lib()
        frame, _ = frames
        lib.intra(INTRA_GRAD, frame)
        cold = lib.log.records[-1].extra["call_seconds"]
        lib.intra(INTRA_BOX3, frame)
        warm = lib.log.records[-1].extra["call_seconds"]
        assert warm < 0.75 * cold

    def test_resident_call_ships_fewer_words(self, frames):
        lib = chained_lib()
        a, b = frames
        lib.inter_reduce(INTER_ABSDIFF, a, b)
        lib.inter_reduce(INTER_ABSDIFF, a, b)
        first = lib.log.records[-2].extra["pci_words"]
        second = lib.log.records[-1].extra["pci_words"]
        assert second == 2          # only the scalar comes back
        assert first == 4 * FMT.pixels + 2

    def test_result_reuse_cheaper_than_roundtrip(self, frames):
        frame, _ = frames
        chained = chained_lib()
        plain = AddressLib(EngineBackend())
        for lib in (chained, plain):
            edges = lib.intra(INTRA_GRAD, frame)
            lib.intra(INTRA_BOX3, edges)
        chained_second = chained.log.records[-1].extra["call_seconds"]
        plain_second = plain.log.records[-1].extra["call_seconds"]
        assert chained_second < plain_second


class TestChainedCorrectness:
    def test_results_identical_with_and_without_chaining(self, frames):
        a, b = frames
        outputs = []
        for backend in (EngineBackend(),
                        EngineBackend(chain_frames=True)):
            lib = AddressLib(backend)
            edges = lib.intra(INTRA_GRAD, a)
            smooth = lib.intra(INTRA_BOX3, edges)
            sad = lib.inter_reduce(INTER_ABSDIFF, smooth, b)
            outputs.append((smooth, sad))
        assert outputs[0][0].equals(outputs[1][0])
        assert outputs[0][1] == outputs[1][1]

    def test_simulated_chained_intra_matches_golden(self, frames):
        """The cycle model executes the resident call (preloaded banks)
        and still produces the exact image."""
        lib = chained_lib(simulate=True)
        frame, _ = frames
        lib.intra(INTRA_GRAD, frame)
        result = lib.intra(INTRA_BOX3, frame)
        assert lib.log.records[-1].extra["resident_inputs"] == 1
        from repro.addresslib import VectorExecutor
        golden = VectorExecutor.intra(INTRA_BOX3, frame)
        assert np.array_equal(result.y, golden.y)

    def test_simulated_result_reuse_falls_back_to_shipping(self, frames):
        """The cycle model has no result-bank mover: reusing a result as
        input under simulation re-ships it (correctness preserved), and
        the residency counters book the shipped input as a miss."""
        lib = chained_lib(simulate=True)
        frame, _ = frames
        edges = lib.intra(INTRA_GRAD, frame)
        lib.intra(INTRA_BOX3, edges)
        record = lib.log.records[-1]
        assert record.extra["resident_inputs"] == 0
        assert record.extra["pci_words"] == 4 * FMT.pixels
        cache = lib.backend.residency
        assert (cache.hits, cache.result_reuses, cache.misses) == (0, 0, 2)

    def test_simulated_fallback_ships_every_input(self, frames):
        """An inter call reusing the result in one slot re-ships its
        other, still-resident slot too, and counts both as misses."""
        lib = chained_lib(simulate=True)
        a, b = frames
        lib.inter(INTER_ABSDIFF, a, b)              # two misses
        diff = lib.inter(INTER_ABSDIFF, a, b)       # two hits
        lib.inter(INTER_ABSDIFF, a, diff)           # slot 1 is the result
        assert lib.log.records[-1].extra["resident_inputs"] == 0
        cache = lib.backend.residency
        assert (cache.hits, cache.result_reuses, cache.misses) == (2, 0, 4)
