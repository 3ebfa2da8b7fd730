"""Synthetic sequences: determinism, ground truth, Table 3 geometry."""

import numpy as np
import pytest

from repro.gme import (DOME, MOVIE, PAPER_TABLE3, PISA, SINGAPORE,
                       SyntheticSequence, TABLE3_SEQUENCES,
                       sequence_by_name)
from repro.image import CIF


class TestSpecs:
    def test_four_sequences_in_paper_order(self):
        names = [spec.name for spec in TABLE3_SEQUENCES]
        assert names == ["Singapore", "Dome", "Pisa", "Movie"]
        assert [row[0] for row in PAPER_TABLE3] == names

    def test_frame_counts_track_intra_call_budget(self):
        """Frame counts were derived from Table 3's intra column via the
        deterministic 9-intra-calls-per-pair budget (2 per frame pyramid
        + 7 per pair); all land within 0.2 % of the paper's counts."""
        for spec, paper in zip(TABLE3_SEQUENCES, PAPER_TABLE3):
            predicted_intra = 2 * spec.frames + 7 * (spec.frames - 1)
            assert predicted_intra == pytest.approx(paper[3], rel=0.002)

    def test_pisa_is_the_long_sequence(self):
        assert PISA.frames > 1.8 * max(SINGAPORE.frames, DOME.frames,
                                       MOVIE.frames)

    def test_lookup_by_name(self):
        assert sequence_by_name("pisa") is PISA
        with pytest.raises(KeyError):
            sequence_by_name("venice")

    def test_scaled_frames(self):
        assert SINGAPORE.scaled_frames(0.1) == round(SINGAPORE.frames * 0.1)
        assert SINGAPORE.scaled_frames(1.0) == SINGAPORE.frames
        with pytest.raises(ValueError):
            SINGAPORE.scaled_frames(0.0)


class TestCameraPaths:
    @pytest.mark.parametrize("spec", TABLE3_SEQUENCES,
                             ids=lambda spec: spec.name)
    def test_every_view_stays_inside_the_panorama(self, spec):
        """Rendering ignores the warp's validity mask, so every sample of
        every frame must have all four bilinear taps inside the scene.
        An affine pose maps the frame rectangle to a parallelogram: its
        four corners bound every sample."""
        width, height = spec.fmt.width, spec.fmt.height
        xs = np.array([0.0, width - 1.0, 0.0, width - 1.0])
        ys = np.array([0.0, 0.0, height - 1.0, height - 1.0])
        for index in range(spec.frames):
            sx, sy = spec.pose(index).apply(xs, ys)
            assert (sx >= 0).all() and (sy >= 0).all(), index
            assert (sx < spec.panorama_width - 1).all(), index
            assert (sy < spec.panorama_height - 1).all(), index


class TestRendering:
    def test_frames_are_cif(self):
        seq = SyntheticSequence(SINGAPORE, frames_override=3)
        frame = seq.frame(0)
        assert frame.width == CIF.width and frame.height == CIF.height

    def test_deterministic(self):
        a = SyntheticSequence(MOVIE, frames_override=3).frame(2)
        b = SyntheticSequence(MOVIE, frames_override=3).frame(2)
        assert a.equals(b)

    def test_consecutive_frames_differ(self):
        seq = SyntheticSequence(SINGAPORE, frames_override=3)
        assert not seq.frame(0).equals(seq.frame(1))

    def test_index_bounds(self):
        seq = SyntheticSequence(SINGAPORE, frames_override=3)
        with pytest.raises(IndexError):
            seq.frame(3)

    def test_iteration_yields_all_frames(self):
        seq = SyntheticSequence(DOME, frames_override=4)
        assert len(list(seq)) == 4


class TestGroundTruth:
    def test_true_pair_model_matches_pan_speed(self):
        seq = SyntheticSequence(SINGAPORE, frames_override=4)
        truth = seq.true_pair_model(0)
        # Singapore pans at ~1.9 px/frame horizontally.
        assert truth.tx == pytest.approx(1.9, abs=0.01)
        assert truth.ty == pytest.approx(0.12, abs=0.01)

    def test_truth_consistent_with_rendering(self):
        """Warping frame i+1 by the true pair model reproduces frame i
        (up to resampling error) -- the sequences are self-consistent."""
        from repro.gme import warp_luma
        seq = SyntheticSequence(SINGAPORE, frames_override=3)
        ref = seq.frame(0).y.astype(np.float64)
        cur = seq.frame(1).y.astype(np.float64)
        warped, valid = warp_luma(cur, seq.true_pair_model(0))
        err = np.abs(warped[valid] - ref[valid]).mean()
        assert err < 2.0

    def test_movie_has_jitter(self):
        seq = SyntheticSequence(MOVIE, frames_override=6)
        deltas = [seq.true_pair_model(i).tx for i in range(5)]
        assert np.std(deltas) > 0.3  # jittery camera

    def test_singapore_is_smooth(self):
        seq = SyntheticSequence(SINGAPORE, frames_override=6)
        deltas = [seq.true_pair_model(i).tx for i in range(5)]
        assert np.std(deltas) < 0.01
