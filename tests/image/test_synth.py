"""Synthetic content generators: determinism and structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.image import (ImageFormat, blob_frame, checkerboard_frame,
                         frame_from_luma, gradient_frame, noise_frame,
                         textured_panorama)
from repro.image.formats import BLOCK_PIXELS, block_rows

FMT = ImageFormat("T24", 24, 16)


def reference_textured_panorama(width, height, seed=None, octaves=4):
    """The golden panorama: four ``np.ix_`` lattice gathers per octave
    and the four-term bilinear expression evaluated in one statement.
    ``textured_panorama`` must match it bit for bit."""
    rng = np.random.default_rng(0xADD2E55 if seed is None else seed)
    canvas = np.zeros((height, width), dtype=np.float64)
    amplitude = 1.0
    total_amplitude = 0.0
    for octave in range(octaves):
        cells = 2 ** (octave + 2)
        coarse = rng.random((cells + 1, cells + 1))
        ys = np.linspace(0, cells, height)
        xs = np.linspace(0, cells, width)
        y0 = np.clip(ys.astype(int), 0, cells - 1)
        x0 = np.clip(xs.astype(int), 0, cells - 1)
        fy = (ys - y0)[:, None]
        fx = (xs - x0)[None, :]
        c00 = coarse[np.ix_(y0, x0)]
        c01 = coarse[np.ix_(y0, x0 + 1)]
        c10 = coarse[np.ix_(y0 + 1, x0)]
        c11 = coarse[np.ix_(y0 + 1, x0 + 1)]
        layer = (c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx
                 + c10 * fy * (1 - fx) + c11 * fy * fx)
        canvas += amplitude * layer
        total_amplitude += amplitude
        amplitude *= 0.55
    canvas /= total_amplitude
    canvas -= canvas.min()
    peak = canvas.max()
    if peak > 0:
        canvas *= 255.0 / peak
    return canvas


def same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestGradient:
    def test_horizontal_ramp_is_monotonic(self):
        frame = gradient_frame(FMT, horizontal=True)
        row = frame.y[0].astype(int)
        assert all(b >= a for a, b in zip(row, row[1:]))
        assert row[0] == 0 and row[-1] == 255

    def test_vertical_ramp_constant_along_rows(self):
        frame = gradient_frame(FMT, horizontal=False)
        assert (frame.y == frame.y[:, :1]).all()

    def test_neutral_chroma(self):
        frame = gradient_frame(FMT)
        assert (frame.u == 128).all() and (frame.v == 128).all()


class TestCheckerboard:
    def test_cell_structure(self):
        frame = checkerboard_frame(FMT, cell=4, low=10, high=200)
        assert frame.y[0, 0] == 10
        assert frame.y[0, 4] == 200
        assert frame.y[4, 4] == 10
        assert set(np.unique(frame.y)) == {10, 200}

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            checkerboard_frame(FMT, cell=0)


class TestNoise:
    def test_deterministic_per_seed(self):
        assert noise_frame(FMT, seed=1).equals(noise_frame(FMT, seed=1))

    def test_different_seeds_differ(self):
        assert not noise_frame(FMT, seed=1).equals(noise_frame(FMT, seed=2))

    def test_fills_meta_channels(self):
        frame = noise_frame(FMT, seed=3)
        assert frame.alfa.max() > 255  # uses the full 16-bit range
        assert frame.aux.max() > 255


class TestPanorama:
    def test_shape_and_range(self):
        pano = textured_panorama(200, 120, seed=4)
        assert pano.shape == (120, 200)
        assert pano.min() == 0.0
        assert abs(pano.max() - 255.0) < 1e-9

    def test_deterministic(self):
        a = textured_panorama(64, 64, seed=5)
        b = textured_panorama(64, 64, seed=5)
        assert np.array_equal(a, b)

    def test_textured_not_flat(self):
        pano = textured_panorama(128, 128, seed=6)
        assert pano.std() > 20  # enough contrast for SAD minima

    def test_smooth_locally(self):
        """Band-limited: neighbouring samples stay close, so gradient
        descent sees a usable error surface."""
        pano = textured_panorama(256, 128, seed=7)
        dx = np.abs(np.diff(pano, axis=1))
        assert dx.mean() < 8.0

    def test_rejects_zero_octaves(self):
        with pytest.raises(ValueError):
            textured_panorama(64, 64, octaves=0)


class TestPanoramaMatchesReference:
    """``textured_panorama`` against the golden copy, to the bit."""

    @pytest.mark.parametrize("seed", [11, 23, 37, 51])
    def test_table3_panoramas(self, seed):
        """The four Table 3 scenes (1536x864, the sequences' seeds)."""
        assert same_bits(textured_panorama(1536, 864, seed=seed),
                         reference_textured_panorama(1536, 864, seed=seed))

    @pytest.mark.parametrize("octaves", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("width, height", [
        (1, 1), (9, 2), (3, 17),
        # Narrower and shorter than the finest lattice (2 ** (octaves +
        # 1) + 1 points), so lattice cells get no output row or column.
        (20, 12), (40, 5), (2, 70)])
    def test_shapes_and_octaves(self, width, height, octaves):
        assert same_bits(
            textured_panorama(width, height, seed=3, octaves=octaves),
            reference_textured_panorama(width, height, seed=3,
                                        octaves=octaves))


class TestPanoramaBlocks:
    """The canvas is filled one ``BLOCK_PIXELS`` row block at a time;
    no block edge may show in the bits."""

    @given(width=st.integers(1, 3000), blocks=st.integers(1, 3),
           edge=st.sampled_from([-1, 0, 1]), octaves=st.integers(1, 6),
           seed=st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
    @settings(max_examples=60, deadline=None)
    def test_heights_either_side_of_a_block_edge(self, width, blocks,
                                                  edge, octaves, seed):
        height = max(1, blocks * block_rows(width) + edge)
        assert same_bits(
            textured_panorama(width, height, seed=seed, octaves=octaves),
            reference_textured_panorama(width, height, seed=seed,
                                        octaves=octaves))

    @pytest.mark.parametrize("octaves", [1, 6])
    @pytest.mark.parametrize("width, height", [
        # One row: a single block, however wide.
        (1, 1), (2, 1), (BLOCK_PIXELS, 1), (BLOCK_PIXELS + 1, 1),
        # Wider than a block: one row per block.
        (BLOCK_PIXELS + 1, 3),
        # One column: blocks of BLOCK_PIXELS rows.
        (1, BLOCK_PIXELS - 1), (1, BLOCK_PIXELS), (1, BLOCK_PIXELS + 1),
        (1, 2 * BLOCK_PIXELS + 1)])
    def test_one_row_and_one_column_canvases(self, width, height, octaves):
        assert same_bits(
            textured_panorama(width, height, octaves=octaves),
            reference_textured_panorama(width, height, octaves=octaves))


class TestLumaFrame:
    def test_clips_and_rounds(self):
        luma = np.full((FMT.height, FMT.width), -5.0)
        luma[0, 0] = 300.0
        luma[0, 1] = 99.6
        frame = frame_from_luma(FMT, luma)
        assert frame.y[1, 1] == 0
        assert frame.y[0, 0] == 255
        assert frame.y[0, 1] == 100

    def test_shape_check(self):
        with pytest.raises(ValueError):
            frame_from_luma(FMT, np.zeros((2, 2)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float64])
    def test_matches_round_then_clip(self, dtype):
        """Exactly ``clip(round(luma), 0, 255)`` as uint8: ties round to
        even, negatives and values above 255 saturate, for integer and
        float inputs alike; the input is left untouched."""
        values = np.array([0.5, 1.5, 2.5, 3.5, -0.5, -1.5, 254.5, 255.5,
                           -3.0, -200.7, 256.0, 300.2, 1e6, 127.49999,
                           99.6, 0.0])
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            values = np.clip(np.round(values), info.min, info.max)
        luma = np.resize(values, (FMT.height, FMT.width)).astype(dtype)
        original = luma.copy()
        frame = frame_from_luma(FMT, luma)
        expected = np.clip(np.round(luma), 0, 255).astype(np.uint8)
        assert frame.y.dtype == np.uint8
        assert np.array_equal(frame.y, expected)
        assert (frame.u == 128).all() and (frame.v == 128).all()
        assert np.array_equal(luma, original)


class TestBlobs:
    def test_blob_is_connected_bright_region(self):
        frame = blob_frame(FMT, [(12, 8)], radius=4, inside=220, outside=20)
        assert frame.y[8, 12] == 220
        assert frame.y[0, 0] == 20
        area = int((frame.y == 220).sum())
        assert 30 <= area <= 55  # roughly pi * r^2

    def test_multiple_blobs(self):
        frame = blob_frame(FMT, [(5, 5), (18, 10)], radius=3)
        assert frame.y[5, 5] == frame.y[10, 18] == 200
