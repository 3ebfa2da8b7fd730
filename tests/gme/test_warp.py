"""Warping and pyramid helpers."""

import math

import numpy as np
import pytest

from repro.gme import (AffineModel, PerspectiveModel, TranslationalModel,
                       decimate2, pyramid_shapes, sad, warp_luma)


def ramp(height=12, width=16):
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    return xs * 3 + ys * 5


def reference_warp_luma(luma, model, fill=0.0, output_shape=None):
    """The golden bilinear warp: full coordinate grids, a float64 copy of
    the source and 2-D fancy-indexed taps.  ``warp_luma`` must match it
    bit for bit."""
    src_height, src_width = luma.shape
    out_height, out_width = output_shape or luma.shape
    source = luma.astype(np.float64)
    ys, xs = np.mgrid[0:out_height, 0:out_width].astype(np.float64)
    width, height = src_width, src_height
    sx, sy = model.apply(xs, ys)

    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    valid = (x0 >= 0) & (y0 >= 0) & (x0 < width - 1) & (y0 < height - 1)

    x0c = np.clip(x0, 0, width - 2)
    y0c = np.clip(y0, 0, height - 2)
    top = (source[y0c, x0c] * (1 - fx)
           + source[y0c, x0c + 1] * fx)
    bottom = (source[y0c + 1, x0c] * (1 - fx)
              + source[y0c + 1, x0c + 1] * fx)
    warped = top * (1 - fy) + bottom * fy
    warped = np.where(valid, warped, fill)
    return warped, valid


def _rotation(degrees, tx, ty, zoom=1.0):
    angle = math.radians(degrees)
    cos, sin = zoom * math.cos(angle), zoom * math.sin(angle)
    return AffineModel(a=cos, b=-sin, tx=tx, c=sin, d=cos, ty=ty)


WARP_MODELS = {
    "translation": TranslationalModel(1.25, -0.75),
    "translation_integer": TranslationalModel(2, 1),
    "affine_axis_aligned": AffineModel(a=1.07, d=0.93, tx=0.4, ty=-1.3),
    "affine_rotated": _rotation(7.0, -2.2, 3.1, zoom=1.02),
    "perspective": PerspectiveModel(a=1.01, b=0.03, tx=0.6, c=-0.02,
                                    d=0.99, ty=0.2, px=2e-3, py=-1.5e-3),
    "out_of_frame": TranslationalModel(500.0, 0.0),
    "out_of_frame_rotated": _rotation(-30.0, -400.5, -250.25),
}


def _noise(height, width, dtype):
    rng = np.random.default_rng(height * 1000 + width)
    values = rng.random((height, width)) * 255.0
    return values.astype(dtype) if dtype is np.uint8 else values


WARP_SOURCES = {
    "float64": _noise(23, 31, np.float64),
    "uint8": _noise(23, 31, np.uint8),
    "strided": _noise(46, 93, np.float64)[::2, ::3],
    "row_1xN": _noise(1, 9, np.float64),
    "column_Nx1": _noise(9, 1, np.float64),
    "pixel_1x1": _noise(1, 1, np.float64),
}


class TestWarpLuma:
    def test_identity_preserves_interior(self):
        luma = ramp()
        warped, valid = warp_luma(luma, AffineModel())
        assert np.allclose(warped[valid], luma[valid])
        assert valid[:-1, :-1].all()

    def test_integer_translation_shifts(self):
        luma = ramp()
        warped, valid = warp_luma(luma, TranslationalModel(2, 1))
        # Output (x, y) holds input (x+2, y+1).
        assert warped[0, 0] == luma[1, 2]
        assert warped[5, 5] == luma[6, 7]
        height, width = luma.shape
        assert valid[:height - 2, :width - 3].all()
        assert not valid[:, width - 2:].any()

    def test_subpixel_translation_interpolates_linear_ramp(self):
        """A linear ramp is reproduced exactly by bilinear sampling."""
        luma = ramp()
        warped, valid = warp_luma(luma, TranslationalModel(0.5, 0.25))
        expected = luma + 0.5 * 3 + 0.25 * 5
        assert np.allclose(warped[valid], expected[valid])

    def test_out_of_frame_marked_invalid_and_filled(self):
        luma = ramp()
        warped, valid = warp_luma(luma, TranslationalModel(100, 0),
                                  fill=7.0)
        assert not valid.any()
        assert (warped == 7.0).all()

    def test_output_shape_override(self):
        luma = ramp(20, 30)
        warped, valid = warp_luma(luma, TranslationalModel(3, 2),
                                  output_shape=(4, 5))
        assert warped.shape == (4, 5)
        assert warped[0, 0] == luma[2, 3]

    def test_affine_zoom(self):
        luma = ramp()
        warped, valid = warp_luma(luma, AffineModel(a=2.0, d=2.0))
        assert warped[2, 3] == pytest.approx(luma[4, 6])


class TestWarpMatchesReference:
    """``warp_luma`` against the golden warp: same bits, same dtypes,
    every model class, source dtype and degenerate source shape."""

    # (40, 57) is larger than every source: the mosaic's case.
    @pytest.mark.parametrize("output_shape",
                             [None, (7, 12), (1, 5), (40, 57)],
                             ids=lambda shape: f"out{shape}")
    @pytest.mark.parametrize("source", list(WARP_SOURCES))
    @pytest.mark.parametrize("model", list(WARP_MODELS))
    def test_bit_identical(self, model, source, output_shape):
        luma = WARP_SOURCES[source]
        warped, valid = warp_luma(luma, WARP_MODELS[model], fill=7.5,
                                  output_shape=output_shape)
        ref_warped, ref_valid = reference_warp_luma(
            luma, WARP_MODELS[model], fill=7.5, output_shape=output_shape)
        assert warped.dtype == ref_warped.dtype
        assert valid.dtype == ref_valid.dtype
        assert np.array_equal(warped, ref_warped)
        assert np.array_equal(valid, ref_valid)

    @pytest.mark.parametrize("source", ["row_1xN", "column_Nx1",
                                        "pixel_1x1"])
    def test_degenerate_sources_fill_without_raising(self, source):
        """A source under two pixels in either dimension has no inside
        sample, so every model returns all-fill."""
        luma = WARP_SOURCES[source]
        warped, valid = warp_luma(luma, WARP_MODELS["affine_rotated"],
                                  fill=3.0, output_shape=(4, 6))
        assert not valid.any()
        assert (warped == 3.0).all()

    @pytest.mark.parametrize("source", ["float64", "uint8", "strided"])
    @pytest.mark.parametrize("model", list(WARP_MODELS))
    def test_array_fill_bit_identical(self, model, source):
        """An array ``fill`` of the output shape (the estimator passes
        the reference plane) lands exactly where the golden warp is
        invalid."""
        luma = WARP_SOURCES[source]
        fill = _noise(*luma.shape, np.float64) + 1000.0
        warped, valid = warp_luma(luma, WARP_MODELS[model], fill=fill)
        ref_warped, ref_valid = reference_warp_luma(luma, WARP_MODELS[model])
        expected = np.where(ref_valid, ref_warped, fill)
        assert np.array_equal(valid, ref_valid)
        assert warped.dtype == expected.dtype
        assert warped.tobytes() == expected.tobytes()

    def test_source_left_untouched(self):
        luma = WARP_SOURCES["float64"].copy()
        luma.flags.writeable = False
        warp_luma(luma, WARP_MODELS["affine_rotated"])
        assert np.array_equal(luma, WARP_SOURCES["float64"])

    def test_fill_plane_left_untouched(self):
        luma = WARP_SOURCES["float64"]
        fill = _noise(*luma.shape, np.float64)
        fill.flags.writeable = False
        warp_luma(luma, WARP_MODELS["affine_rotated"], fill=fill)
        assert np.array_equal(fill, _noise(*luma.shape, np.float64))

    @pytest.mark.parametrize("model", ["translation", "affine_rotated",
                                       "out_of_frame"])
    def test_results_share_no_memory(self, model):
        luma = WARP_SOURCES["float64"].copy()
        fill = _noise(*luma.shape, np.float64)
        warped, valid = warp_luma(luma, WARP_MODELS[model], fill=fill)
        for result in (warped, valid):
            assert not np.shares_memory(result, luma)
            assert not np.shares_memory(result, fill)
        assert not np.shares_memory(warped, valid)


class TestPyramidHelpers:
    def test_decimate2(self):
        luma = ramp(8, 8)
        half = decimate2(luma)
        assert half.shape == (4, 4)
        assert half[1, 1] == luma[2, 2]

    def test_pyramid_shapes(self):
        shapes = pyramid_shapes(288, 352, 3)
        assert shapes == [(288, 352), (144, 176), (72, 88)]

    def test_pyramid_shapes_rounds_up(self):
        assert pyramid_shapes(9, 9, 2)[1] == (5, 5)


class TestSad:
    def test_zero_on_identical(self):
        luma = ramp()
        assert sad(luma, luma) == 0.0

    def test_masked(self):
        a = np.zeros((4, 4))
        b = np.ones((4, 4))
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, :2] = True
        assert sad(a, b, mask) == 2.0
