"""Frame warping and pyramid resampling for global motion estimation.

``warp_luma(luma, model)`` resamples a luminance plane so that pixel
``(x, y)`` of the output holds the input sampled at ``model(x, y)``
(bilinear interpolation, out-of-frame samples marked invalid).  The
estimator aligns the *current* frame to the *reference* by warping with
the current motion estimate; the validity mask keeps border pixels out
of the residual statistics.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..image.formats import block_rows


def warp_luma(luma: np.ndarray, model,
              fill: Union[float, np.ndarray] = 0.0,
              output_shape: Tuple[int, int] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Warp a luminance plane through a motion model.

    Args:
        luma: Source plane (any numeric dtype; promoted to float64).
        model: A motion model with ``apply(xs, ys)``; maps *output*
            coordinates to *source* coordinates.  It receives a ``(1, W)``
            row of x and a ``(rows, 1)`` column of y (one row block),
            must broadcast, and must return new arrays, which the warp
            overwrites.
        fill: Value written where the source sample falls outside: a
            scalar, or an array broadcastable to the output shape (the
            estimator passes the reference plane, so outside pixels
            copy the reference).
        output_shape: ``(height, width)`` of the result; defaults to the
            source shape.

    Returns:
        ``(warped, valid)`` -- the warped float64 plane and a boolean
        mask of pixels whose source sample was fully inside the frame.
        Neither shares memory with ``luma`` or ``fill``.

    The output is evaluated one row block (``BLOCK_PIXELS`` pixels, see
    :mod:`repro.image.formats`) at a time: each block's ``(rows, 1)``
    slice of the y column goes through the model with the whole x row,
    and the block's results land in its rows of ``warped`` and
    ``valid``.  Every pixel's value depends on its own coordinates
    only, so the blocking changes no bit.  Within a block each
    coordinate plane is floored once; the validity mask, the fractions
    and the flat tap index all derive from the floors.  The index
    ``y0 * width + x0`` is formed in float64 (exact below 2**53) and
    cast to integers once.  The four bilinear taps are gathered with
    that one index from the flattened source and from its views offset
    by 1, ``width`` and ``width + 1``; an out-of-frame pixel's index is
    clamped into the buffer by ``take`` and its value then replaced by
    ``fill``.  The interpolation evaluates ``top * (1 - fy) + bottom *
    fy`` with ``top`` and ``bottom`` blended along x first, each product
    and sum rounded in that order (in place), so results are bit-stable.
    """
    height, width = luma.shape
    out_height, out_width = output_shape or luma.shape
    warped = np.empty((out_height, out_width), dtype=np.float64)
    valid = np.zeros((out_height, out_width), dtype=bool)
    fill = np.broadcast_to(fill, warped.shape)
    if height < 2 or width < 2:
        # No sample of a source this thin has all four taps inside (and
        # the offset views below would be empty).
        np.copyto(warped, fill)
        return warped, valid

    source = np.ascontiguousarray(luma, dtype=np.float64).ravel()
    xs = np.arange(out_width, dtype=np.float64)[np.newaxis, :]
    ys = np.arange(out_height, dtype=np.float64)[:, np.newaxis]
    rows = block_rows(out_width)
    # Scratch planes of one block, reused by every block (the last one
    # may be shorter).
    index_buf = np.empty((min(rows, out_height), out_width), dtype=np.intp)
    tap_buf = np.empty(index_buf.shape, dtype=np.float64)
    bottom_buf = np.empty(index_buf.shape, dtype=np.float64)
    for top in range(0, out_height, rows):
        block = slice(top, top + rows)
        sx, sy = model.apply(xs, ys[block])
        x0 = np.floor(sx)
        y0 = np.floor(sy)
        inside = valid[block]
        inside[...] = ((x0 >= 0) & (y0 >= 0) & (x0 < width - 1)
                       & (y0 < height - 1))
        span = inside.shape[0]
        index = index_buf[:span]
        tap = tap_buf[:span]
        bottom = bottom_buf[:span]

        fx = np.subtract(sx, x0, out=sx)
        fy = np.subtract(sy, y0, out=sy)
        y0 *= width
        np.add(y0, x0, out=index, dtype=np.float64, casting="unsafe")

        out = warped[block]
        gx = 1 - fx
        source.take(index, out=out, mode="clip")
        out *= gx
        source[1:].take(index, out=tap, mode="clip")
        tap *= fx
        out += tap
        source[width:].take(index, out=bottom, mode="clip")
        bottom *= gx
        source[width + 1:].take(index, out=tap, mode="clip")
        tap *= fx
        bottom += tap
        bottom *= fy
        np.subtract(1, fy, out=fy)
        out *= fy
        out += bottom
        np.copyto(out, fill[block], where=~inside)
    return warped, valid


def decimate2(luma: np.ndarray) -> np.ndarray:
    """Drop every second sample in both dimensions (after low-pass
    filtering via the AddressLib box filter)."""
    return luma[::2, ::2]


def pyramid_shapes(height: int, width: int, levels: int):
    """Shapes of a ``levels``-deep dyadic pyramid, finest first."""
    shapes = []
    h, w = height, width
    for _ in range(levels):
        shapes.append((h, w))
        h = -(-h // 2)
        w = -(-w // 2)
    return shapes


def sad(a: np.ndarray, b: np.ndarray, mask: np.ndarray = None) -> float:
    """Reference sum-of-absolute-differences (float), optionally masked.

    The production path computes SAD through an AddressLib inter call;
    this helper is the float golden used in tests.
    """
    diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
    if mask is not None:
        diff = diff[mask]
    return float(diff.sum())
