"""Frame warping and pyramid resampling for global motion estimation.

``warp_luma(luma, model)`` resamples a luminance plane so that pixel
``(x, y)`` of the output holds the input sampled at ``model(x, y)``
(bilinear interpolation, out-of-frame samples marked invalid).  The
estimator aligns the *current* frame to the *reference* by warping with
the current motion estimate; the validity mask keeps border pixels out
of the residual statistics.  A loop of warps onto one geometry runs on
a :class:`WarpWorkspace`, which holds the results and the block scratch
once; ``warp_luma`` is its one-shot call.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..image.formats import block_rows


def warp_luma(luma: np.ndarray, model,
              fill: Union[float, np.ndarray] = 0.0,
              output_shape: Tuple[int, int] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Warp a luminance plane through a motion model, once.

    The one-shot form of :meth:`WarpWorkspace.warp`: a workspace made
    for this call alone, so its results are new arrays.

    Args:
        luma: Source plane (any numeric dtype; promoted to float64).
        model: A motion model with ``apply(xs, ys, out=(sx, sy))``;
            maps *output* coordinates to *source* coordinates (see
            :meth:`WarpWorkspace.warp`).
        fill: Value written where the source sample falls outside: a
            scalar, or an array broadcastable to the output shape (the
            estimator passes the reference plane, so outside pixels
            copy the reference).
        output_shape: ``(height, width)`` of the result; defaults to the
            source shape.

    Returns:
        ``(warped, valid)`` -- the warped float64 plane and a boolean
        mask of pixels whose source sample was fully inside the frame.
        Neither shares memory with ``luma``, ``fill`` or any other
        call's results.
    """
    return WarpWorkspace().warp(luma, model, fill, output_shape)


class WarpWorkspace:
    """The planes a stream of warps needs, each allocated once.

    The host's analogue of the board's IIM/OIM: the first warp onto an
    output geometry allocates that geometry's ``warped`` and ``valid``
    result planes, and one set of row-block scratch planes serves
    every geometry, grown to the largest block warped so far.  Every
    later warp streams through the same planes, so a loop of warps
    allocates nothing the size of a block or a plane.  The estimator
    keeps one for its pyramid levels, a
    :class:`~repro.gme.sequences.SyntheticSequence` one for its frames
    and a :class:`~repro.gme.mosaic.Mosaic` one for its canvas.  Like
    the board's stores, a workspace serves one warp at a time: it is
    not for concurrent use.
    """

    def __init__(self) -> None:
        #: Output shape -> its ``(warped, valid, xs, ys)`` planes.
        self._geometries: Dict[Tuple[int, int],
                               Tuple[np.ndarray, ...]] = {}
        #: One block's flat scratch: the x and y coordinates (then
        #: fractions), their floors (then ``1 - fx`` and one weighted
        #: tap), the flat tap index, the out-of-frame flags and, for a
        #: source not in float64, the gathered taps.
        self._scratch: Tuple[np.ndarray, ...] = ()
        #: What ``_scratch`` holds: pixels, and the taps' dtype (if any).
        self._scratch_kind: Tuple[int, Optional[np.dtype]] = (0, None)

    def warp(self, luma: np.ndarray, model,
             fill: Union[float, np.ndarray] = 0.0,
             output_shape: Tuple[int, int] = None
             ) -> Tuple[np.ndarray, np.ndarray]:
        """Warp ``luma`` through ``model``; the arguments are
        :func:`warp_luma`'s.

        Output pixel ``(x, y)`` holds the source sampled at
        ``model(x, y)`` (bilinear).  Returns the workspace's own
        ``(warped, valid)`` planes of the output geometry, which the
        next warp onto that geometry overwrites: a caller keeping a
        result past that copies it.  Neither shares memory with
        ``luma`` or ``fill``, which must not be the workspace's own
        planes.

        The model forms each block's coordinates in place: it is called
        as ``model.apply(xs, ys, out=(sx, sy))`` with the whole ``(1,
        W)`` row of x, the block's ``(rows, 1)`` slice of the y column
        and two ``(rows, W)`` scratch planes, and must write the mapped
        source coordinates into those planes -- rounded as its
        out-of-place ``apply(xs, ys)`` rounds them -- and return them.
        The warp then overwrites them.  Every model class goes through
        this one kernel.

        The output is evaluated one row block (``BLOCK_PIXELS`` pixels,
        see :mod:`repro.image.formats`) at a time, the last block
        possibly shorter, and each block's results land in its rows of
        ``warped`` and ``valid``.  Every pixel's value depends on its
        own coordinates only, so the blocking changes no bit.  Within a
        block each coordinate plane is floored once; the validity mask,
        the fractions and the flat tap index all derive from the
        floors.  The index ``y0 * width + x0`` is formed in float64
        (exact below 2**53) and cast to integers once.  The four
        bilinear taps are gathered with that one index from the
        flattened source and from its views offset by 1, ``width`` and
        ``width + 1``, in the source's own dtype (promoted to float64
        as they are weighted, exactly as a float64 copy of the source
        would give them); an out-of-frame pixel's index is clamped into
        the buffer by ``take`` and its value then replaced by ``fill``.
        The interpolation evaluates ``top * (1 - fy) + bottom * fy``
        with ``top`` and ``bottom`` blended along x first, each product
        and sum rounded in that order (in place; the last sum adds its
        two products in either order, as addition commutes), so results
        are bit-stable and no earlier warp's values can reach them.
        """
        shape = tuple(output_shape or luma.shape)
        planes = self._geometries.get(shape)
        if planes is None:
            planes = self._geometries[shape] = _geometry_planes(shape)
        warped, valid, xs, ys = planes
        fill = np.broadcast_to(fill, shape)
        height, width = luma.shape
        if height < 2 or width < 2:
            # No sample of a source this thin has all four taps inside (and
            # the offset views below would be empty).
            np.copyto(warped, fill)
            valid.fill(False)
            return warped, valid

        source = np.ascontiguousarray(luma).ravel()
        out_width = shape[1]
        rows = block_rows(out_width)
        scratch = self._block_scratch(min(rows, shape[0]) * out_width,
                                      source.dtype)
        for top in range(0, shape[0], rows):
            block = slice(top, top + rows)
            out = warped[block]
            inside = valid[block]
            x_plane, y_plane, x0, y0, index, outside, *taps = (
                flat[:out.size].reshape(out.shape) for flat in scratch)
            taps = taps[0] if taps else None
            sx, sy = model.apply(xs, ys[block], out=(x_plane, y_plane))
            np.floor(sx, out=x0)
            np.floor(sy, out=y0)
            np.greater_equal(x0, 0, out=inside)
            inside &= np.greater_equal(y0, 0, out=outside)
            inside &= np.less(x0, width - 1, out=outside)
            inside &= np.less(y0, height - 1, out=outside)
            np.logical_not(inside, out=outside)

            fx = np.subtract(sx, x0, out=sx)
            fy = np.subtract(sy, y0, out=sy)
            y0 *= width
            np.add(y0, x0, out=index, dtype=np.float64, casting="unsafe")

            # The floors are spent: ``1 - fx`` and a weighted tap take
            # them.  ``bottom`` is blended in the output's rows first;
            # addition commutes, so ``bottom * fy + top * (1 - fy)``
            # keeps the bits.
            gx = np.subtract(1, fx, out=x0)
            part = y0
            _weighted_taps(source[width:], index, gx, out, taps)
            _weighted_taps(source[width + 1:], index, fx, part, taps)
            out += part
            out *= fy
            gy = np.subtract(1, fy, out=fy)
            _weighted_taps(source, index, gx, part, taps)
            _weighted_taps(source[1:], index, fx, x0, taps)
            part += x0
            part *= gy
            out += part
            np.copyto(out, fill[block], where=outside)
        return warped, valid

    def _block_scratch(self, pixels: int,
                       source_dtype: np.dtype) -> Tuple[np.ndarray, ...]:
        """The flat block scratch, holding at least ``pixels`` and ending
        in a taps plane of ``source_dtype`` unless that is float64 (whose
        taps are gathered in place)."""
        taps = None if source_dtype == np.float64 else source_dtype
        size, kind = self._scratch_kind
        if size < pixels or kind != taps:
            size = max(size, pixels)
            self._scratch_kind = (size, taps)
            dtypes = (np.float64,) * 4 + (np.intp, bool)
            self._scratch = tuple(
                np.empty(size, dtype=dtype)
                for dtype in dtypes + ((taps,) if taps else ()))
        return self._scratch


def _weighted_taps(view: np.ndarray, index: np.ndarray, weight: np.ndarray,
                   out: np.ndarray, taps: Optional[np.ndarray]) -> None:
    """``out = view[index] * weight``, gathered into ``taps`` (a plane in
    the source's dtype, promoted to float64 by the multiply exactly as
    a float64 copy of the source would be) or, for a float64 source
    (``taps`` None), into ``out`` itself."""
    gathered = out if taps is None else taps
    view.take(index, out=gathered, mode="clip")
    np.multiply(gathered, weight, out=out)


def _geometry_planes(shape: Tuple[int, int]) -> Tuple[np.ndarray, ...]:
    """One output geometry's ``(warped, valid)`` result planes and its
    ``(1, W)`` row of x and ``(H, 1)`` column of y."""
    height, width = shape
    return (np.empty(shape, dtype=np.float64), np.empty(shape, dtype=bool),
            np.arange(width, dtype=np.float64)[np.newaxis, :],
            np.arange(height, dtype=np.float64)[:, np.newaxis])


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
