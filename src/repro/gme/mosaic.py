"""Mosaic compositing from global motion estimates.

The paper's evaluation workload "is used for Mosaicing purposes ... as a
result this software creates a Mosaic with the global motion of the
scene".  :class:`Mosaic` accumulates motion-compensated frames onto a
canvas anchored in the first frame's coordinate system: each frame is
placed through the composition of the pairwise GME models, blended by
averaging (optionally weighted by the estimator's blend mask).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .motion_model import AffineModel
from .warp import WarpWorkspace


class Mosaic:
    """An averaging mosaic canvas in first-frame coordinates."""

    def __init__(self, width: int, height: int,
                 origin: Tuple[float, float] = (0.0, 0.0)) -> None:
        """``origin`` is where the first frame's (0, 0) lands on the
        canvas; size the canvas to cover the expected camera travel."""
        if width <= 0 or height <= 0:
            raise ValueError("mosaic dimensions must be positive")
        self.origin = origin
        self._sum = np.zeros((height, width), dtype=np.float64)
        self._weight = np.zeros((height, width), dtype=np.float64)
        self.frames_accumulated = 0
        #: Every frame and mask is warped through these planes; a mask
        #: leaves its verdict in ``_blend`` before the frame's warp.
        self._warp = WarpWorkspace()
        self._blend = np.empty((height, width), dtype=bool)

    @property
    def shape(self) -> Tuple[int, int]:
        return self._sum.shape

    @property
    def coverage(self) -> float:
        """Fraction of canvas pixels touched by at least one frame."""
        return float((self._weight > 0).mean())

    def accumulate(self, luma: np.ndarray, to_first: AffineModel,
                   mask: Optional[np.ndarray] = None) -> None:
        """Blend one frame onto the canvas.

        Args:
            luma: The frame's luminance plane.
            to_first: Model mapping this frame's coordinates to the first
                frame's coordinates (the composed pairwise GME models).
            mask: Optional boolean per-pixel blend mask in *frame*
                coordinates (e.g. the estimator's homogeneity mask).
        """
        ox, oy = self.origin
        # Canvas pixel -> first-frame coords -> this frame's coords.
        canvas_to_frame = to_first.inverse().compose(
            AffineModel(tx=-ox, ty=-oy))
        warp = self._warp.warp
        if mask is not None:
            mask_w, mask_valid = warp(mask.astype(np.float64),
                                      canvas_to_frame,
                                      output_shape=self.shape)
            blend = np.greater(mask_w, 0.5, out=self._blend)
            blend &= mask_valid
        warped, valid = warp(luma, canvas_to_frame, output_shape=self.shape)
        if mask is not None:
            valid &= blend
        np.add(self._sum, warped, out=self._sum, where=valid)
        np.add(self._weight, 1.0, out=self._weight, where=valid)
        self.frames_accumulated += 1

    def composite(self, background: float = 0.0) -> np.ndarray:
        """The blended mosaic (float64 luma)."""
        out = np.full(self.shape, background, dtype=np.float64)
        covered = self._weight > 0
        out[covered] = self._sum[covered] / self._weight[covered]
        return out

    def reconstruction_error(self, reference: np.ndarray) -> float:
        """Mean absolute error against a reference scene over the covered
        area (tests compare against the ground-truth panorama crop)."""
        covered = self._weight > 0
        if not covered.any():
            return float("inf")
        mosaic = self.composite()
        return float(np.abs(mosaic[covered]
                            - reference[covered]).mean())
