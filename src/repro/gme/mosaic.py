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
from .warp import warp_luma


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
        warped, valid = warp_luma(luma, canvas_to_frame,
                                  output_shape=self.shape)
        if mask is not None:
            mask_w, mask_valid = warp_luma(mask.astype(np.float64),
                                           canvas_to_frame,
                                           output_shape=self.shape)
            valid &= mask_valid & (mask_w > 0.5)
        self._sum[valid] += warped[valid]
        self._weight[valid] += 1.0
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
