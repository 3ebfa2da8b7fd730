"""Synthetic test sequences standing in for the paper's MPEG-1 clips.

Table 3 evaluates on four CIF clips -- *Singapore*, *Dome*, *Pisa* and
*Movie* -- that we do not have.  Per the substitution plan each becomes a
scripted camera path over a seeded synthetic panorama: the camera pans
(and, per sequence, zooms/rotates/jitters) across a textured scene, so
the global motion is known exactly, the GME workload sees realistic
content, and the per-sequence AddressLib call volumes land near the
paper's (frame counts were chosen so the deterministic intra-call budget
matches Table 3's intra column; the inter column emerges from the
estimator's convergence behaviour).

All sequences are deterministic in their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from ..image.formats import CIF, ImageFormat
from ..image.frame import Frame
from ..image.synth import frame_from_luma, textured_panorama
from .motion_model import AffineModel
from .warp import WarpWorkspace

#: A camera pose: frame coordinates -> panorama coordinates.
PoseFn = Callable[[int], AffineModel]


@dataclass(frozen=True)
class SequenceSpec:
    """A scripted synthetic sequence."""

    name: str
    frames: int
    pose: PoseFn
    fmt: ImageFormat = CIF
    panorama_width: int = 1536
    panorama_height: int = 864
    seed: int = 7
    #: Scale 0 < s <= 1 shortens the sequence proportionally (benches use
    #: this to keep runtimes sane; results extrapolate linearly in frames).
    def scaled_frames(self, scale: float) -> int:
        if not 0 < scale <= 1:
            raise ValueError(f"scale {scale} outside (0, 1]")
        return max(int(round(self.frames * scale)), 2)


class SyntheticSequence:
    """Renders the frames of a :class:`SequenceSpec` on demand, one at a
    time, through one warp workspace (so not from concurrent
    threads)."""

    def __init__(self, spec: SequenceSpec,
                 frames_override: Optional[int] = None) -> None:
        self.spec = spec
        self.frames = frames_override or spec.frames
        self._panorama = textured_panorama(
            spec.panorama_width, spec.panorama_height, seed=spec.seed)
        #: Every frame is rendered through the same planes.
        self._warp = WarpWorkspace()

    def pose(self, index: int) -> AffineModel:
        """Camera pose of frame ``index`` (frame -> panorama coords)."""
        if not 0 <= index < self.frames:
            raise IndexError(f"frame {index} outside 0..{self.frames - 1}")
        return self.spec.pose(index)

    def true_pair_model(self, index: int) -> AffineModel:
        """Ground-truth motion of pair ``(index, index + 1)``: maps frame
        ``index + 1`` coordinates to frame ``index`` coordinates."""
        return self.pose(index).inverse().compose(self.pose(index + 1))

    def frame(self, index: int) -> Frame:
        """Render frame ``index`` by sampling the panorama."""
        pose = self.pose(index)
        fmt = self.spec.fmt
        luma, valid = self._warp.warp(self._panorama, pose, fill=96.0,
                                      output_shape=(fmt.height, fmt.width))
        del valid  # camera paths keep the view inside the panorama
        return frame_from_luma(fmt, luma)

    def __iter__(self) -> Iterator[Frame]:
        for index in range(self.frames):
            yield self.frame(index)


def _pan_pose(origin_x: float, origin_y: float, vx: float, vy: float,
              zoom_rate: float = 0.0, rot_rate: float = 0.0,
              jitter: float = 0.0, seed: int = 0) -> PoseFn:
    """A camera path: linear pan with optional zoom, rotation and jitter."""

    def pose(index: int) -> AffineModel:
        zoom = 1.0 + zoom_rate * index
        angle = rot_rate * index
        cos_a = math.cos(angle) * zoom
        sin_a = math.sin(angle) * zoom
        jx = jy = 0.0
        if jitter:
            # Deterministic per frame index, independent of call order.
            local = np.random.default_rng(seed * 100003 + index)
            jx = float(local.normal(0.0, jitter))
            jy = float(local.normal(0.0, jitter))
        return AffineModel(a=cos_a, b=-sin_a,
                           tx=origin_x + vx * index + jx,
                           c=sin_a, d=cos_a,
                           ty=origin_y + vy * index + jy)

    return pose


#: Frame counts derived from Table 3's intra-call column (9 intra calls
#: per frame pair plus 2 per frame; see DESIGN.md's experiment index).
SINGAPORE = SequenceSpec(
    name="Singapore", frames=505, seed=11,
    pose=_pan_pose(origin_x=120.0, origin_y=260.0, vx=1.9, vy=0.12))

DOME = SequenceSpec(
    name="Dome", frames=549, seed=23,
    pose=_pan_pose(origin_x=140.0, origin_y=180.0, vx=1.5, vy=0.35,
                   rot_rate=0.00045))

PISA = SequenceSpec(
    name="Pisa", frames=1033, seed=37,
    pose=_pan_pose(origin_x=110.0, origin_y=120.0, vx=0.85, vy=0.38,
                   zoom_rate=0.00012))

MOVIE = SequenceSpec(
    name="Movie", frames=453, seed=51,
    pose=_pan_pose(origin_x=160.0, origin_y=240.0, vx=2.2, vy=-0.3,
                   jitter=0.3, seed=51))

#: The Table 3 sequence set, in the paper's row order.
TABLE3_SEQUENCES = (SINGAPORE, DOME, PISA, MOVIE)

#: The Table 3 numbers, for comparison in benches:
#: (name, pm_seconds, fpga_seconds, intra_calls, inter_calls).
PAPER_TABLE3 = (
    ("Singapore", 4 * 60 + 35, 64, 4542, 3173),
    ("Dome", 5 * 60 + 28, 73, 4931, 3404),
    ("Pisa", 12 * 60 + 25, 2 * 60 + 21, 9294, 6541),
    ("Movie", 5 * 60 + 22, 65, 4070, 3085),
)


def sequence_by_name(name: str) -> SequenceSpec:
    """Look up one of the Table 3 sequences by (case-insensitive) name."""
    for spec in TABLE3_SEQUENCES:
        if spec.name.lower() == name.strip().lower():
            return spec
    raise KeyError(f"unknown sequence {name!r}; known: "
                   f"{', '.join(s.name for s in TABLE3_SEQUENCES)}")
