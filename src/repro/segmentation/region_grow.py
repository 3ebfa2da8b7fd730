"""Full-frame video object segmentation via segment addressing.

The substrate of the paper's reference [2] (Herrmann et al., "A Video
Segmentation Algorithm for Hierarchical Object Representations"): the
frame is partitioned into homogeneous segments by seeded region growing,
where every segment expands in geodesic-distance order under a
luminance-homogeneity criterion -- precisely the workload whose
instruction profile motivates the AddressEngine (the paper's factor-30
estimate, reproduced by ``benchmarks/test_claim_profiling.py``).

Pipeline per frame, all pixel-level stages as AddressLib calls:

1. ``intra`` gradient call -- boundary strength per pixel;
2. seed selection at gradient minima on a coarse grid (host);
3. segment addressing -- criteria-gated expansion from all seeds, with
   segment-indexed statistics;
4. residual sweep -- unassigned pixels (blocked by the criterion) start
   new segments until the frame is covered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..addresslib.addressing import CON_4, Neighbourhood
from ..addresslib.library import AddressLib
from ..addresslib.ops import INTRA_GRAD
from ..addresslib.segment import luma_delta_criterion
from ..image.frame import Frame
from ..image.pixel import Channel
from .labels import coverage, relabel_compact, segment_sizes


@dataclass(frozen=True)
class RegionGrowSettings:
    """Tunables of the region-growing segmenter."""

    #: Luminance homogeneity threshold for joining a segment.
    luma_delta: int = 12
    #: Seed grid pitch in pixels (seeds snap to local gradient minima).
    seed_pitch: int = 24
    #: Window radius for the gradient-minimum snap.
    seed_snap_radius: int = 4
    #: Connectivity of the expansion.
    connectivity: Neighbourhood = CON_4


@dataclass
class SegmentationOutput:
    """A complete frame partition."""

    labels: np.ndarray
    segment_count: int
    seeds: List[Tuple[int, int]] = field(default_factory=list)
    #: Geodesic distance map of the primary expansion.
    distance: Optional[np.ndarray] = None

    @property
    def sizes(self):
        return segment_sizes(self.labels)


class RegionGrowSegmenter:
    """Seeded region growing over AddressLib's segment addressing."""

    def __init__(self, lib: AddressLib,
                 settings: Optional[RegionGrowSettings] = None) -> None:
        self.lib = lib
        self.settings = settings or RegionGrowSettings()

    # -- seeds -----------------------------------------------------------------

    def select_seeds(self, gradient: np.ndarray) -> List[Tuple[int, int]]:
        """Grid seeds snapped to the local gradient minimum.

        Seeding at low-gradient (homogeneous) points keeps seeds away
        from object boundaries, so each seed's segment expands cleanly.
        """
        pitch = self.settings.seed_pitch
        radius = self.settings.seed_snap_radius
        height, width = gradient.shape
        seeds: List[Tuple[int, int]] = []
        for cy in range(pitch // 2, height, pitch):
            for cx in range(pitch // 2, width, pitch):
                y0, y1 = max(cy - radius, 0), min(cy + radius + 1, height)
                x0, x1 = max(cx - radius, 0), min(cx + radius + 1, width)
                window = gradient[y0:y1, x0:x1]
                local = np.unravel_index(int(window.argmin()), window.shape)
                seeds.append((x0 + int(local[1]), y0 + int(local[0])))
        return seeds

    # -- the segmentation -------------------------------------------------------

    def segment_frame(self, frame: Frame) -> SegmentationOutput:
        """Partition ``frame`` into homogeneous segments."""
        settings = self.settings
        gradient_frame = self.lib.intra(INTRA_GRAD, frame)
        seeds = self.select_seeds(
            gradient_frame.read_plane(Channel.Y).astype(np.float64))

        criterion = luma_delta_criterion(settings.luma_delta)
        primary = self.lib.segment(frame, seeds, criterion,
                                   connectivity=settings.connectivity)
        labels = primary.labels.copy()
        next_id = len(seeds)

        # Residual sweep: pixels the criterion fenced off become their own
        # segments, grown the same way, until the partition is complete.
        while True:
            unassigned = np.argwhere(labels < 0)
            if unassigned.size == 0:
                break
            sy, sx = (int(unassigned[0][0]), int(unassigned[0][1]))
            residual = self.lib.segment(frame, [(sx, sy)], criterion,
                                        connectivity=settings.connectivity)
            grown = (residual.labels >= 0) & (labels < 0)
            if not grown.any():
                labels[sy, sx] = next_id  # isolated pixel
            else:
                labels[grown] = next_id
            next_id += 1

        assert coverage(labels) == 1.0
        labels, count = relabel_compact(labels)
        return SegmentationOutput(labels=labels, segment_count=count,
                                  seeds=seeds, distance=primary.distance)
