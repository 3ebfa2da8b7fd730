"""Segment addressing: geodesic expansion over arbitrary shapes.

Paper section 2.1, third scheme: *"Beginning with a set of start pixels,
all pixels of the segment are processed in order of geodesic distance"* --
each processed pixel's unprocessed neighbours are tested against a
neighbourhood criterion and, if they fulfil it, join the work queue.

The first AddressEngine prototype does **not** implement this scheme in
hardware (it is the announced next step), so segment addressing always
executes on the software path here; it is nevertheless central to the
paper's motivation because the profiled video object segmentation
algorithm -- the source of the factor-30 estimate -- is built on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..image.frame import Frame
from ..image.pixel import Channel
from .addressing import CON_4, Neighbourhood
from .indexed import SegmentStatistics
from .profiling import InstructionCost, OpProfile

#: Per-event costs of the software segment-addressing inner loop.  The
#: queue discipline, visited map and criteria tests are all address/control
#: work, which is why segment-heavy algorithms show the highest addressing
#: fraction in the paper's profile.
SEGMENT_POP_COST = InstructionCost(addr=2, load=1, branch=1)
SEGMENT_NEIGHBOUR_TEST_COST = InstructionCost(addr=4, load=2, alu=1, branch=3)
SEGMENT_PUSH_COST = InstructionCost(addr=2, store=2, branch=1)
SEGMENT_PROCESS_COST = InstructionCost(addr=2, load=1, store=1)

#: A criterion deciding whether ``neighbour`` may join the segment that
#: ``centre`` belongs to.  Receives the frame and both absolute positions.
Criterion = Callable[[Frame, Tuple[int, int], Tuple[int, int]], bool]


@dataclass(frozen=True)
class LumaDeltaCriterion:
    """Join when the luminance difference to the tested-from pixel is
    within ``max_delta`` -- the paper's canonical homogeneity check.

    This criterion class is *hardware-mappable*: it exposes its threshold
    so the v2 segment unit (:mod:`repro.core.segment_unit`) can execute
    it with its criteria comparators; arbitrary callables stay on the
    software path.
    """

    max_delta: int

    def __call__(self, frame: Frame, centre: Tuple[int, int],
                 neighbour: Tuple[int, int]) -> bool:
        luma = frame.read_plane(Channel.Y)
        cy = int(luma[centre[1], centre[0]])
        ny = int(luma[neighbour[1], neighbour[0]])
        return abs(cy - ny) <= self.max_delta


def luma_delta_criterion(max_delta: int) -> LumaDeltaCriterion:
    """The homogeneity criterion, as a hardware-mappable object."""
    return LumaDeltaCriterion(max_delta)


def yuv_delta_criterion(max_luma: int, max_chroma: int) -> Criterion:
    """Join when both luminance and chrominance differences are small."""
    def criterion(frame: Frame, centre: Tuple[int, int],
                  neighbour: Tuple[int, int]) -> bool:
        cx, cyy = centre
        nx, ny = neighbour
        luma, u, v = (frame.read_plane(channel)
                      for channel in (Channel.Y, Channel.U, Channel.V))
        if abs(int(luma[cyy, cx]) - int(luma[ny, nx])) > max_luma:
            return False
        if abs(int(u[cyy, cx]) - int(u[ny, nx])) > max_chroma:
            return False
        return abs(int(v[cyy, cx]) - int(v[ny, nx])) <= max_chroma
    return criterion


def luma_band_criterion(reference: int, max_delta: int) -> Criterion:
    """Join when the neighbour's luminance is within a band of a fixed
    reference value (seed-anchored growing)."""
    def criterion(frame: Frame, centre: Tuple[int, int],
                  neighbour: Tuple[int, int]) -> bool:
        del centre
        ny = int(frame.read_plane(Channel.Y)[neighbour[1], neighbour[0]])
        return abs(ny - reference) <= max_delta
    return criterion


@dataclass
class SegmentResult:
    """Outcome of one segment expansion."""

    #: Segment id label per pixel; -1 where unvisited.
    labels: np.ndarray
    #: Geodesic distance (BFS depth from the seed set); -1 where unvisited.
    distance: np.ndarray
    #: Pixels in processing order, as ``(x, y)`` tuples.  The hardware
    #: segment unit does not report the order; it supplies
    #: ``processed_count`` instead.
    order: List[Tuple[int, int]] = field(default_factory=list)
    #: Per-segment statistics (segment-indexed addressing side table).
    statistics: Optional[SegmentStatistics] = None
    #: Explicit processed-pixel count for order-less results.
    processed_count: Optional[int] = None

    @property
    def pixels_processed(self) -> int:
        if self.processed_count is not None:
            return self.processed_count
        return len(self.order)

    def segment_mask(self, segment_id: int) -> np.ndarray:
        """Boolean mask of one segment."""
        return self.labels == segment_id

    def segment_sizes(self) -> Dict[int, int]:
        """Pixel count per segment id (unvisited excluded)."""
        ids, counts = np.unique(self.labels[self.labels >= 0],
                                return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}


class SegmentProcessor:
    """Executes segment addressing: seeded, criteria-gated BFS expansion."""

    def __init__(self, connectivity: Neighbourhood = CON_4,
                 profile: Optional[OpProfile] = None) -> None:
        #: Neighbour offsets tested for expansion (the centre is skipped).
        self.connectivity = connectivity
        self.profile = profile

    def _account(self, cost: InstructionCost, units: float = 1.0) -> None:
        if self.profile is not None:
            self.profile.add_cost(cost, units)

    def expand(self, frame: Frame,
               seeds: Sequence[Tuple[int, int]],
               criterion: Criterion,
               process: Optional[Callable[[Frame, int, int], None]] = None,
               collect_statistics: bool = True,
               max_pixels: Optional[int] = None) -> SegmentResult:
        """Grow segments from ``seeds`` in geodesic-distance order.

        Each seed starts its own segment (ids follow seed order).  Every
        dequeued pixel is processed (``process`` callback, e.g. writing a
        label into the Aux channel), then its unvisited neighbours are
        tested with ``criterion``; accepted neighbours join the queue with
        the same segment id at distance + 1.  Ties between segments resolve
        by queue order, i.e. by geodesic distance -- exactly the expansion
        process of the paper.

        Args:
            frame: The frame to expand over.
            seeds: Start pixels ``(x, y)``; out-of-frame seeds raise.
            criterion: The neighbourhood join criterion.
            process: Optional per-pixel processing step.
            collect_statistics: Maintain the segment-indexed side table.
            max_pixels: Optional hard stop (safety for runaway criteria).

        Returns:
            A :class:`SegmentResult`.
        """
        height, width = frame.height, frame.width
        labels = np.full((height, width), -1, dtype=np.int32)
        distance = np.full((height, width), -1, dtype=np.int32)
        stats = (SegmentStatistics(max_segments=max(len(seeds), 1))
                 if collect_statistics else None)
        if stats is not None and self.profile is not None:
            stats.table.profile = self.profile

        queue: deque = deque()
        for segment_id, (sx, sy) in enumerate(seeds):
            if not frame.format.contains(sx, sy):
                raise ValueError(f"seed ({sx}, {sy}) outside frame "
                                 f"{width}x{height}")
            if labels[sy, sx] != -1:
                continue  # two seeds on the same pixel: first wins
            labels[sy, sx] = segment_id
            distance[sy, sx] = 0
            queue.append((sx, sy))
            self._account(SEGMENT_PUSH_COST)

        result = SegmentResult(labels=labels, distance=distance,
                               statistics=stats)
        neighbour_offsets = [off for off in self.connectivity.offsets
                             if off != (0, 0)]

        while queue:
            if max_pixels is not None and result.pixels_processed >= max_pixels:
                break
            x, y = queue.popleft()
            self._account(SEGMENT_POP_COST)
            segment_id = int(labels[y, x])

            # First, pixel processing (same way as for intra addressing).
            self._account(SEGMENT_PROCESS_COST)
            if process is not None:
                process(frame, x, y)
            result.order.append((x, y))
            if stats is not None:
                stats.observe(segment_id, x, y,
                              int(frame.read_plane(Channel.Y)[y, x]))

            # Second, test all not-yet-processed neighbours.
            for dx, dy in neighbour_offsets:
                nx, ny = x + dx, y + dy
                self._account(SEGMENT_NEIGHBOUR_TEST_COST)
                if not (0 <= nx < width and 0 <= ny < height):
                    continue
                if labels[ny, nx] != -1:
                    continue
                if not criterion(frame, (x, y), (nx, ny)):
                    continue
                labels[ny, nx] = segment_id
                distance[ny, nx] = distance[y, x] + 1
                queue.append((nx, ny))
                self._account(SEGMENT_PUSH_COST)

        if self.profile is not None:
            self.profile.add_call()
        return result

    def label_into_aux(self, frame: Frame,
                       seeds: Sequence[Tuple[int, int]],
                       criterion: Criterion,
                       base_label: int = 1) -> SegmentResult:
        """Expand and write ``base_label + segment_id`` into the Aux channel.

        A common AddressLib pattern: segment ids generated during the pixel
        processing flow into the pixel's 16-bit Aux field.
        """
        result = self.expand(frame, seeds, criterion)
        mask = result.labels >= 0
        frame.aux[mask] = (result.labels[mask] + base_label).astype(np.uint16)
        return result
