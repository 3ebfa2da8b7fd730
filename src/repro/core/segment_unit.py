"""The v2 extension: segment addressing in hardware (paper section 5).

*"The next step will be to implement the segment addressing scheme on
the same FPGA board."*  The v1 prototype leaves segment addressing on
the host; this module models the announced v2 segment unit so the
extension's costs and benefits can be quantified.

Architecture of the modelled unit:

* the whole input frame must be resident in the ZBT before expansion
  starts (segment addressing is random-access, so strip streaming does
  not apply -- expansion order is data-dependent);
* a **work-queue FIFO** in BRAM holds pending pixels in geodesic order
  (BRAM-internal push/pop is free of ZBT cycles);
* a **label plane** lives in the pixels' upper words (the Aux field), so
  visited tests ride along with the neighbour fetch and label writes are
  one port operation;
* per processed pixel the unit pays: one queue pop, the parallel fetch
  of the centre (1 cycle, sibling banks), neighbour fetch+test cycles
  (the image pair's two ports serve two neighbour words per cycle), and
  one label write-back.

The model executes the expansion *exactly* (same geodesic semantics as
:class:`~repro.addresslib.segment.SegmentProcessor`, verified by tests)
while accounting hardware cycles per event, and a closed-form timing is
provided for call-level planning.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence, Tuple

import numpy as np

from ..image.formats import ImageFormat
from ..image.frame import Frame
from ..image.pixel import Channel
from .pci import DEFAULT_JOB_OVERHEAD_CYCLES, PCI_CLOCK_HZ

#: Neighbour offsets of the hardware unit (4-connectivity, fixed in v2).
V2_CONNECTIVITY = ((0, -1), (-1, 0), (1, 0), (0, 1))

#: Work-queue capacity in pixels (one BRAM pair holds 2k entries of
#: packed 11+11-bit coordinates).
QUEUE_CAPACITY = 2048


@dataclass(frozen=True)
class SegmentCallConfig:
    """One v2 segment-addressing call.

    The hardware criterion is the paper's canonical homogeneity check:
    join when |Y(neighbour) - Y(tested-from)| <= ``luma_delta``.
    """

    fmt: ImageFormat
    luma_delta: int
    #: Keep the frame resident from a previous call (skips the input DMA
    #: -- the chaining optimisation the on-board memory enables).
    frame_resident: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.luma_delta <= 255:
            raise ValueError("luma_delta must be an 8-bit threshold")


@dataclass
class SegmentRunResult:
    """Outcome and accounting of one v2 segment call."""

    labels: np.ndarray
    distance: np.ndarray
    pixels_processed: int
    neighbour_tests: int
    queue_peak: int
    #: Engine cycles by phase.
    input_cycles: int
    expansion_cycles: int
    readback_cycles: int
    overhead_cycles: int

    @property
    def total_cycles(self) -> int:
        return (self.input_cycles + self.expansion_cycles
                + self.readback_cycles + self.overhead_cycles)

    def seconds(self, clock_hz: float = PCI_CLOCK_HZ) -> float:
        return self.total_cycles / clock_hz

    @property
    def cycles_per_processed_pixel(self) -> float:
        if self.pixels_processed == 0:
            return 0.0
        return self.expansion_cycles / self.pixels_processed


class QueueOverflow(RuntimeError):
    """The expansion front exceeded the work-queue FIFO's capacity.

    The hardware queue is a fixed BRAM; a front wider than
    :data:`QUEUE_CAPACITY` pixels would deadlock the unit.  Fronts scale
    with the frame perimeter (a whole-CIF flood peaks well under 1k), so
    the limit only bites on pathological criteria.
    """


class SegmentUnit:
    """The modelled v2 hardware segment-addressing unit."""

    def __init__(self, clock_hz: float = PCI_CLOCK_HZ,
                 dma_overhead_cycles: int = DEFAULT_JOB_OVERHEAD_CYCLES,
                 queue_capacity: int = QUEUE_CAPACITY) -> None:
        self.clock_hz = clock_hz
        self.dma_overhead_cycles = dma_overhead_cycles
        self.queue_capacity = queue_capacity

    # -- per-event hardware costs (cycles) ----------------------------------

    @staticmethod
    def _expansion_cost(neighbour_count: int) -> int:
        """Cycles of one pixel-cycle of the expansion.

        1 pop+centre fetch (queue is BRAM-parallel; centre words arrive
        from the sibling banks together), then the neighbour words at two
        per cycle through the image pair's two ports, then 1 label
        write-back.
        """
        neighbour_cycles = -(-neighbour_count // 2)
        return 1 + neighbour_cycles + 1

    def run_call(self, config: SegmentCallConfig, frame: Frame,
                 seeds: Sequence[Tuple[int, int]],
                 max_pixels: Optional[int] = None) -> SegmentRunResult:
        """Execute one segment call with exact expansion semantics."""
        fmt = config.fmt
        if frame.format.width != fmt.width or \
                frame.format.height != fmt.height:
            raise ValueError(
                f"frame {frame.format.name} does not match {fmt.name}")
        height, width = fmt.height, fmt.width
        luma = frame.read_plane(Channel.Y)
        labels = np.full((height, width), -1, dtype=np.int32)
        distance = np.full((height, width), -1, dtype=np.int32)

        queue: Deque[Tuple[int, int]] = deque()
        for segment_id, (sx, sy) in enumerate(seeds):
            if not fmt.contains(sx, sy):
                raise ValueError(f"seed ({sx}, {sy}) outside frame")
            if labels[sy, sx] != -1:
                continue
            labels[sy, sx] = segment_id
            distance[sy, sx] = 0
            queue.append((sx, sy))

        expansion_cycles = 0
        neighbour_tests = 0
        processed = 0
        queue_peak = len(queue)

        while queue:
            if max_pixels is not None and processed >= max_pixels:
                break
            x, y = queue.popleft()
            processed += 1
            segment_id = int(labels[y, x])
            centre = int(luma[y, x])
            in_frame = []
            for dx, dy in V2_CONNECTIVITY:
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    in_frame.append((nx, ny))
            expansion_cycles += self._expansion_cost(len(in_frame))
            neighbour_tests += len(in_frame)
            for nx, ny in in_frame:
                if labels[ny, nx] != -1:
                    continue
                if abs(int(luma[ny, nx]) - centre) > config.luma_delta:
                    continue
                labels[ny, nx] = segment_id
                distance[ny, nx] = distance[y, x] + 1
                queue.append((nx, ny))
            if len(queue) > self.queue_capacity:
                raise QueueOverflow(
                    f"expansion front of {len(queue)} pixels exceeds the "
                    f"work queue's {self.queue_capacity} entries")
            queue_peak = max(queue_peak, len(queue))

        pixels = fmt.pixels
        input_cycles = 0 if config.frame_resident else 2 * pixels
        # Labels live in the upper words: one word per pixel back.
        readback_cycles = pixels
        jobs = (0 if config.frame_resident else fmt.strips) + 1
        overhead = jobs * self.dma_overhead_cycles
        # Seeds arrive as one word each ahead of the expansion.
        overhead += len(seeds)

        return SegmentRunResult(
            labels=labels, distance=distance,
            pixels_processed=processed,
            neighbour_tests=neighbour_tests, queue_peak=queue_peak,
            input_cycles=input_cycles,
            expansion_cycles=expansion_cycles,
            readback_cycles=readback_cycles,
            overhead_cycles=overhead)

    # -- closed-form planning -------------------------------------------------

    def call_cycles_estimate(self, config: SegmentCallConfig,
                             expected_pixels: int) -> int:
        """Closed-form call cycles for ``expected_pixels`` of expansion
        (interior pixels: 4 neighbours -> 4 cycles each)."""
        input_cycles = 0 if config.frame_resident else 2 * config.fmt.pixels
        jobs = (0 if config.frame_resident else config.fmt.strips) + 1
        return (input_cycles + 4 * expected_pixels + config.fmt.pixels
                + jobs * self.dma_overhead_cycles)


def v2_module_additions():
    """Extra blocks of the v2 design, for the resource outlook.

    The v1 report leaves 67 BRAMs free ("there is enough free memory for
    a possible extension of the design with other addressing schemes");
    the segment unit needs a handful: the work-queue FIFO pair, a seed
    buffer, and the criteria/address-generation logic.
    """
    from .resources import ModuleEstimate, ResourceEstimate
    return [
        ModuleEstimate("seg_work_queue", ResourceEstimate(
            slices=30, flip_flops=14, luts=20, brams=2)),
        ModuleEstimate("seg_seed_buffer", ResourceEstimate(
            slices=12, flip_flops=6, luts=8, brams=1)),
        ModuleEstimate("seg_address_generator", ResourceEstimate(
            slices=46, flip_flops=18, luts=30)),
        ModuleEstimate("seg_criteria_unit", ResourceEstimate(
            slices=24, flip_flops=8, luts=16)),
        ModuleEstimate("seg_label_writeback", ResourceEstimate(
            slices=18, flip_flops=8, luts=12)),
    ]
