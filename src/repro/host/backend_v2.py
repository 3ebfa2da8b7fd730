"""The v2 backend: inter + intra + hardware segment addressing.

Extends :class:`~repro.host.backend.EngineBackend` with the modelled
segment unit of :mod:`repro.core.segment_unit` -- the paper's announced
next step.  Segment-indexed addressing stays on the host (the side
tables are algorithm-defined), as does any call whose criterion or
connectivity the unit cannot express.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..addresslib.addressing import AddressingMode
from ..addresslib.library import CallRecord
from ..addresslib.ops import ChannelSet
from ..addresslib.segment import LumaDeltaCriterion, SegmentResult
from ..core.segment_unit import SegmentCallConfig, SegmentUnit
from ..image.frame import Frame
from .backend import EngineBackend
from .driver import AddressEngineDriver


class EngineBackendV2(EngineBackend):
    """v1 inter/intra offload plus the v2 segment unit."""

    name = "address_engine_v2"

    def __init__(self, driver: Optional[AddressEngineDriver] = None,
                 segment_unit: Optional[SegmentUnit] = None) -> None:
        super().__init__(driver)
        self.segment_unit = segment_unit or SegmentUnit()
        #: Whether the frame of the previous call is still resident in
        #: the ZBT (enables the call-chaining optimisation).
        self._resident_frame_id: Optional[int] = None

    def supports(self, mode: AddressingMode) -> bool:
        return mode is not AddressingMode.SEGMENT_INDEXED

    def segment(self, frame: Frame, seeds: Sequence[Tuple[int, int]],
                criterion: LumaDeltaCriterion,
                max_pixels: Optional[int] = None
                ) -> Tuple[SegmentResult, CallRecord]:
        """Execute a segment call on the modelled hardware unit."""
        resident = self._resident_frame_id == id(frame)
        config = SegmentCallConfig(fmt=frame.format,
                                   luma_delta=criterion.max_delta,
                                   frame_resident=resident)
        run = self.segment_unit.run_call(config, frame, seeds,
                                         max_pixels=max_pixels)
        self._resident_frame_id = id(frame)
        result = SegmentResult(labels=run.labels, distance=run.distance,
                               order=[], statistics=None,
                               processed_count=run.pixels_processed)
        seconds = (run.seconds(self.segment_unit.clock_hz)
                   + self.driver.timing.host_overhead_seconds_raw(
                       0 if resident else frame.format.strips, 1))
        record = CallRecord(
            mode=AddressingMode.SEGMENT, op_name="segment_expand_v2",
            channels=ChannelSet.Y, format_name=frame.format.name,
            pixels=run.pixels_processed, profile=None,
            extra={
                "call_seconds": seconds,
                "board_seconds": run.seconds(self.segment_unit.clock_hz),
                "expansion_cycles": float(run.expansion_cycles),
                "queue_peak": float(run.queue_peak),
                "frame_resident": float(resident),
            })
        return result, record
