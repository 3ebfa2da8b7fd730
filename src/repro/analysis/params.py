"""The engine parameters the analyzer checks a program against.

:class:`EngineParams` mirrors the knobs of
:class:`~repro.core.engine.AddressEngine` (tick rates, DMA overhead,
fast-path switch) plus the memory geometry, as *data*: the analyzer
never instantiates an engine.  The defaults reproduce the v1 prototype;
ablation studies and the pre-flight hook build instances from a live
engine with :meth:`EngineParams.from_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.config import IIM_LINES, OIM_LINES
from ..core.constraints import (INPUT_TXU_TICKS_PER_CYCLE,
                                PLC_TICKS_PER_CYCLE)
from ..core.pci import DEFAULT_JOB_OVERHEAD_CYCLES
from ..core.zbt import BANK_WORDS

if TYPE_CHECKING:
    from ..core.engine import AddressEngine
    from ..service.policy import ServicePolicy


@dataclass(frozen=True)
class EngineParams:
    """Static view of one AddressEngine's constraint-relevant knobs."""

    plc_ticks_per_cycle: int = PLC_TICKS_PER_CYCLE
    input_txu_ticks_per_cycle: int = INPUT_TXU_TICKS_PER_CYCLE
    dma_overhead_cycles: int = DEFAULT_JOB_OVERHEAD_CYCLES
    iim_lines: int = IIM_LINES
    oim_lines: int = OIM_LINES
    bank_words: int = BANK_WORDS
    fast_path: bool = True
    #: Per-call cycle safety bound; ``None`` means the engine default
    #: (:func:`repro.core.constraints.default_max_cycles`).
    max_cycles: Optional[int] = None
    #: Service deadline budget for a whole program, in engine cycles;
    #: ``None`` disables the SVC001 critical-path check.
    deadline_cycles: Optional[int] = None
    #: The serving policy to vet tenant SLOs against; ``None`` disables
    #: the SVC003 target-reachability check.
    service_policy: Optional["ServicePolicy"] = None

    @classmethod
    def from_engine(cls, engine: "AddressEngine") -> "EngineParams":
        """Capture a live engine's knobs (memory geometry is fixed)."""
        return cls(
            plc_ticks_per_cycle=engine.plc_ticks_per_cycle,
            input_txu_ticks_per_cycle=engine.input_txu_ticks_per_cycle,
            dma_overhead_cycles=engine.dma_overhead_cycles,
            fast_path=engine.fast_path)

    def iim_lines_per_image(self, images_in: int) -> int:
        """IIM lines one input image gets (the inter split halves them,
        8/8 in the prototype: ``IIM_LINES_PER_IMAGE_INTER``)."""
        if images_in == 2:
            return self.iim_lines // 2
        return self.iim_lines
