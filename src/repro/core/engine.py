"""The AddressEngine: the assembled coprocessor model.

:class:`AddressEngine` wires the components of Figure 2 -- ZBT memory,
PCI/DMA, IIM, OIM, transmission units, Process Unit, pixel level
controller and image level controller -- and runs one call cycle by
cycle.  One model clock is one PCI bus cycle (66 MHz); within it the
bus can move one word, each transmission unit one pixel/word, and the
pixel level controller up to two pixel-cycles (the startpipeline keeps
multiple pixel-cycles in flight, making the Process Unit faster than
the ZBT write path -- the OIM absorbs the difference).

Per-cycle order models the arbitration priorities: DMA first (the PCI
cannot be stalled cheaply), then the input transmission units, then the
image level controller's decisions, the PLC, and the output
transmission unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..addresslib.addressing import AddressingMode
from ..addresslib.executor import VectorExecutor
from ..image.frame import Frame
from .config import EngineConfig, IIM_LINES, OIM_LINES
from .constraints import (INPUT_TXU_TICKS_PER_CYCLE, PLC_TICKS_PER_CYCLE,
                          default_max_cycles, fast_path_blockers)
from .errors import EngineDeadlock, deadlock_message
from .fastpath import FastStepper, tick_engine_cycle
from .iim import InputIntermediateMemory
from .image_controller import ImageLevelController
from .oim import OutputIntermediateMemory
from .pci import DEFAULT_JOB_OVERHEAD_CYCLES, PCIBus, PCI_CLOCK_HZ
from .plc import PixelLevelController, PlcStats
from .process_unit import ProcessUnit
from .txu import InputTransmissionUnit, OutputTransmissionUnit
from .zbt import ZBTMemory, ZBTLayout

__all__ = ["AddressEngine", "EngineRunResult", "EngineDeadlock",
           "INPUT_TXU_TICKS_PER_CYCLE", "PLC_TICKS_PER_CYCLE"]


@dataclass
class EngineRunResult:
    """Everything one simulated AddressEngine call produced."""

    config: EngineConfig
    #: The result image (``None`` for scalar-reduce calls).
    frame: Optional[Frame]
    #: The scalar result (``None`` for image-producing calls).
    scalar: Optional[int]
    cycles: int
    clock_hz: float
    pci: PCIBus
    zbt: ZBTMemory
    plc_stats: PlcStats
    input_txus: List[InputTransmissionUnit]
    output_txu: Optional[OutputTransmissionUnit]
    oim_peak_pixels: int
    matrix_loads: int
    matrix_shifts: int
    matrix_pixels_fetched: int
    input_complete_cycle: int
    completion_cycle: int
    #: Whether the batched fast-path stepper drove the call (the result
    #: is cycle-exact either way; this records which loop produced it).
    fast_path_used: bool = False

    @property
    def seconds(self) -> float:
        """Wall time of the call at the model clock."""
        return self.cycles / self.clock_hz

    @property
    def non_pci_cycles(self) -> int:
        """Cycles not covered by PCI word movement: the paper's "time
        wasted not due to the PCI transferences"."""
        return self.cycles - self.pci.busy_cycles

    @property
    def non_pci_fraction_of_input(self) -> float:
        """Non-PCI time as a fraction of the input transfer time (the
        section 4.1 metric, bounded by 12.5 % for special inter ops)."""
        if self.input_complete_cycle <= 0:
            return 0.0
        return self.non_pci_cycles / self.input_complete_cycle

    @property
    def zbt_pixel_ops(self) -> int:
        """Pixel-granular ZBT access operations (Table 2's HW metric)."""
        return self.zbt.pixel_ops


class AddressEngine:
    """The coprocessor: build it once, run statically-configured calls."""

    def __init__(self, clock_hz: float = PCI_CLOCK_HZ,
                 dma_overhead_cycles: int = DEFAULT_JOB_OVERHEAD_CYCLES,
                 plc_ticks_per_cycle: int = PLC_TICKS_PER_CYCLE,
                 input_txu_ticks_per_cycle: int = INPUT_TXU_TICKS_PER_CYCLE,
                 fast_path: bool = True) -> None:
        """``plc_ticks_per_cycle`` and ``input_txu_ticks_per_cycle``
        default to the prototype's rates; ablation benches lower them to
        quantify the startpipeline and the double-rate memory domain.
        ``fast_path`` enables the cycle-exact batched stepper
        (:mod:`repro.core.fastpath`); disable it to force the per-cycle
        reference loop."""
        self.clock_hz = clock_hz
        self.dma_overhead_cycles = dma_overhead_cycles
        self.plc_ticks_per_cycle = plc_ticks_per_cycle
        self.input_txu_ticks_per_cycle = input_txu_ticks_per_cycle
        self.fast_path = fast_path

    def _fast_path_eligible(self, config: EngineConfig) -> bool:
        """Static regimes the batched stepper handles.

        Anything else (long-latency ops, single-strip frames, ablated
        tick rates) runs the per-cycle reference loop; the stepper itself
        additionally bridges any *dynamic* regime it cannot batch.  The
        regime boundaries live in
        :func:`repro.core.constraints.fast_path_blockers`, shared with
        the static analyzer's prediction.
        """
        return not fast_path_blockers(
            config.op.engine_cycles, config.fmt.strips,
            self.plc_ticks_per_cycle, self.input_txu_ticks_per_cycle)

    # -- golden reference -----------------------------------------------------

    @staticmethod
    def run_functional(config: EngineConfig, frame_a: Frame,
                       frame_b: Optional[Frame] = None
                       ) -> "Frame | int":
        """Bit-exact expected result via the vector executor.

        Used by tests to check the cycle-level model and by the host
        backend to produce results without paying simulation cost.
        """
        if config.mode is AddressingMode.INTER:
            if frame_b is None:
                raise ValueError("inter call needs two frames")
            if config.reduce_to_scalar:
                return VectorExecutor.inter_reduce(
                    config.op, frame_a, frame_b, config.channels)
            return VectorExecutor.inter(config.op, frame_a, frame_b,
                                        config.channels)
        return VectorExecutor.intra(config.op, frame_a, config.channels)

    # -- cycle-level run ------------------------------------------------------

    def run_call(self, config: EngineConfig, frame_a: Frame,
                 frame_b: Optional[Frame] = None,
                 max_cycles: Optional[int] = None,
                 resident: Optional[List[bool]] = None,
                 fast_path: Optional[bool] = None) -> EngineRunResult:
        """Simulate one AddressEngine call cycle by cycle.

        ``resident`` flags inputs already on the board from a previous
        call (call chaining): they are preloaded into their ZBT banks
        and ship no DMA.  ``fast_path`` overrides the engine-level
        setting for this call.
        """
        frames = [frame_a]
        if config.mode is AddressingMode.INTER:
            if frame_b is None:
                raise ValueError("inter call needs two frames")
            frames.append(frame_b)
        for frame in frames:
            if frame.format.width != config.fmt.width or \
                    frame.format.height != config.fmt.height:
                raise ValueError(
                    f"frame {frame.format.name} does not match call format "
                    f"{config.fmt.name}")

        zbt = ZBTMemory()
        layout = ZBTLayout(config.fmt, images_in=config.images_in)
        pci = PCIBus(job_overhead_cycles=self.dma_overhead_cycles)
        iim = InputIntermediateMemory(config.fmt.width, IIM_LINES,
                                      config.images_in)
        oim = OutputIntermediateMemory(config.fmt.width, OIM_LINES)
        pu = ProcessUnit(config, iim, oim)
        plc = PixelLevelController(pu)
        input_txus = [
            InputTransmissionUnit(zbt, layout, image, iim.fifo(image))
            for image in range(config.images_in)
        ]
        output_txu = (OutputTransmissionUnit(zbt, layout, oim)
                      if config.produces_image else None)
        ilc = ImageLevelController(config, zbt, layout, pci, plc,
                                   input_txus, output_txu)
        ilc.schedule_input(frames, resident=resident)

        if max_cycles is None:
            max_cycles = default_max_cycles(config.fmt.pixels)
        if fast_path is None:
            fast_path = self.fast_path
        use_fast = fast_path and self._fast_path_eligible(config)
        if use_fast:
            stepper = FastStepper(
                config, frames, zbt, pci, iim, oim, pu, plc, input_txus,
                output_txu, ilc, self.plc_ticks_per_cycle,
                self.input_txu_ticks_per_cycle)
            cycle = stepper.run(max_cycles)
        else:
            cycle = 0
            while ilc.completion_cycle is None:
                if cycle >= max_cycles:
                    raise EngineDeadlock(deadlock_message(
                        max_cycles, config, ilc, plc, pci, input_txus))
                tick_engine_cycle(cycle, zbt, pci, input_txus, ilc, plc,
                                  output_txu, self.plc_ticks_per_cycle,
                                  self.input_txu_ticks_per_cycle)
                cycle += 1

        assert ilc.completion_cycle is not None
        result_frame, scalar = self._assemble_result(config, ilc)
        return EngineRunResult(
            config=config, frame=result_frame, scalar=scalar,
            cycles=cycle, clock_hz=self.clock_hz, pci=pci, zbt=zbt,
            plc_stats=plc.stats, input_txus=input_txus,
            output_txu=output_txu, oim_peak_pixels=oim.peak_occupancy,
            matrix_loads=pu.matrix.load_count,
            matrix_shifts=pu.matrix.shift_count,
            matrix_pixels_fetched=pu.matrix.pixels_fetched,
            input_complete_cycle=ilc.input_complete_cycle or 0,
            completion_cycle=ilc.completion_cycle,
            fast_path_used=use_fast)

    @staticmethod
    def _assemble_result(
            config: EngineConfig, ilc: ImageLevelController
    ) -> Tuple[Optional[Frame], Optional[int]]:
        """Rebuild the host-side result from the readback word stream."""
        if not config.produces_image:
            raw = ilc.readback_words
            scalar = (raw[0] | (raw[1] << 32))
            return None, scalar
        words = np.asarray(ilc.readback_words, dtype=np.uint64)
        pairs = words.reshape(-1, 2)
        fmt = config.fmt
        # Production order is the horizontal raster scan, so the pairs map
        # row-major onto the frame.
        lower = pairs[:, 0].astype(np.uint32).reshape(fmt.height, fmt.width)
        upper = pairs[:, 1].astype(np.uint32).reshape(fmt.height, fmt.width)
        return Frame.from_words(fmt, lower, upper), None
