"""Analytic AddressEngine call timing (validated against the cycle model).

Table 3 involves thousands of AddressEngine calls per sequence; simulating
each cycle by cycle is wasteful because the call time is closed-form once
the dataflow is understood.  This module provides that closed form,
derived from -- and checked by tests against -- the cycle-level model in
:mod:`repro.core.engine`:

* the PCI moves one 32-bit word per 66 MHz cycle, two words per pixel,
  with a fixed per-DMA-job overhead (strip jobs plus one readback job);
* input transfer fully hides processing for ordinary calls (strip double
  buffering), so the engine-side time is input words + readback words;
* "special" inter calls hold processing until both images are resident:
  the pixel-cycles then run unhidden at the startpipeline's two pixels
  per cycle -- the section 4.1 overhead, bounded by 12.5 % of the input
  transfer time;
* on top of the board time, each call pays a host driver/interrupt
  overhead (interrupt-oriented communication, section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.config import EngineConfig
from ..core.constraints import PLC_TICKS_PER_CYCLE
from ..core.pci import DEFAULT_JOB_OVERHEAD_CYCLES, PCI_CLOCK_HZ


def lpt_schedule(costs: Sequence[float], engines: int
                 ) -> Tuple[List[List[int]], List[float]]:
    """LPT list scheduling of ``costs`` across ``engines``.

    The one modelled-dispatch rule of the stack: longest processing
    time first (ties by index), each cost onto the least-loaded engine
    (ties to the lowest engine).  Returns each engine's cost indices in
    placement order and its load, accumulated with ``+=`` in that
    order, so :func:`list_scheduled_makespan` is the peak load to the
    bit.  The call scheduler groups a wave's shipped calls onto its
    worker processes with it.
    """
    loads = [0.0] * max(1, engines)
    groups: List[List[int]] = [[] for _ in loads]
    for index in sorted(range(len(costs)), key=costs.__getitem__,
                        reverse=True):
        # One engine (every served wave's board) needs no scan.
        slot = loads.index(min(loads)) if engines > 1 else 0
        loads[slot] += costs[index]
        groups[slot].append(index)
    return groups, loads


def list_scheduled_makespan(costs: Sequence[float], engines: int) -> float:
    """LPT list-scheduled makespan of ``costs`` across ``engines``.

    What every layer prices execution with: the call scheduler's
    per-wave makespan across its workers, and an
    :class:`~repro.pool.EngineWorker`'s wave cost on its one board.
    """
    return max(lpt_schedule(costs, engines)[1])


@dataclass(frozen=True)
class EngineTimingModel:
    """Closed-form cycle counts for one AddressEngine call."""

    clock_hz: float = PCI_CLOCK_HZ
    dma_overhead_cycles: int = DEFAULT_JOB_OVERHEAD_CYCLES
    #: Host-side base cost per AddressEngine call (driver entry, call
    #: marshalling, user/kernel crossings).
    host_call_overhead_s: float = 0.5e-3
    #: Host-side cost per serviced interrupt.  The PC-board protocol is
    #: interrupt oriented at DMA-job (strip) granularity, so every call
    #: pays ``dma_jobs + 1`` of these; calibrated so the per-call FPGA
    #: times of Table 3 are reproduced (see EXPERIMENTS.md).
    host_interrupt_service_s: float = 230e-6

    # -- raw cycle components (no EngineConfig needed) -----------------------

    @staticmethod
    def input_words_raw(pixels: int, images_in: int,
                        resident_images: int = 0) -> int:
        """Input DMA payload: two words per pixel per image that is not
        already resident in the ZBT (call chaining keeps a previous
        result on the board)."""
        if not 0 <= resident_images <= images_in:
            raise ValueError(
                f"{resident_images} resident of {images_in} inputs")
        return (images_in - resident_images) * 2 * pixels

    @staticmethod
    def readback_words_raw(pixels: int, produces_image: bool) -> int:
        """Result DMA payload: the image (two words per pixel) or the
        64-bit scalar (two words)."""
        return pixels * 2 if produces_image else 2

    @staticmethod
    def dma_jobs_raw(strips: int, images_in: int,
                     resident_images: int = 0) -> int:
        """Strip jobs (per non-resident image) plus the readback job."""
        return (images_in - resident_images) * strips + 1

    @staticmethod
    def unhidden_processing_cycles_raw(pixels: int, strips: int,
                                       produces_image: bool,
                                       requires_full_frames: bool) -> int:
        """Pixel-cycles that cannot hide behind DMA transfers.

        Image-producing calls overlap processing with the strip transfers
        and the (long) result readback, leaving nothing unhidden.  Scalar
        reduce calls have only a two-word readback: an ordinary reduce
        exposes roughly the last strip's processing (its lines reach the
        IIM only once the strip's DMA job completes), and a *special*
        inter reduce (``requires_full_frames``) exposes the whole frame's
        pixel-cycles at the startpipeline's two pixels per cycle -- the
        section 4.1 overhead.
        """
        if produces_image:
            return 0
        if requires_full_frames:
            return -(-pixels // PLC_TICKS_PER_CYCLE)
        strip_pixels = -(-pixels // max(strips, 1))
        return -(-strip_pixels // PLC_TICKS_PER_CYCLE)

    def call_cycles_raw(self, pixels: int, strips: int, images_in: int,
                        produces_image: bool,
                        requires_full_frames: bool = False,
                        resident_images: int = 0) -> int:
        """Total engine cycles of one call, from raw call geometry.

        ``resident_images`` inputs are already on the board (call
        chaining: a previous call's result, or a kept reference frame)
        and cost no PCI transfer.  With every input resident, the
        processing tail is no longer hidden by the input DMA; the
        unhidden term then covers it like the special-inter case.
        """
        all_resident = resident_images == images_in
        unhidden = self.unhidden_processing_cycles_raw(
            pixels, strips, produces_image,
            requires_full_frames or (all_resident and not produces_image))
        if all_resident and produces_image:
            # With no input phase, Res_block_A gets no prefill: the whole
            # readback drains bank B while the output TxU still writes it.
            # The port arbitration settles into two words per three
            # cycles, i.e. the 2*pixels readback stretches to 3*pixels --
            # one extra cycle per pixel (validated against the simulator).
            unhidden = pixels
        return (self.dma_jobs_raw(strips, images_in, resident_images)
                * self.dma_overhead_cycles
                + self.input_words_raw(pixels, images_in, resident_images)
                + unhidden
                + self.readback_words_raw(pixels, produces_image))

    def host_overhead_seconds_raw(self, strips: int, images_in: int,
                                  resident_images: int = 0) -> float:
        """Host driver cost of one call: base entry plus one interrupt
        service per DMA job and one for the completion interrupt."""
        interrupts = self.dma_jobs_raw(strips, images_in,
                                       resident_images) + 1
        return (self.host_call_overhead_s
                + interrupts * self.host_interrupt_service_s)

    def call_seconds_raw(self, pixels: int, strips: int, images_in: int,
                         produces_image: bool,
                         requires_full_frames: bool = False,
                         resident_images: int = 0) -> float:
        """End-to-end host-visible call time, from raw call geometry."""
        cycles = self.call_cycles_raw(pixels, strips, images_in,
                                      produces_image, requires_full_frames,
                                      resident_images)
        return (cycles / self.clock_hz
                + self.host_overhead_seconds_raw(strips, images_in,
                                                 resident_images))

    # -- cycle components -----------------------------------------------------

    def input_words(self, config: EngineConfig) -> int:
        """Input DMA payload: two words per pixel per image."""
        return self.input_words_raw(config.fmt.pixels, config.images_in)

    def readback_words(self, config: EngineConfig) -> int:
        """Result DMA payload of the call."""
        return self.readback_words_raw(config.fmt.pixels,
                                       config.produces_image)

    def dma_jobs(self, config: EngineConfig) -> int:
        """Strip jobs (per image) plus the single readback job."""
        return self.dma_jobs_raw(config.fmt.strips, config.images_in)

    def unhidden_processing_cycles(self, config: EngineConfig) -> int:
        """Pixel-cycles that cannot hide behind DMA transfers."""
        return self.unhidden_processing_cycles_raw(
            config.fmt.pixels, config.fmt.strips, config.produces_image,
            config.requires_full_frames)

    def call_cycles(self, config: EngineConfig) -> int:
        """Total engine cycles of one call."""
        return self.call_cycles_raw(
            config.fmt.pixels, config.fmt.strips, config.images_in,
            config.produces_image, config.requires_full_frames)

    # -- seconds --------------------------------------------------------------

    def board_seconds(self, config: EngineConfig) -> float:
        """Board-side time of one call (what the cycle model measures)."""
        return self.call_cycles(config) / self.clock_hz

    def call_seconds(self, config: EngineConfig) -> float:
        """End-to-end host-visible time of one call."""
        return (self.board_seconds(config)
                + self.host_overhead_seconds_raw(config.fmt.strips,
                                                 config.images_in))

    # -- strip-pipeline overlap model (block_A/block_B) ----------------------

    def transfer_cycles_raw(self, pixels: int, strips: int, images_in: int,
                            resident_images: int = 0) -> int:
        """Input-phase cycles: payload words plus the strip jobs'
        per-DMA overhead (no processing, no readback)."""
        input_jobs = (images_in - resident_images) * strips
        return (self.input_words_raw(pixels, images_in, resident_images)
                + input_jobs * self.dma_overhead_cycles)

    @staticmethod
    def compute_cycles_raw(pixels: int) -> int:
        """Processing cycles of the whole frame at the startpipeline's
        PLC retirement rate (two pixels per cycle)."""
        return -(-pixels // PLC_TICKS_PER_CYCLE)

    def readback_cycles_raw(self, pixels: int, produces_image: bool) -> int:
        """Result-phase cycles: readback payload plus its DMA job."""
        return (self.readback_words_raw(pixels, produces_image)
                + self.dma_overhead_cycles)

    def serial_call_cycles_raw(self, pixels: int, strips: int,
                               images_in: int, produces_image: bool,
                               requires_full_frames: bool = False,
                               resident_images: int = 0) -> int:
        """The no-overlap (sum) model: every strip first transfers, then
        processes -- transfer + compute + readback, nothing hidden.

        This is what a single-buffered Image Level Controller would
        cost; the paper's block_A/block_B alternation exists precisely
        to beat it (:meth:`overlapped_call_cycles_raw`).
        """
        return (self.transfer_cycles_raw(pixels, strips, images_in,
                                         resident_images)
                + self.compute_cycles_raw(pixels)
                + self.readback_cycles_raw(pixels, produces_image))

    def overlapped_call_cycles_raw(self, pixels: int, strips: int,
                                   images_in: int, produces_image: bool,
                                   requires_full_frames: bool = False,
                                   resident_images: int = 0) -> float:
        """The double-buffered pipeline: while block_A processes strip
        ``k``, block_B receives strip ``k+1``, so the steady state pays
        ``max(transfer, compute)`` per strip instead of their sum:

        ``t + (n - 1) * max(t, c) + c + readback``

        with per-strip transfer ``t`` and compute ``c`` over ``n``
        strips.  Special inter calls (``requires_full_frames``) get no
        credit: processing may only start once both images are fully
        resident, which is exactly the serial sum.  Never exceeds
        :meth:`serial_call_cycles_raw`.
        """
        transfer = self.transfer_cycles_raw(pixels, strips, images_in,
                                            resident_images)
        compute = self.compute_cycles_raw(pixels)
        readback = self.readback_cycles_raw(pixels, produces_image)
        if requires_full_frames:
            return float(transfer + compute + readback)
        n = max(strips, 1)
        t = transfer / n
        c = compute / n
        return t + (n - 1) * max(t, c) + c + readback

    def overlap_efficiency_raw(self, pixels: int, strips: int,
                               images_in: int, produces_image: bool,
                               requires_full_frames: bool = False,
                               resident_images: int = 0) -> float:
        """Fraction of the serial (sum) time the pipeline hides:
        ``1 - overlapped / serial``, in ``[0, 1)``."""
        serial = self.serial_call_cycles_raw(
            pixels, strips, images_in, produces_image,
            requires_full_frames, resident_images)
        if serial <= 0:
            return 0.0
        overlapped = self.overlapped_call_cycles_raw(
            pixels, strips, images_in, produces_image,
            requires_full_frames, resident_images)
        return 1.0 - overlapped / serial

    def serial_call_seconds_raw(self, pixels: int, strips: int,
                                images_in: int, produces_image: bool,
                                requires_full_frames: bool = False,
                                resident_images: int = 0) -> float:
        """Host-visible call time under the no-overlap (sum) model."""
        cycles = self.serial_call_cycles_raw(
            pixels, strips, images_in, produces_image,
            requires_full_frames, resident_images)
        return (cycles / self.clock_hz
                + self.host_overhead_seconds_raw(strips, images_in,
                                                 resident_images))

    def overlapped_call_seconds_raw(self, pixels: int, strips: int,
                                    images_in: int, produces_image: bool,
                                    requires_full_frames: bool = False,
                                    resident_images: int = 0) -> float:
        """Host-visible call time under the double-buffered pipeline."""
        cycles = self.overlapped_call_cycles_raw(
            pixels, strips, images_in, produces_image,
            requires_full_frames, resident_images)
        return (cycles / self.clock_hz
                + self.host_overhead_seconds_raw(strips, images_in,
                                                 resident_images))

    # -- section 4.1 claims ---------------------------------------------------

    def input_transfer_cycles(self, config: EngineConfig) -> int:
        """Cycles spent shipping the input images to the board."""
        return (self.input_words(config)
                + config.images_in * config.fmt.strips
                * self.dma_overhead_cycles)

    def non_pci_fraction(self, config: EngineConfig) -> float:
        """Non-transfer time relative to the input transfer time -- the
        paper's "time wasted not due to the PCI transferences"."""
        return (self.unhidden_processing_cycles(config)
                / self.input_transfer_cycles(config))

    def zbt_bank_bytes_per_second(self) -> float:
        """Per-bank ZBT throughput at the design clock: one 32-bit word
        per cycle = 264 MB/s at 66 MHz (the section 4.1 figure)."""
        return self.clock_hz * 4
