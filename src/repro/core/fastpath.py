"""Batched fast-path stepper for the AddressEngine cycle model.

The per-cycle loop in :mod:`repro.core.engine` pays one Python iteration
per 66 MHz bus cycle, which makes full-length sequences impractically
slow.  This module exploits the property that makes a closed-form skip
safe: the engine's *control* trajectory is data-independent.  Pixel
values never influence an arbitration decision -- only counters do (DMA
word counts, strip arrivals, FIFO occupancies, the scan position).  So
between two control events every component advances uniformly, and a run
of ``n`` cycles can be applied as one closed-form counter update plus one
vectorized data movement.

The stepper alternates two moves:

* **batched window** -- ask every component for its event horizon ("how
  many cycles until your behaviour can change?"), take the minimum, and
  advance all components by that many cycles at once;
* **bridge cycle** -- when any component is within :data:`MIN_BATCH`
  cycles of an event (a strip arrival, a stall boundary, a pipeline
  warm-up, the last word of a DMA job), run one real engine cycle through
  the exact per-cycle code so interrupts, callbacks and arbitration
  decisions execute unchanged.

Because every window is cut *before* the next arbitration decision and
bridges run the real code, the fast path is cycle-exact: completion
cycles, every stall counter, per-bank ZBT access counts and the data
itself are identical to the per-cycle loop (enforced by the property
harness in ``tests/integration/test_fastpath_equivalence.py``).

Regimes the planner refuses to batch fall back to per-cycle stepping
automatically (every ``0`` horizon is a bridge): pipeline warm-up and
drain, operations with stage-3 latency above two cycles, single-strip
frames, the readback-chases-producer port contention on the result bank,
and the OIM-full throttle.  See ``docs/MODEL.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..addresslib.addressing import AddressingMode
from ..addresslib.executor import VectorExecutor, channels_of
from ..image.frame import Frame
from .config import EngineConfig
from .errors import EngineDeadlock, deadlock_message
from .iim import InputIntermediateMemory
from .image_controller import ImageLevelController
from .oim import OutputIntermediateMemory
from .pci import PCIBus
from .plc import (PLC_FLOW, PLC_FROZEN_DISABLED, PLC_FROZEN_IIM,
                  PLC_IRREGULAR, PixelLevelController, _Stage1State,
                  _Stage3State)
from .process_unit import PixelBundle, ProcessUnit, ResultPixel, _extract
from .txu import (TXU_FIFO_FULL, TXU_MOVING, TXU_NO_STRIP,
                  InputTransmissionUnit, OutputTransmissionUnit)
from .zbt import ZBTMemory

__all__ = ["EngineDeadlock", "FastStepper", "deadlock_message",
           "tick_engine_cycle"]

_INF = 1 << 60


def tick_engine_cycle(cycle: int, zbt: ZBTMemory, pci: PCIBus,
                      input_txus: List[InputTransmissionUnit],
                      ilc: ImageLevelController,
                      plc: PixelLevelController,
                      output_txu: Optional[OutputTransmissionUnit],
                      plc_ticks_per_cycle: int,
                      input_txu_ticks_per_cycle: int) -> None:
    """One real engine cycle -- the single source of truth for per-cycle
    order, shared by the per-cycle loop and the fast path's bridges."""
    zbt.begin_cycle()
    pci.tick(cycle)
    for _ in range(input_txu_ticks_per_cycle):
        for txu in input_txus:
            txu.tick()
    ilc.control(cycle)
    for _ in range(plc_ticks_per_cycle):
        if not plc.done:
            plc.tick()
    if output_txu is not None:
        output_txu.tick()


class FastStepper:
    """Strip-level batched stepper over one call's component set.

    Precomputes the functional result once (the vector executor is the
    same golden model the tests check against), then advances the
    components in uniform windows, bridging every arbitration boundary
    through :func:`tick_engine_cycle`.
    """

    #: Windows shorter than this are simulated per-cycle instead: below
    #: a few cycles the planning overhead exceeds the batching gain.
    MIN_BATCH = 4

    def __init__(self, config: EngineConfig, frames: List[Frame],
                 zbt: ZBTMemory, pci: PCIBus,
                 iim: InputIntermediateMemory,
                 oim: OutputIntermediateMemory, pu: ProcessUnit,
                 plc: PixelLevelController,
                 input_txus: List[InputTransmissionUnit],
                 output_txu: Optional[OutputTransmissionUnit],
                 ilc: ImageLevelController,
                 plc_ticks_per_cycle: int,
                 input_txu_ticks_per_cycle: int) -> None:
        self.config = config
        self.zbt = zbt
        self.pci = pci
        self.iim = iim
        self.oim = oim
        self.pu = pu
        self.plc = plc
        self.input_txus = input_txus
        self.output_txu = output_txu
        self.ilc = ilc
        self.plc_ticks_per_cycle = plc_ticks_per_cycle
        self.input_txu_ticks_per_cycle = input_txu_ticks_per_cycle

        fmt = config.fmt
        self.W = fmt.width
        self.H = fmt.height
        self.P = fmt.pixels
        self.words = ilc.input_words
        self.u = plc.fast_flow_rate
        self.produce = config.produces_image
        self.intra = config.mode is AddressingMode.INTRA
        self.channels = channels_of(config.channels)
        if self.intra:
            neighbourhood = config.op.neighbourhood
            self.offsets = neighbourhood.offsets
            self.fresh = neighbourhood.fresh_offsets(config.scan)
            _, self.min_dy, _, self.max_dy = neighbourhood.bounding_box()
        else:
            self.offsets = ((0, 0),)
            self.fresh = ((0, 0),)
            self.min_dy = 0
            self.max_dy = 0
        self._precompute_result(frames)
        # Per-window plans (set by _plan_window, consumed by _advance).
        self._pci_mode = "idle"
        self._plc_mode = PLC_IRREGULAR
        self._txu_plans: List[Tuple[str, int]] = []
        self._out_mode = "none"

    # -- precomputation -------------------------------------------------------

    def _precompute_result(self, frames: List[Frame]) -> None:
        """The result stream is data, not control: compute it once with
        the vectorized golden model, then feed the per-window batches
        (OIM pushes, result-bank writes, the reduce accumulator) from it.
        """
        config = self.config
        if config.reduce_to_scalar:
            contribution = np.zeros((self.H, self.W), dtype=np.int64)
            for channel in self.channels:
                values = config.op.apply_vector(
                    frames[0].read_plane(channel),
                    frames[1].read_plane(channel))
                contribution += values.astype(np.int64)
            self.reduce_cum = np.concatenate(
                (np.zeros(1, dtype=np.int64),
                 np.cumsum(contribution.reshape(-1))))
            self.res_lower = self.res_upper = None
            self.oim_pixels: Optional[List[Tuple[int, int, int]]] = None
            return
        if config.mode is AddressingMode.INTER:
            result = VectorExecutor.inter(config.op, frames[0], frames[1],
                                          config.channels)
        else:
            result = VectorExecutor.intra(config.op, frames[0],
                                          config.channels)
        lower2d, upper2d = result.to_words()
        self.res_lower = lower2d.reshape(-1)
        self.res_upper = upper2d.reshape(-1)
        self.oim_pixels = list(zip(range(self.P), self.res_lower.tolist(),
                                   self.res_upper.tolist()))
        self.reduce_cum = None

    # -- main loop ------------------------------------------------------------

    def run(self, max_cycles: int) -> int:
        """Advance until the call completes; returns the elapsed cycles
        (identical to the per-cycle loop's count)."""
        ilc = self.ilc
        cycle = 0
        while ilc.completion_cycle is None:
            if cycle >= max_cycles:
                raise EngineDeadlock(deadlock_message(
                    max_cycles, self.config, ilc, self.plc, self.pci,
                    self.input_txus))
            window = self._plan_window(max_cycles - cycle)
            if window >= self.MIN_BATCH:
                self._advance(window)
                cycle += window
            else:
                tick_engine_cycle(cycle, self.zbt, self.pci,
                                  self.input_txus, ilc, self.plc,
                                  self.output_txu, self.plc_ticks_per_cycle,
                                  self.input_txu_ticks_per_cycle)
                cycle += 1
        return cycle

    # -- window planning ------------------------------------------------------

    def _plan_window(self, budget: int) -> int:
        """Joint event horizon: the largest ``n`` for which every
        component provably repeats this cycle's behaviour ``n`` times.
        Returns 0 to request a bridge cycle."""
        ilc, plc, pci = self.ilc, self.plc, self.pci
        # ILC control events run only in bridge cycles: readback start
        # and the completion interrupt must go through real control.
        if ilc.input_complete and not ilc.readback_started:
            return 0
        # A disable without a sustaining cause (the transient OIM-full
        # throttle) is re-evaluated by control every cycle.
        if not plc.enabled and not (self.config.requires_full_frames
                                    and not ilc.input_complete):
            return 0
        caps = [budget]

        job = pci.activate_next_job()
        if job is None:
            self._pci_mode = "idle"
        elif job.overhead_remaining > 0:
            self._pci_mode = "overhead"
            caps.append(job.overhead_remaining)
        elif job.to_board:
            self._pci_mode = "words"
            horizon = job.total_words - job.words_done - 1
            if horizon <= 0:
                return 0
            caps.append(horizon)
        else:
            state, horizon = ilc.fast_readback_horizon()
            if state == "bridge":
                return 0
            self._pci_mode = "readback_" + state
            caps.append(horizon)
        input_dma_banks = job.banks if self._pci_mode == "words" else None

        self._txu_plans = []
        for txu in self.input_txus:
            contended = (input_dma_banks is not None and not txu.done
                         and input_dma_banks == txu.current_banks)
            state, horizon, rate = txu.fast_plan(contended)
            if state == TXU_MOVING and horizon <= 0:
                return 0
            self._txu_plans.append((state, rate))
            caps.append(horizon)

        mode = plc.fast_mode()
        self._plc_mode = mode
        if mode == PLC_IRREGULAR:
            return 0
        if mode == PLC_FLOW:
            horizon = self._plan_flow()
            if horizon <= 0:
                return 0
            caps.append(horizon)
        elif mode == PLC_FROZEN_IIM:
            horizon = self._plan_frozen_iim()
            if horizon <= 0:
                return 0
            caps.append(horizon)
        # PLC_DONE / PLC_FROZEN_DISABLED impose no PLC-side bound: the
        # events that end them (input completion, scan restart) are
        # bridged via other horizons.

        output_txu = self.output_txu
        if output_txu is None:
            self._out_mode = "none"
        else:
            pushes = self.u if (mode == PLC_FLOW and self.produce) else 0
            occupancy = self.oim.occupancy
            if occupancy == 0 and pushes == 0:
                self._out_mode = "empty"
            else:
                self._out_mode = "drain"
                if pushes == 0:
                    # Pure drain: one pop per cycle until the OIM dries.
                    caps.append(occupancy)

        window = min(caps)
        return window if window >= self.MIN_BATCH else 0

    def _plan_flow(self) -> int:
        """Horizon of the PLC's steady FLOW: bounded by the scan, by the
        lines currently resident in the IIM (no credit for lines arriving
        mid-window -- conservative keeps it exact), by the next
        line-releasing row-start fetch when a FIFO is full, and by the
        OIM headroom."""
        plc = self.plc
        u, W = self.u, self.W
        i1 = plc._s1.pixel_cycle
        f0 = i1 - 1  # next pixel-cycle stage 2 fetches
        caps = [(self.P - 1 - i1) // u]
        row = f0 // W
        if self.intra:
            resident = self.iim.fifo(0).resident_range()
            if resident is None:
                return 0
            low, high = resident
            if max(row + self.min_dy, 0) < low:
                return 0
            if high >= self.H - 1:
                y_max = self.H - 1
            else:
                y_max = min(self.H - 1, high - self.max_dy)
        else:
            y_max = self.H - 1
            for fifo in self.iim.fifos:
                resident = fifo.resident_range()
                if resident is None:
                    return 0
                low, high = resident
                if row < low:
                    return 0
                y_max = min(y_max, high)
        fetchable = (y_max + 1) * W - f0
        if fetchable < u:
            return 0
        caps.append(fetchable // u)
        if any(state == TXU_FIFO_FULL for state, _ in self._txu_plans):
            # A row-start fetch releases IIM lines and would unfreeze the
            # stalled transmission unit mid-window; stop short of it.
            if f0 % W == 0:
                return 0
            caps.append(((row + 1) * W - f0) // u)
        if self.produce:
            headroom = self.oim.capacity_pixels - self.oim.occupancy
            if u > 1:
                # Intra-cycle peak: occ + u + (n-1)(u-1) must stay within
                # capacity (pushes land before the same cycle's pop).
                caps.append((headroom - u) // (u - 1) + 1)
            elif headroom < 1:
                return 0
        return min(caps)

    def _plan_frozen_iim(self) -> int:
        """Horizon of a stage-2 data stall: one cycle short of the moment
        the co-flowing transmission unit completes the awaited line."""
        stalled = self.plc._s2
        assert stalled is not None
        y = stalled.position[1]
        ready_in = 0
        if self.intra:
            needed = min(y + self.max_dy, self.H - 1)
            ready_in = self._fifo_ready_cycles(0, needed)
        else:
            for image in range(len(self.input_txus)):
                ready_in = max(ready_in, self._fifo_ready_cycles(image, y))
        if ready_in <= 0:
            return 0
        return ready_in - 1 if ready_in < _INF else _INF

    def _fifo_ready_cycles(self, image: int, needed_line: int) -> int:
        fifo = self.iim.fifo(image)
        resident = fifo.resident_range()
        if resident is not None and resident[1] >= needed_line:
            return 0  # already resident: the stall must end next cycle
        state, rate = self._txu_plans[image]
        if state != TXU_MOVING:
            # The unit is stalled too; whatever unfreezes it (a strip
            # arrival) is a bridged event, so no bound from here.
            return _INF
        pixels = self.input_txus[image].pixels_until_line_complete(
            needed_line)
        if pixels <= 0:
            return 0
        return -(-pixels // rate)

    # -- window application ---------------------------------------------------

    def _advance(self, cycles: int) -> None:
        """Apply one planned window: every component advances ``cycles``
        cycles of its planned uniform behaviour in one batch."""
        had_access = False
        pci_mode = self._pci_mode
        if pci_mode == "idle":
            self.pci.fast_advance_idle(cycles)
        elif pci_mode == "overhead":
            self.pci.fast_advance_overhead(cycles)
        elif pci_mode in ("words", "readback_words"):
            self.pci.fast_advance_words(cycles)
            had_access = True
        else:  # readback_stalled: the scalar result is not retired yet
            self.pci.fast_advance_stalled(cycles)

        for txu, (state, rate) in zip(self.input_txus, self._txu_plans):
            if state == TXU_MOVING:
                lower, upper = self.words[txu.image]
                txu.fast_advance_moving(cycles, rate, lower, upper)
                had_access = True
            elif state in (TXU_NO_STRIP, TXU_FIFO_FULL):
                txu.fast_advance_stalled(cycles, state,
                                         self.input_txu_ticks_per_cycle)

        if self._plc_mode == PLC_FLOW:
            self._advance_flow(cycles)
        elif self._plc_mode in (PLC_FROZEN_IIM, PLC_FROZEN_DISABLED):
            self.plc.fast_advance_frozen(cycles, self._plc_mode,
                                         self.plc_ticks_per_cycle)

        if self._out_mode == "drain":
            self.output_txu.fast_advance_draining(cycles, self.res_lower,
                                                  self.res_upper)
            had_access = True
        elif self._out_mode == "empty":
            self.output_txu.fast_advance_empty(cycles)

        if had_access:
            self.zbt.count_access_cycles(cycles)

    def _advance_flow(self, cycles: int) -> None:
        """``cycles`` engine cycles of steady FLOW in closed form.

        Per cycle the pipeline issues/fetches/executes/retires ``u``
        pixel-cycles (2 for one-cycle ops, 1 for two-cycle ops), so the
        window moves ``k = u * cycles`` consecutive pixel-cycles through
        every stage; the stage registers are re-materialized at the
        window's final positions.
        """
        plc, pu = self.plc, self.pu
        u, W = self.u, self.W
        i1 = plc._s1.pixel_cycle
        k = u * cycles
        f0 = i1 - 1
        f_end = f0 + k
        stats = plc.stats
        ticks = cycles * self.plc_ticks_per_cycle
        stats.cycles += ticks
        stats.active_cycles += ticks
        stats.issued_pixel_cycles += k
        stats.retired_pixel_cycles += k
        if u == 1:
            # Two-cycle ops burn one tick per cycle in the stage-3
            # countdown.
            stats.stall_op_busy += cycles
        rows_started = (f_end - 1) // W - (f0 - 1) // W
        stats.loads += rows_started
        stats.shifts += k - rows_started
        matrix = pu.matrix
        matrix.load_count += rows_started
        matrix.shift_count += k - rows_started
        matrix.pixels_fetched += (rows_started * len(self.offsets)
                                  + (k - rows_started) * len(self.fresh))
        pu.ops_executed += k
        if self.produce:
            pu.results_stored += k
            first_retired = i1 - 3 if u == 2 else i1 - 2
            peak = self.oim.occupancy + u + (u - 1) * (cycles - 1)
            self.oim.fast_push(
                self.oim_pixels[first_retired:first_retired + k], peak)
        else:
            e0 = i1 - 2
            pu.reduce_accumulator += int(self.reduce_cum[e0 + k]
                                         - self.reduce_cum[e0])
        last_row = (f_end - 1) // W
        if last_row * W >= f0:
            # At least one row-start fetch happened: retire the lines the
            # scan can no longer touch (cumulative, so one call covers
            # every row start crossed in-window).
            if self.intra:
                last_dead = last_row + self.min_dy - 1
            else:
                last_dead = last_row - 1
            if last_dead >= 0:
                for fifo in self.iim.fifos:
                    fifo.release_through(last_dead)
        pu.scan._index = i1 + k + 1
        plc._issued = i1 + k + 1
        self._materialize_stages(i1 + k)

    def _materialize_stages(self, issue_head: int) -> None:
        """Rebuild the PLC stage registers exactly as ``k`` per-cycle
        steps would have left them, so the next bridge cycle runs real
        code from a truthful state."""
        plc = self.plc
        W = self.W
        plc._s1 = self._stage1_state(issue_head)
        plc._s2 = self._stage1_state(issue_head - 1)
        bundle, slots = self._make_bundle(issue_head - 2)
        plc._s3 = _Stage3State(bundle=bundle, cycles_remaining=1)
        self.pu.matrix._slots = slots
        if self.u == 2 and self.produce:
            index = issue_head - 3
            plc._s4 = ResultPixel(pixel_cycle=index,
                                  position=(index % W, index // W),
                                  lower=int(self.res_lower[index]),
                                  upper=int(self.res_upper[index]))
            plc._s4_is_reduce_retire = False
        elif self.u == 2:
            plc._s4 = None
            plc._s4_is_reduce_retire = True
        else:
            plc._s4 = None
            plc._s4_is_reduce_retire = False

    def _stage1_state(self, index: int) -> _Stage1State:
        x, y = index % self.W, index // self.W
        return _Stage1State(pixel_cycle=index, position=(x, y),
                            row_start=(x == 0))

    def _make_bundle(self, index: int
                     ) -> Tuple[PixelBundle,
                                Dict[Tuple[int, int], Tuple[int, int]]]:
        """The stage-2 output for pixel-cycle ``index``, built from the
        input word planes (the same values the IIM holds), plus the
        matrix-register slots at that scan position."""
        W, H = self.W, self.H
        x, y = index % W, index // W
        lower0, upper0 = self.words[0]
        if self.intra:
            slots = {}
            for offset in self.offsets:
                cx = min(max(x + offset[0], 0), W - 1)
                cy = min(max(y + offset[1], 0), H - 1)
                slots[offset] = (int(lower0[cy, cx]), int(upper0[cy, cx]))
            values = {channel: [_extract(slots[offset], channel)
                                for offset in self.offsets]
                      for channel in self.channels}
            bundle = PixelBundle(pixel_cycle=index, position=(x, y),
                                 center_words=slots[(0, 0)], values=values)
            return bundle, slots
        lower1, upper1 = self.words[1]
        words_a = (int(lower0[y, x]), int(upper0[y, x]))
        words_b = (int(lower1[y, x]), int(upper1[y, x]))
        values = {channel: [_extract(words_a, channel)]
                  for channel in self.channels}
        inter_b = {channel: _extract(words_b, channel)
                   for channel in self.channels}
        bundle = PixelBundle(pixel_cycle=index, position=(x, y),
                             center_words=words_a, values=values,
                             inter_b=inter_b)
        return bundle, {(0, 0): words_a}
