"""The Pixel Level Controller: the processor's controlpath.

Paper section 3.2/3.4: the PLC is composed of four modules --

* the **control FSM** "generates the set of instructions to be performed
  in every pixel-cycle" (here: the bundle of SCAN / LOAD-or-SHIFT / OP /
  STORE instructions);
* the **instructions FSM** "can request and lock the resources in the
  Process Unit and generate the signals that steer" them (here: executing
  each in-flight instruction against the datapath, claiming its resource);
* the **arbiter** "makes sure that the instructions in the different
  stages will not access the same resources" (here: a per-cycle claim
  table that raises on conflicts);
* the **startpipeline** "deals with the correct order of the execution of
  the instructions allowing us also to have instructions of different
  pixel-cycles in the different stages of the Process Unit" (here: the
  in-order four-slot pipeline with hazard stalls).

The image level controller can disable the PLC (section 3.3) when the IIM
has no data or the OIM has no space; the PLC then "will not proceed with
any more pixel-cycles until this signal is enabled again".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .instructions import InstructionKind
from .process_unit import PixelBundle, ProcessUnit, ResultPixel

#: Fast-path boundary classes (:meth:`PixelLevelController.fast_mode`).
PLC_DONE = "done"
PLC_FLOW = "flow"
PLC_FROZEN_IIM = "frozen_iim"
PLC_FROZEN_DISABLED = "frozen_disabled"
PLC_IRREGULAR = "irregular"


class ArbiterConflict(RuntimeError):
    """Two same-cycle instructions claimed one Process Unit resource."""


class Arbiter:
    """Per-cycle resource claim table for the Process Unit."""

    def __init__(self) -> None:
        self._claims: Dict[str, str] = {}
        self.total_claims = 0

    def begin_cycle(self) -> None:
        self._claims.clear()

    def claim(self, resource: str, owner: str) -> None:
        """Lock ``resource`` for ``owner`` this cycle; conflicts raise."""
        if resource in self._claims:
            raise ArbiterConflict(
                f"resource {resource!r} claimed by {owner} while held by "
                f"{self._claims[resource]}")
        self._claims[resource] = owner
        self.total_claims += 1


@dataclass
class _Stage1State:
    pixel_cycle: int
    position: Tuple[int, int]
    row_start: bool


@dataclass
class _Stage3State:
    bundle: PixelBundle
    cycles_remaining: int


@dataclass
class PlcStats:
    """Stall and progress accounting of one call."""

    cycles: int = 0
    active_cycles: int = 0
    issued_pixel_cycles: int = 0
    retired_pixel_cycles: int = 0
    stall_iim_wait: int = 0
    stall_oim_full: int = 0
    stall_op_busy: int = 0
    stall_disabled: int = 0
    loads: int = 0
    shifts: int = 0


class PixelLevelController:
    """Drives the four-stage Process Unit, one clock per :meth:`tick`."""

    def __init__(self, process_unit: ProcessUnit) -> None:
        self.pu = process_unit
        self.arbiter = Arbiter()
        self.stats = PlcStats()
        #: Enable signal from the image level controller.
        self.enabled = True
        self._s1: Optional[_Stage1State] = None
        self._s2: Optional[_Stage1State] = None
        self._s3: Optional[_Stage3State] = None
        self._s4: Optional[ResultPixel] = None
        self._s4_is_reduce_retire = False
        self._issued = 0

    # -- status ---------------------------------------------------------------

    @property
    def done(self) -> bool:
        """All pixel-cycles issued and drained."""
        return (self.pu.scan.exhausted
                and self._s1 is None and self._s2 is None
                and self._s3 is None and self._s4 is None)

    def stage_occupancy(self) -> Tuple[bool, bool, bool, bool]:
        """Which of the four stages holds an in-flight pixel-cycle."""
        return (self._s1 is not None, self._s2 is not None,
                self._s3 is not None,
                self._s4 is not None or self._s4_is_reduce_retire)

    # -- batched (fast-path) behaviour ----------------------------------------

    @property
    def fast_flow_rate(self) -> int:
        """Pixel-cycles issued/fetched/retired per *engine cycle* (two
        ticks) in the steady FLOW regime: 2 for single-cycle operations,
        1 for two-cycle operations (the stage-3 countdown halves the
        throughput).  Only meaningful for ``engine_cycles <= 2``."""
        return 2 if self.pu.config.op.engine_cycles == 1 else 1

    def fast_mode(self) -> str:
        """Classify the pipeline state at an engine-cycle boundary.

        The fast path may batch-advance only the recognised steady
        signatures; anything else (warm-up, drain, mixed stalls, OIM
        back-pressure) returns :data:`PLC_IRREGULAR` and is simulated
        cycle by cycle.  The signatures below are exactly the states the
        per-cycle :meth:`tick` reproduces after each full engine cycle of
        the corresponding regime, hand-traced for ``engine_cycles`` 1 and
        2 -- which is what makes the batched counter updates exact.
        """
        if self.done:
            return PLC_DONE
        s1, s2, s3, s4 = self._s1, self._s2, self._s3, self._s4
        flag = self._s4_is_reduce_retire
        if (self.enabled and s1 is not None and s2 is not None
                and s3 is not None and s3.cycles_remaining == 1
                and s2.pixel_cycle == s1.pixel_cycle - 1
                and s3.bundle.pixel_cycle == s1.pixel_cycle - 2):
            cycles = self.pu.config.op.engine_cycles
            if cycles == 1:
                if self.pu.config.reduce_to_scalar:
                    if s4 is None and flag:
                        return PLC_FLOW
                elif s4 is not None and not flag \
                        and s4.pixel_cycle == s1.pixel_cycle - 3:
                    return PLC_FLOW
            elif cycles == 2 and s4 is None and not flag:
                return PLC_FLOW
        if s3 is None and s4 is None and not flag:
            if (s2 is not None and not self.pu.stage2_ready(s2.position)
                    and (s1 is not None or self.pu.scan.exhausted)):
                return PLC_FROZEN_IIM
            if (s1 is None and s2 is None and not self.enabled
                    and not self.pu.scan.exhausted):
                return PLC_FROZEN_DISABLED
        return PLC_IRREGULAR

    def fast_advance_frozen(self, cycles: int, mode: str,
                            ticks_per_cycle: int) -> None:
        """Account ``cycles`` engine cycles of a frozen regime.

        Frozen pipelines make no progress: every tick lands on the same
        stall counter (stage 2's IIM wait, or stage 1's disable stall),
        exactly as ``ticks_per_cycle`` calls to :meth:`tick` would.
        """
        ticks = cycles * ticks_per_cycle
        self.stats.cycles += ticks
        if mode == PLC_FROZEN_IIM:
            self.stats.stall_iim_wait += ticks
        elif mode == PLC_FROZEN_DISABLED:
            self.stats.stall_disabled += ticks
        else:
            raise ValueError(f"not a frozen mode: {mode}")

    # -- one clock ------------------------------------------------------------

    def tick(self) -> None:
        """Advance the pipeline one engine clock (stages drain back-first)."""
        self.arbiter.begin_cycle()
        self.stats.cycles += 1
        progressed = False

        # Stage 4: store the result pixel into the OIM.
        if self._s4_is_reduce_retire:
            self._s4_is_reduce_retire = False
            self.stats.retired_pixel_cycles += 1
            progressed = True
        elif self._s4 is not None:
            if self.pu.oim.full:
                self.stats.stall_oim_full += 1
            else:
                self.arbiter.claim("oim_port", f"STORE#{self._s4.pixel_cycle}")
                self.pu.stage4_store(self._s4)
                self._s4 = None
                self.stats.retired_pixel_cycles += 1
                progressed = True

        # Stage 3: execute the pixel operation (may take several cycles).
        if self._s3 is not None:
            state = self._s3
            if state.cycles_remaining > 1:
                state.cycles_remaining -= 1
                self.stats.stall_op_busy += 1
            elif self._s4 is None and not self._s4_is_reduce_retire:
                self.arbiter.claim("alu", f"OP#{state.bundle.pixel_cycle}")
                result = self.pu.stage3_execute(state.bundle)
                if result is None:
                    self._s4_is_reduce_retire = True
                else:
                    self._s4 = result
                self._s3 = None
                progressed = True

        # Stage 2: fetch the neighbourhood into the matrix register.
        if self._s2 is not None and self._s3 is None:
            pending = self._s2
            if not self.pu.stage2_ready(pending.position):
                self.stats.stall_iim_wait += 1
            else:
                kind = (InstructionKind.LOAD if pending.row_start
                        else InstructionKind.SHIFT)
                self.arbiter.claim("iim_port",
                                   f"{kind.name}#{pending.pixel_cycle}")
                bundle = self.pu.stage2_fetch(pending.pixel_cycle,
                                              pending.position,
                                              pending.row_start)
                if pending.row_start:
                    self.stats.loads += 1
                else:
                    self.stats.shifts += 1
                self._s3 = _Stage3State(
                    bundle=bundle,
                    cycles_remaining=self.pu.config.op.engine_cycles)
                self._s2 = None
                progressed = True

        # Stage 1 -> stage 2 handoff.
        if self._s1 is not None and self._s2 is None:
            self._s2 = self._s1
            self._s1 = None
            progressed = True

        # Stage 1: issue the next pixel-cycle (needs the enable signal).
        if self._s1 is None and not self.pu.scan.exhausted:
            if not self.enabled:
                self.stats.stall_disabled += 1
            else:
                self.arbiter.claim("position_counters",
                                   f"SCAN#{self._issued}")
                position, row_start = self.pu.scan.advance()
                self._s1 = _Stage1State(pixel_cycle=self._issued,
                                        position=position,
                                        row_start=row_start)
                self._issued += 1
                self.stats.issued_pixel_cycles += 1
                progressed = True

        if progressed:
            self.stats.active_cycles += 1
