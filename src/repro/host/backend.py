"""The AddressLib backend that offloads calls to the AddressEngine.

Swapping :class:`EngineBackend` for the default software backend is the
paper's deployment model: the application's top level stays untouched on
the host, and every AddressLib inter/intra call crosses the PCI bus to
the board.  Segment and segment-indexed addressing are not offloaded (v1
hardware limitation), so :class:`~repro.addresslib.library.AddressLib`
routes those to its software fallback automatically.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..addresslib.addressing import AddressingMode
from ..addresslib.executor import VectorExecutor
from ..addresslib.library import (Backend, BatchCall, CallRecord,
                                  RecordedResult)
from ..addresslib.ops import ChannelSet, InterOp, IntraOp
from ..core.config import EngineConfig, inter_config, intra_config
from ..image.frame import Frame
from .driver import AddressEngineDriver, FrameResidencyCache


class EngineBackend(Backend):
    """Executes inter/intra AddressLib calls on the coprocessor model.

    With ``chain_frames=True`` the backend exploits the on-board memory
    between calls: an input that is still resident in its ZBT banks from
    the previous call ships no PCI transfer, and the previous call's
    *result* can be reused as an input for a cheap on-board copy instead
    of a round trip through the host.  (The paper keeps the images on
    the board per call only; chaining is the natural extension its
    "replace the PCI with an on-chip bus" outlook gestures at.)

    Calls run in waves of one configuration (a single call is a wave of
    one): the functional results come from one batched
    :meth:`~repro.addresslib.executor.VectorExecutor.wave` pass, then
    each call is booked in order -- residency plan, driver books,
    residency update, record -- exactly as serial submission books it.
    A simulating driver runs each call through the cycle-level model
    instead.
    """

    name = "address_engine"
    can_record_batches = True

    def __init__(self, driver: Optional[AddressEngineDriver] = None,
                 chain_frames: bool = False,
                 residency_max_age: Optional[int] = None) -> None:
        self.driver = driver or AddressEngineDriver()
        self.chain_frames = chain_frames
        #: On-board state between calls (strong-referenced frames).
        self.residency = FrameResidencyCache(max_age=residency_max_age)

    def supports(self, mode: AddressingMode) -> bool:
        return mode.engine_supported_v1

    # -- residency tracking ---------------------------------------------------

    def _residency(self, config: EngineConfig, frames: Sequence[Frame]
                   ) -> Tuple[List[bool], int]:
        """Which inputs are already on the board, and the copy cost of
        reusing the previous result as an input (the cycle model has no
        result-to-input mover, so a simulating driver ships instead)."""
        if not self.chain_frames:
            return [False] * len(frames), 0
        return self.residency.plan(config, frames,
                                   result_reuse=not self.driver.simulate)

    def _after_call(self, config: EngineConfig, frames: Sequence[Frame],
                    result_frame: Optional[Frame]) -> None:
        if not self.chain_frames:
            return
        self.residency.record_call(config, frames, result_frame)

    # -- call execution -------------------------------------------------------

    def run_wave(self, calls: Sequence[BatchCall]) -> List[RecordedResult]:
        return self._run(self._config_for(calls[0]),
                         [call.frames for call in calls])

    def inter(self, op: InterOp, frame_a: Frame, frame_b: Frame,
              channels: ChannelSet) -> Tuple[Frame, CallRecord]:
        config = inter_config(op, frame_a.format, channels)
        result, record = self._run(config, [(frame_a, frame_b)])[0]
        assert isinstance(result, Frame)
        return result, record

    def intra(self, op: IntraOp, frame: Frame,
              channels: ChannelSet) -> Tuple[Frame, CallRecord]:
        config = intra_config(op, frame.format, channels)
        result, record = self._run(config, [(frame,)])[0]
        assert isinstance(result, Frame)
        return result, record

    def inter_reduce(self, op: InterOp, frame_a: Frame, frame_b: Frame,
                     channels: ChannelSet) -> Tuple[int, CallRecord]:
        config = inter_config(op, frame_a.format, channels,
                              reduce_to_scalar=True)
        result, record = self._run(config, [(frame_a, frame_b)])[0]
        assert isinstance(result, int)
        return result, record

    def _run(self, config: EngineConfig,
             inputs: Sequence[Sequence[Frame]]) -> List[RecordedResult]:
        """Execute calls of one configuration and book each in order."""
        if self.driver.simulate:
            return [self._simulate(config, frames) for frames in inputs]
        results = VectorExecutor.wave(config.op, inputs, config.channels,
                                      config.reduce_to_scalar)
        outcomes: List[RecordedResult] = []
        for frames, result in zip(inputs, results):
            resident, copy_cycles = self._residency(config, frames)
            price = self.driver.book_call(config, sum(resident),
                                          copy_cycles)
            self._after_call(config, frames,
                             result if isinstance(result, Frame) else None)
            record = self._base_record(config, price.call_seconds,
                                       price.board_seconds,
                                       price.pci_words)
            record.extra["resident_inputs"] = float(sum(resident))
            outcomes.append((result, record))
        return outcomes

    def _simulate(self, config: EngineConfig,
                  frames: Sequence[Frame]) -> RecordedResult:
        """One call through the driver's cycle-level model."""
        resident, copy_cycles = self._residency(config, frames)
        result = self.driver.submit(config, *frames, resident=resident,
                                    onboard_copy_cycles=copy_cycles)
        self._after_call(config, frames, result.frame)
        record = self._base_record(config, result.call_seconds,
                                   result.board_seconds, result.pci_words)
        assert result.run is not None
        record.extra["cycles"] = float(result.run.cycles)
        record.extra["zbt_pixel_ops"] = float(result.run.zbt_pixel_ops)
        record.extra["resident_inputs"] = float(sum(resident))
        value = result.frame if result.frame is not None else result.scalar
        assert value is not None
        return value, record

    # -- batched (scheduler-executed) calls -----------------------------------

    def begin_parallel_wave(self) -> None:
        """Concurrent calls leave the bank state undefined: drop it."""
        if self.chain_frames:
            self.residency.invalidate()

    def _config_for(self, call: BatchCall) -> EngineConfig:
        """The engine configuration a serial submission would build."""
        if call.mode is AddressingMode.INTER:
            assert isinstance(call.op, InterOp)
            return inter_config(call.op, call.fmt, call.channels,
                                reduce_to_scalar=call.reduce_to_scalar)
        assert isinstance(call.op, IntraOp)
        return intra_config(call.op, call.fmt, call.channels)

    def batch_record(self, call: BatchCall) -> CallRecord:
        """Price and book one scheduler-executed call.

        The functional result was computed in a worker; the driver books
        it as a serial :meth:`~AddressEngineDriver.submit` would -- the
        same pre-flight check, counters and price.  Batched calls never
        claim residency (the wave invalidated it).
        """
        config = self._config_for(call)
        price = self.driver.account_scheduled(config)
        record = self._base_record(
            config, price.call_seconds, price.board_seconds,
            price.pci_words)
        record.extra["resident_inputs"] = 0.0
        return record

    # -- accounting -----------------------------------------------------------

    @staticmethod
    def _base_record(config: EngineConfig, call_seconds: float,
                     board_seconds: float, pci_words: int) -> CallRecord:
        extra = {
            "call_seconds": call_seconds,
            "board_seconds": board_seconds,
            "pci_words": float(pci_words),
        }
        return CallRecord(
            mode=config.mode,
            op_name=config.op_name
            + ("+reduce" if config.reduce_to_scalar else ""),
            channels=config.channels, format_name=config.fmt.name,
            pixels=config.fmt.pixels, profile=None, extra=extra)
