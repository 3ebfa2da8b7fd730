"""The AddressLib backend that offloads calls to the AddressEngine.

Swapping :class:`EngineBackend` for the default software backend is the
paper's deployment model: the application's top level stays untouched on
the host, and every AddressLib inter/intra call crosses the PCI bus to
the board.  Segment and segment-indexed addressing are not offloaded (v1
hardware limitation), so :class:`~repro.addresslib.library.AddressLib`
routes those to its software fallback automatically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..addresslib.addressing import AddressingMode
from ..addresslib.executor import VectorExecutor
from ..addresslib.library import (Backend, BatchCall, CallRecord,
                                  RecordedResult)
from ..addresslib.ops import ChannelSet, InterOp, IntraOp
from ..core.config import EngineConfig, inter_config, intra_config
from ..image.frame import Frame
from .driver import AddressEngineDriver, CallPrice, FrameResidencyCache

#: One call geometry's shared books: its record and its price, by
#: (resident inputs, on-board copy cycles).
_Books = Dict[Tuple[int, int], Tuple[CallRecord, CallPrice]]


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

    Booking is by reference.  The backend keeps one immutable
    :class:`~repro.addresslib.library.CallRecord` and its
    :class:`~repro.host.driver.CallPrice` per call geometry -- mode, op
    name, format, channels, reduction, full-frame flag, resident inputs
    and on-board copy cycles, which are all a price and a record depend
    on -- and logs that record for every call of the geometry: a call
    only counts its submission and interrupts
    (:meth:`~repro.host.driver.AddressEngineDriver.book_priced`, which
    still runs the pre-flight check when the driver has it on).  The
    books are bounded by the distinct geometries, not by the calls or
    by the op objects a caller builds.
    """

    name = "address_engine"
    can_record_batches = True

    def __init__(self, driver: Optional[AddressEngineDriver] = None,
                 chain_frames: bool = False) -> None:
        self.driver = driver or AddressEngineDriver()
        self.chain_frames = chain_frames
        #: On-board state between calls (strong-referenced frames).
        self.residency = FrameResidencyCache()
        #: Each geometry's books, keyed by what a record and a price
        #: depend on besides residency and the driver's timing model.
        self._books: Dict[tuple, _Books] = {}

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
        driver = self.driver
        if driver.simulate:
            return [self._simulate(config, frames) for frames in inputs]
        results = VectorExecutor.wave(config.op, inputs, config.channels,
                                      config.reduce_to_scalar)
        books = self._books_of(config)
        outcomes: List[RecordedResult] = []
        for frames, result in zip(inputs, results):
            resident, copy_cycles = self._residency(config, frames)
            count = sum(resident)
            record, price = (books.get((count, copy_cycles))
                             or self._book(config, books, count,
                                           copy_cycles))
            driver.book_priced(config, price)
            self._after_call(config, frames,
                             result if isinstance(result, Frame) else None)
            outcomes.append((result, record))
        return outcomes

    def _books_of(self, config: EngineConfig) -> _Books:
        """The shared books of ``config``'s call geometry."""
        key = (config.mode, config.op_name, config.fmt, config.channels,
               config.reduce_to_scalar, config.requires_full_frames)
        books = self._books.get(key)
        if books is None:
            books = self._books[key] = {}
        return books

    def _book(self, config: EngineConfig, books: _Books,
              resident_count: int, copy_cycles: int
              ) -> Tuple[CallRecord, CallPrice]:
        """Price one geometry and build its shared record."""
        price = self.driver.price_call(config, resident_count, copy_cycles)
        record = self._base_record(config, price.call_seconds,
                                   price.board_seconds, price.pci_words,
                                   resident_inputs=float(resident_count))
        books[(resident_count, copy_cycles)] = (record, price)
        return record, price

    def _simulate(self, config: EngineConfig,
                  frames: Sequence[Frame]) -> RecordedResult:
        """One call through the driver's cycle-level model."""
        resident, copy_cycles = self._residency(config, frames)
        result = self.driver.submit(config, *frames, resident=resident,
                                    onboard_copy_cycles=copy_cycles)
        self._after_call(config, frames, result.frame)
        assert result.run is not None
        record = self._base_record(
            config, result.call_seconds, result.board_seconds,
            result.pci_words, cycles=float(result.run.cycles),
            zbt_pixel_ops=float(result.run.zbt_pixel_ops),
            resident_inputs=float(sum(resident)))
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
        """Book one scheduler-executed call; returns its shared record.

        The functional result was computed in a worker; the driver books
        it as a serial :meth:`~AddressEngineDriver.submit` would -- the
        same pre-flight check, counters and price.  Batched calls never
        claim residency (the wave invalidated it).
        """
        config = self._config_for(call)
        books = self._books_of(config)
        self.driver.account_scheduled(config)
        record, _price = books.get((0, 0)) or self._book(config, books, 0, 0)
        return record

    # -- accounting -----------------------------------------------------------

    @staticmethod
    def _base_record(config: EngineConfig, call_seconds: float,
                     board_seconds: float, pci_words: int,
                     **accounts: float) -> CallRecord:
        extra = {
            "call_seconds": call_seconds,
            "board_seconds": board_seconds,
            "pci_words": float(pci_words),
            **accounts,
        }
        return CallRecord(
            mode=config.mode,
            op_name=config.op_name
            + ("+reduce" if config.reduce_to_scalar else ""),
            channels=config.channels, format_name=config.fmt.name,
            pixels=config.fmt.pixels, profile=None, extra=extra)
