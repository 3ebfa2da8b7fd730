"""The AddressLib facade: structured pixel addressing behind one API.

Applications (GME, segmentation, the examples) express all low-level pixel
work as AddressLib calls.  Each call names an addressing scheme, an
operation and a channel set; the library dispatches to the active
*backend* -- the pure-software executor or the AddressEngine coprocessor --
and records the call in a :class:`CallLog`.  Keeping the high-level
algorithm on the host and swapping only the backend is exactly the
deployment model of the paper (section 4.3: "The top-level software layer
... was kept in the PC, which accessed the ADM-XRC-II board after every
call to the AddressLib").
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..image.frame import Frame
from ..image.pixel import Channel
from .addressing import CON_4, AddressingMode, Neighbourhood, ScanOrder
from .executor import SoftwareCostModel, VectorExecutor
from .indexed import INDEXED_READ_COST, INDEXED_WRITE_COST
from .ops import ChannelSet, InterOp, IntraOp
from .profiling import InstructionCost, OpProfile
from .segment import (Criterion, LumaDeltaCriterion, SegmentProcessor,
                      SegmentResult)

if TYPE_CHECKING:
    from ..api import SubmitOptions


@dataclass
class CallRecord:
    """One completed AddressLib call, with its accounting."""

    mode: AddressingMode
    op_name: str
    channels: ChannelSet
    format_name: str
    pixels: int
    #: Analytic instruction profile of the software execution of this call
    #: (present on the software backend; also kept by the engine backend so
    #: the "what would the CPU have done" comparison is always available).
    profile: Optional[OpProfile] = None
    #: Backend-specific accounting (engine cycles, PCI bytes, ...).
    extra: Dict[str, float] = field(default_factory=dict)


#: One executed call: its result (a frame, or a scalar for reduces) and
#: its record.
RecordedResult = Tuple[Union[Frame, int], CallRecord]


class CallLog:
    """An append-only log of AddressLib calls with per-mode tallies."""

    def __init__(self) -> None:
        self.records: List[CallRecord] = []
        #: Calls tallied per tenant label (multi-tenant submissions
        #: through :class:`~repro.api.SubmitOptions`; untagged calls
        #: are not tallied here).
        self.by_tenant: Dict[str, int] = {}

    def append(self, record: CallRecord) -> None:
        self.records.append(record)

    def tally_tenant(self, tenant: str, calls: int = 1) -> None:
        """Attribute ``calls`` executed calls to ``tenant``."""
        self.by_tenant[tenant] = self.by_tenant.get(tenant, 0) + calls

    def count(self, mode: AddressingMode) -> int:
        return sum(1 for r in self.records if r.mode is mode)

    @property
    def intra_calls(self) -> int:
        """Intra-mode calls (the 'Intra AddrEng calls' column of Table 3)."""
        return self.count(AddressingMode.INTRA)

    @property
    def inter_calls(self) -> int:
        """Inter-mode calls (the 'Inter AddrEng calls' column of Table 3)."""
        return self.count(AddressingMode.INTER)

    @property
    def total_calls(self) -> int:
        return len(self.records)

    def merged_profile(self) -> OpProfile:
        """Union of all per-call profiles."""
        merged = OpProfile()
        for record in self.records:
            if record.profile is not None:
                merged.merge(record.profile)
        return merged

    def total_extra(self, key: str) -> float:
        """Sum of one ``extra`` accounting key over all records."""
        return sum(r.extra.get(key, 0.0) for r in self.records)

    def clear(self) -> None:
        self.records.clear()
        self.by_tenant.clear()


@dataclass(frozen=True)
class BatchCall:
    """One engine-eligible call queued for batched submission.

    A batch is a set of calls the application *declares* independent
    (or that the scheduler derived from a program's dependency edges):
    no call's input is another call's output.  :meth:`AddressLib.run_batch`
    executes a batch either serially (records identical to issuing the
    calls one by one) or through a scheduler's worker pool.
    """

    mode: AddressingMode
    op: Union[InterOp, IntraOp]
    frames: Tuple[Frame, ...]
    channels: ChannelSet = ChannelSet.Y
    reduce_to_scalar: bool = False

    def __post_init__(self) -> None:
        if self.mode is AddressingMode.INTER:
            if not isinstance(self.op, InterOp) or len(self.frames) != 2:
                raise ValueError("inter batch calls take an InterOp "
                                 "and exactly two frames")
            if self.frames[0].format != self.frames[1].format:
                raise ValueError("inter batch call frames must share "
                                 "one format")
        elif self.mode is AddressingMode.INTRA:
            if not isinstance(self.op, IntraOp) or len(self.frames) != 1:
                raise ValueError("intra batch calls take an IntraOp "
                                 "and exactly one frame")
            if self.reduce_to_scalar:
                raise ValueError("scalar reduction is inter-only")
        else:
            raise ValueError(f"batches take inter/intra calls only, "
                             f"not {self.mode.value}")

    @classmethod
    def intra(cls, op: IntraOp, frame: Frame,
              channels: ChannelSet = ChannelSet.Y) -> "BatchCall":
        return cls(mode=AddressingMode.INTRA, op=op, frames=(frame,),
                   channels=channels)

    @classmethod
    def inter(cls, op: InterOp, frame_a: Frame, frame_b: Frame,
              channels: ChannelSet = ChannelSet.Y) -> "BatchCall":
        return cls(mode=AddressingMode.INTER, op=op,
                   frames=(frame_a, frame_b), channels=channels)

    @classmethod
    def inter_reduce(cls, op: InterOp, frame_a: Frame, frame_b: Frame,
                     channels: ChannelSet = ChannelSet.Y) -> "BatchCall":
        return cls(mode=AddressingMode.INTER, op=op,
                   frames=(frame_a, frame_b), channels=channels,
                   reduce_to_scalar=True)

    @property
    def fmt(self):
        return self.frames[0].format


def _config_runs(calls: Sequence[BatchCall]) -> List[List[BatchCall]]:
    """``calls`` cut into maximal consecutive runs that would configure
    the engine identically (same mode, op object, format, channel set
    and reduction), in order."""
    runs: List[List[BatchCall]] = []
    for call in calls:
        head = runs[-1][0] if runs else None
        if (head is not None and head.mode is call.mode
                and head.op is call.op and head.channels is call.channels
                and head.reduce_to_scalar == call.reduce_to_scalar
                and head.fmt == call.fmt):
            runs[-1].append(call)
        else:
            runs.append([call])
    return runs


@dataclass
class BatchOutcome:
    """The functional result of one batched call."""

    frame: Optional[Frame] = None
    scalar: Optional[int] = None

    @property
    def value(self) -> Union[Frame, int]:
        if self.frame is not None:
            return self.frame
        assert self.scalar is not None
        return self.scalar


class BatchExecutor(abc.ABC):
    """The contract a call scheduler fulfils for :class:`AddressLib`.

    Implementations (:class:`repro.host.scheduler.CallScheduler`)
    compute the functional results of a batch -- possibly concurrently
    across worker processes -- and return them *in submission order*.
    Accounting stays with the library/backend, which records each call
    analytically.
    """

    @abc.abstractmethod
    def compute_batch(self,
                      calls: Sequence[BatchCall]) -> List[BatchOutcome]:
        """Execute every call of the batch; outcomes in call order."""


class Backend(abc.ABC):
    """Executes AddressLib calls; one of software or AddressEngine."""

    name: str = "abstract"

    #: Whether :meth:`batch_record` can account a scheduler-executed
    #: call without re-running it.  Backends that couple execution and
    #: accounting (e.g. the program recorder) leave this ``False`` and
    #: batches fall back to the serial path.
    can_record_batches: bool = False

    @abc.abstractmethod
    def supports(self, mode: AddressingMode) -> bool:
        """Whether this backend can execute ``mode``."""

    def batch_record(self, call: BatchCall) -> CallRecord:
        """Account one scheduler-executed call (no execution here)."""
        raise NotImplementedError(
            f"{self.name} backend cannot record batched calls")

    def begin_parallel_wave(self) -> None:
        """Hook before a concurrent wave of calls (default: no-op)."""

    @abc.abstractmethod
    def run_wave(self, calls: Sequence[BatchCall]) -> List[RecordedResult]:
        """Execute consecutive calls of one configuration, in order.

        Returns each call's result and record, exactly as issuing the
        calls one by one through :meth:`inter`/:meth:`intra`/
        :meth:`inter_reduce` would.
        """

    @abc.abstractmethod
    def inter(self, op: InterOp, frame_a: Frame, frame_b: Frame,
              channels: ChannelSet) -> Tuple[Frame, CallRecord]:
        """Execute an inter call; return the result and its record."""

    @abc.abstractmethod
    def intra(self, op: IntraOp, frame: Frame,
              channels: ChannelSet) -> Tuple[Frame, CallRecord]:
        """Execute an intra call; return the result and its record."""

    @abc.abstractmethod
    def inter_reduce(self, op: InterOp, frame_a: Frame, frame_b: Frame,
                     channels: ChannelSet) -> Tuple[int, CallRecord]:
        """Execute an inter call reduced to a scalar sum (e.g. SAD)."""


class SoftwareBackend(Backend):
    """Pure-software execution: numpy results + analytic CPU profiles.

    Functionally the results come from :class:`VectorExecutor`; the
    attached profile is what the scalar C implementation would have
    executed (validated against the counted executor by tests).
    """

    name = "software"
    can_record_batches = True

    def __init__(self, cost_model: Optional[SoftwareCostModel] = None,
                 scan: ScanOrder = ScanOrder.HORIZONTAL) -> None:
        self.cost_model = cost_model or SoftwareCostModel()
        self.scan = scan

    def supports(self, mode: AddressingMode) -> bool:
        return True

    # -- accounting (shared by the serial and batch paths) -------------------

    def inter_record(self, op: InterOp, fmt, channels: ChannelSet,
                     reduce_to_scalar: bool = False) -> CallRecord:
        profile = self.cost_model.inter_profile(op, fmt, channels)
        op_name = op.name
        if reduce_to_scalar:
            # The reduction adds one accumulate per pixel per channel.
            profile.add_cost(InstructionCost(alu=1),
                             fmt.pixels * channels.count)
            op_name = f"{op.name}+reduce"
        return CallRecord(
            mode=AddressingMode.INTER, op_name=op_name, channels=channels,
            format_name=fmt.name, pixels=fmt.pixels, profile=profile,
            extra={"sw_accesses": float(
                self.cost_model.inter_accesses(fmt, channels)),
                   "width": float(fmt.width),
                   "height": float(fmt.height)})

    def intra_record(self, op: IntraOp, fmt,
                     channels: ChannelSet) -> CallRecord:
        profile = self.cost_model.intra_profile(op, fmt, channels,
                                                self.scan)
        return CallRecord(
            mode=AddressingMode.INTRA, op_name=op.name, channels=channels,
            format_name=fmt.name, pixels=fmt.pixels, profile=profile,
            extra={"sw_accesses": float(self.cost_model.intra_accesses(
                op, fmt, channels, self.scan)),
                   "width": float(fmt.width),
                   "height": float(fmt.height)})

    def batch_record(self, call: BatchCall) -> CallRecord:
        if call.mode is AddressingMode.INTER:
            assert isinstance(call.op, InterOp)
            return self.inter_record(call.op, call.fmt, call.channels,
                                     call.reduce_to_scalar)
        assert isinstance(call.op, IntraOp)
        return self.intra_record(call.op, call.fmt, call.channels)

    # -- call execution ------------------------------------------------------

    def run_wave(self, calls: Sequence[BatchCall]) -> List[RecordedResult]:
        head = calls[0]
        results = VectorExecutor.wave(head.op,
                                      [call.frames for call in calls],
                                      head.channels, head.reduce_to_scalar)
        return [(result, self.batch_record(call))
                for call, result in zip(calls, results)]

    def inter(self, op: InterOp, frame_a: Frame, frame_b: Frame,
              channels: ChannelSet) -> Tuple[Frame, CallRecord]:
        result = VectorExecutor.inter(op, frame_a, frame_b, channels)
        return result, self.inter_record(op, frame_a.format, channels)

    def intra(self, op: IntraOp, frame: Frame,
              channels: ChannelSet) -> Tuple[Frame, CallRecord]:
        result = VectorExecutor.intra(op, frame, channels)
        return result, self.intra_record(op, frame.format, channels)

    def inter_reduce(self, op: InterOp, frame_a: Frame, frame_b: Frame,
                     channels: ChannelSet) -> Tuple[int, CallRecord]:
        value = VectorExecutor.inter_reduce(op, frame_a, frame_b, channels)
        return value, self.inter_record(op, frame_a.format, channels,
                                        reduce_to_scalar=True)


class AddressLib:
    """The application-facing library.

    All four addressing schemes are exposed.  Inter and intra dispatch to
    the configured backend; segment (and its indexed side tables) always
    runs on the software path in this version, mirroring the v1 prototype
    where segment addressing is the announced next step.
    """

    def __init__(self, backend: Optional[Backend] = None) -> None:
        self.backend = backend or SoftwareBackend()
        self.log = CallLog()
        fully_capable = (isinstance(self.backend, SoftwareBackend)
                         and all(self.backend.supports(mode)
                                 for mode in AddressingMode))
        self._software_fallback = (self.backend if fully_capable
                                   else SoftwareBackend())

    # -- inter / intra (engine-eligible) -------------------------------------

    def inter(self, op: InterOp, frame_a: Frame, frame_b: Frame,
              channels: ChannelSet = ChannelSet.Y) -> Frame:
        """Inter addressing: ``result[p] = op(frame_a[p], frame_b[p])``."""
        result, record = self._dispatch(AddressingMode.INTER).inter(
            op, frame_a, frame_b, channels)
        self.log.append(record)
        return result

    def intra(self, op: IntraOp, frame: Frame,
              channels: ChannelSet = ChannelSet.Y) -> Frame:
        """Intra addressing: neighbourhood ``op`` within one frame."""
        result, record = self._dispatch(AddressingMode.INTRA).intra(
            op, frame, channels)
        self.log.append(record)
        return result

    def inter_reduce(self, op: InterOp, frame_a: Frame, frame_b: Frame,
                     channels: ChannelSet = ChannelSet.Y) -> int:
        """Inter addressing reduced to a scalar (SAD and friends)."""
        value, record = self._dispatch(AddressingMode.INTER).inter_reduce(
            op, frame_a, frame_b, channels)
        self.log.append(record)
        return value

    def run_batch(self, calls: Sequence[BatchCall],
                  *legacy: "BatchExecutor",
                  scheduler: Optional[BatchExecutor] = None,
                  options: Optional["SubmitOptions"] = None
                  ) -> List[Union[Frame, int]]:
        """Submit a batch of *independent* inter/intra calls.

        Without a scheduler, each consecutive run of calls that share
        one configuration goes to the backend in one piece
        (:meth:`Backend.run_wave`): it computes the run as one batched
        pass and books its calls one by one in order, so the results
        *and* the log records are identical to hand-written serial
        code.  With a scheduler, the functional results come from the
        scheduler's engine workers (bit-exact: the workers run the same
        vector executor) while each call is recorded with the backend's
        analytic accounting -- one record per call, same counts, no
        re-execution.  If any dispatched backend cannot record batched
        calls, the whole batch silently takes the unscheduled path.

        ``scheduler`` and ``options`` are keyword-only; ``options``
        (a :class:`~repro.api.SubmitOptions`) currently contributes the
        tenant label the call log tallies executed calls under.
        Passing the scheduler positionally still works but is
        deprecated.
        """
        if legacy:
            if len(legacy) > 1 or scheduler is not None:
                raise TypeError(
                    "run_batch takes at most one scheduler; pass it "
                    "as run_batch(calls, scheduler=...)")
            warnings.warn(
                "passing the scheduler positionally to "
                "AddressLib.run_batch is deprecated; use "
                "run_batch(calls, scheduler=...)",
                DeprecationWarning, stacklevel=2)
            scheduler = legacy[0]
        calls = list(calls)
        tenant = getattr(options, "tenant", None)
        if tenant is not None and calls:
            self.log.tally_tenant(tenant, len(calls))
        if scheduler is not None and len(calls) > 1:
            backends = [self._dispatch(call.mode) for call in calls]
            if all(b.can_record_batches for b in backends):
                return self._run_batch_scheduled(calls, backends,
                                                 scheduler)
        results: List[Union[Frame, int]] = []
        for run in _config_runs(calls):
            for result, record in self._dispatch(run[0].mode).run_wave(run):
                self.log.append(record)
                results.append(result)
        return results

    def _run_batch_scheduled(self, calls: List[BatchCall],
                             backends: List[Backend],
                             scheduler: BatchExecutor
                             ) -> List[Union[Frame, int]]:
        # One modelled board per backend: concurrent calls leave its
        # inter-call state (frame residency) undefined, so give each
        # backend the chance to drop it before the wave.
        seen: Dict[int, Backend] = {}
        for backend in backends:
            if id(backend) not in seen:
                seen[id(backend)] = backend
                backend.begin_parallel_wave()
        outcomes = scheduler.compute_batch(calls)
        if len(outcomes) != len(calls):
            raise RuntimeError(
                f"scheduler returned {len(outcomes)} outcomes for "
                f"{len(calls)} calls")
        results: List[Union[Frame, int]] = []
        for call, backend, outcome in zip(calls, backends, outcomes):
            self.log.append(backend.batch_record(call))
            results.append(outcome.value)
        return results

    # -- segment / segment-indexed (software path in v1) ----------------------

    def segment(self, frame: Frame, seeds: Sequence[Tuple[int, int]],
                criterion: Criterion,
                connectivity: Neighbourhood = CON_4,
                max_pixels: Optional[int] = None) -> SegmentResult:
        """Segment addressing: geodesic expansion from ``seeds``.

        Runs in software on v1 backends.  A segment-capable backend (the
        modelled v2 extension) takes the call when the criterion is
        hardware-mappable (:class:`LumaDeltaCriterion`) and the
        connectivity is the unit's fixed 4-connectivity; anything else
        falls back to software.
        """
        backend_segment = getattr(self.backend, "segment", None)
        if (backend_segment is not None
                and self.backend.supports(AddressingMode.SEGMENT)
                and isinstance(criterion, LumaDeltaCriterion)
                and connectivity is CON_4):
            result, record = backend_segment(frame, seeds, criterion,
                                             max_pixels)
            self.log.append(record)
            return result

        profile = OpProfile()
        processor = SegmentProcessor(connectivity=connectivity,
                                     profile=profile)
        result = processor.expand(frame, seeds, criterion,
                                  max_pixels=max_pixels)
        self.log.append(CallRecord(
            mode=AddressingMode.SEGMENT, op_name="segment_expand",
            channels=ChannelSet.Y, format_name=frame.format.name,
            pixels=result.pixels_processed, profile=profile))
        return result

    def histogram(self, frame: Frame,
                  channel: Channel = Channel.Y) -> np.ndarray:
        """Segment-indexed addressing example: a 256-bin histogram.

        Each pixel performs one indexed read-modify-write on the table,
        alongside an intra CON_0 sweep.
        """
        histogram = VectorExecutor.histogram(frame, channel)
        profile = OpProfile()
        sweep = self._software_fallback.cost_model.intra_profile
        from .ops import INTRA_COPY  # local import avoids a cycle at module load
        profile.merge(sweep(INTRA_COPY, frame.format, ChannelSet.Y))
        profile.add_cost(INDEXED_READ_COST.plus(INDEXED_WRITE_COST),
                         frame.format.pixels)
        self.log.append(CallRecord(
            mode=AddressingMode.SEGMENT_INDEXED, op_name="histogram",
            channels=ChannelSet.Y, format_name=frame.format.name,
            pixels=frame.format.pixels, profile=profile))
        return histogram

    # -- internals -------------------------------------------------------------

    def _dispatch(self, mode: AddressingMode) -> Backend:
        if self.backend.supports(mode):
            return self.backend
        return self._software_fallback
