"""The host-side AddressEngine driver.

Models the PC software that owns the board: it packages AddressLib calls
into DMA programs, fields the completion interrupts, and hands results
back to the application.  Two execution strategies:

* **fast** (default): functional result via the vector executor plus the
  validated closed-form timing of
  :class:`~repro.perf.timing.EngineTimingModel` -- thousands of calls per
  second, used by the Table 3 workloads;
* **simulate**: the full cycle-level model of
  :class:`~repro.core.engine.AddressEngine` -- used by tests and the
  figure-level benches, where the microarchitectural behaviour matters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..analysis.analyzer import analyze_config
from ..analysis.diagnostics import ProgramCheckError
from ..analysis.params import EngineParams
from ..core.config import EngineConfig
from ..core.engine import AddressEngine, EngineRunResult
from ..image.frame import Frame
from ..perf.timing import EngineTimingModel
from . import shm

if TYPE_CHECKING:
    from ..api import SubmitOptions


class FrameResidencyCache:
    """Tracks which frames are resident in the board's ZBT banks.

    One board call leaves its inputs in their input banks and its result
    in a result bank; a follow-up call that reuses one of those frames
    can skip the PCI upload (``resident`` flag) or pay a cheap on-board
    result-to-input copy instead of a host round trip.

    The cache key is the board layout (``images_in`` decides the bank
    map), the per-slot input frames, and the result frame.  Frames are
    held by *strong reference* and compared by identity: a frame object
    that is still alive is exactly the data in the banks, and holding
    the reference guarantees a recycled ``id()`` can never alias a
    garbage-collected predecessor.

    The strong references are bounded: :meth:`release` drops one frame
    the host has reclaimed, and with ``max_age`` set the cached state
    expires once it is ``max_age`` generations old (the application
    marks generation boundaries -- e.g. one per video frame -- with
    :meth:`new_generation`).  Expiry and release are counted in
    :attr:`evictions`.
    """

    def __init__(self, max_age: Optional[int] = None) -> None:
        self._layout_kind: Optional[int] = None
        self._inputs: Tuple[Optional[Frame], ...] = ()
        self._result: Optional[Frame] = None
        #: Generations the cached bank state survives (None: forever).
        self.max_age = max_age
        self._generation = 0
        self._recorded_at: Optional[int] = None
        #: Inputs found still resident in their input banks.
        self.hits = 0
        #: Inputs satisfied by an on-board result-to-input copy.
        self.result_reuses = 0
        #: Inputs that had to ship over the PCI bus.
        self.misses = 0
        #: Cached frames dropped by release or generation expiry.
        self.evictions = 0

    @property
    def generation(self) -> int:
        """The current generation number (bumped by the application)."""
        return self._generation

    @property
    def held_frames(self) -> int:
        """How many frames the cache keeps alive right now."""
        held = sum(1 for f in self._inputs if f is not None)
        return held + (1 if self._result is not None else 0)

    def plan(self, config: EngineConfig, frames: Sequence[Frame],
             result_reuse: bool = True) -> Tuple[List[bool], int]:
        """Residency flags for ``frames`` plus the cycle cost of on-board
        result reuse.

        An input is resident only in the *same slot* of the *same
        layout*: the bank map differs between intra (strips alternate
        bank pairs) and inter (one pair per image), and between slots.
        Reusing the previous call's result costs a result-bank to
        input-bank move: the transmission units stream one pixel per
        cycle in each direction, two in flight.  A board without that
        mover (``result_reuse=False``, the cycle-level model) ships
        every input of a call that would reuse the result, and the
        counters book each of them as a miss.
        """
        self._expire_stale()
        flags: List[bool] = []
        hits = reuses = 0
        same_layout = self._layout_kind == config.images_in
        for slot, frame in enumerate(frames):
            if (same_layout and slot < len(self._inputs)
                    and self._inputs[slot] is frame):
                flags.append(True)
                hits += 1
            elif self._result is frame:
                flags.append(True)
                reuses += 1
            else:
                flags.append(False)
        if reuses and not result_reuse:
            flags = [False] * len(frames)
            hits = reuses = 0
        self.hits += hits
        self.result_reuses += reuses
        self.misses += len(frames) - hits - reuses
        observer = shm.get_transport_observer()
        if observer is not None:
            for frame, resident in zip(frames, flags):
                observer.cache_attach("driver", id(frame), 0,
                                      0 if resident else None)
        return flags, reuses * -(-config.fmt.pixels // 2)

    def record_call(self, config: EngineConfig, frames: Sequence[Frame],
                    result_frame: Optional[Frame]) -> None:
        """Remember what the call just left in the banks."""
        self._layout_kind = config.images_in
        self._inputs = tuple(frames)
        self._result = result_frame
        self._recorded_at = self._generation

    def contains(self, frame: Frame) -> bool:
        """Whether ``frame`` is in the banks right now (identity test;
        placement affinity scores boards with this, without the counter
        side effects of :meth:`plan`)."""
        if self.max_age is not None and self._recorded_at is not None:
            if self._generation - self._recorded_at >= self.max_age:
                return False
        if self._result is frame:
            return True
        return any(cached is frame for cached in self._inputs)

    def invalidate(self) -> None:
        """Forget the board state (e.g. after a reconfiguration)."""
        self._layout_kind = None
        self._inputs = ()
        self._result = None
        self._recorded_at = None

    # -- bounding the strong references --------------------------------------

    def new_generation(self) -> None:
        """Mark a generation boundary (e.g. one processed video frame);
        expiry is measured in these."""
        self._generation += 1

    def release(self, frame: Frame) -> None:
        """Drop one frame from the modelled banks: the host reclaimed
        its buffer, so treating it as resident would read stale banks.
        Slot positions of the remaining inputs are preserved."""
        dropped = 0
        if self._result is frame:
            self._result = None
            dropped += 1
        if any(f is frame for f in self._inputs):
            dropped += sum(1 for f in self._inputs if f is frame)
            self._inputs = tuple(None if f is frame else f
                                 for f in self._inputs)
        self.evictions += dropped
        if dropped:
            self._notify_evicted(frame)

    def _expire_stale(self) -> None:
        """Evict state older than ``max_age`` generations."""
        if (self.max_age is None or self._recorded_at is None
                or self._generation - self._recorded_at < self.max_age):
            return
        self.evictions += self.held_frames
        for cached in (*self._inputs, self._result):
            if cached is not None:
                self._notify_evicted(cached)
        self.invalidate()

    @staticmethod
    def _notify_evicted(frame: Frame) -> None:
        # The driver's banks carry no generation counter: the cache
        # compares frames by identity, so the sanitizer's residency
        # books key these events at a fixed generation 0 -- enough for
        # the RES002 evict-then-reship check, inert for RES001.
        observer = shm.get_transport_observer()
        if observer is not None:
            observer.cache_evicted("driver", id(frame), 0)


@dataclass(frozen=True)
class CallPrice:
    """The analytic (closed-form) cost of one AddressEngine call."""

    #: Board-side time (cycles at the PCI clock).
    board_seconds: float
    #: Host driver/interrupt overhead on top of the board time.
    host_overhead_seconds: float
    #: PCI payload words moved.
    pci_words: int
    #: Interrupts the host services (one per DMA job + completion).
    interrupts: int

    @property
    def call_seconds(self) -> float:
        """Host-visible call latency."""
        return self.board_seconds + self.host_overhead_seconds


@functools.lru_cache(maxsize=1024)
def _geometry_price(timing: EngineTimingModel, pixels: int, strips: int,
                    images_in: int, produces_image: bool,
                    requires_full_frames: bool, resident_count: int,
                    onboard_copy_cycles: int) -> CallPrice:
    """The closed-form :class:`CallPrice` of one call geometry (cached:
    the timing model is frozen and the price is immutable)."""
    pci_words = (timing.input_words_raw(pixels, images_in, resident_count)
                 + timing.readback_words_raw(pixels, produces_image))
    host_overhead = timing.host_overhead_seconds_raw(strips, images_in,
                                                     resident_count)
    board_cycles = (timing.call_cycles_raw(
        pixels, strips, images_in, produces_image, requires_full_frames,
        resident_count) + onboard_copy_cycles)
    interrupts = timing.dma_jobs_raw(strips, images_in,
                                     resident_count) + 1
    return CallPrice(
        board_seconds=board_cycles / timing.clock_hz,
        host_overhead_seconds=host_overhead,
        pci_words=pci_words, interrupts=interrupts)


@dataclass
class DriverResult:
    """What one driver submission returns to the application."""

    #: The result image, or ``None`` for scalar-reduce calls.
    frame: Optional[Frame]
    #: The scalar result, or ``None`` for image-producing calls.
    scalar: Optional[int]
    #: Host-visible call latency (board time + driver overhead).
    call_seconds: float
    #: Board-side time only.
    board_seconds: float
    #: PCI payload words moved.
    pci_words: int
    #: Present only when the call was cycle-simulated.
    run: Optional[EngineRunResult] = None


@dataclass
class AddressEngineDriver:
    """Submits statically-configured calls to the (modelled) board."""

    timing: EngineTimingModel = field(default_factory=EngineTimingModel)
    #: Run every call through the cycle-level model instead of the
    #: closed-form timing (slow; for tests and microarchitecture benches).
    simulate: bool = False
    engine: AddressEngine = field(default_factory=AddressEngine)
    #: Run the AddressCheck static analyzer before dispatching each call
    #: and refuse (``ProgramCheckError``) anything it flags as an error:
    #: rejects-before-execute instead of a mid-run ``EngineDeadlock``.
    preflight: bool = False
    interrupts_serviced: int = 0
    calls_submitted: int = 0
    calls_rejected: int = 0
    #: Calls a service front end shed before they reached the board
    #: (admission control, expired deadlines); they cost the driver no
    #: interrupts, but the books must still show them.
    calls_shed: int = 0
    #: Submitted calls tallied per tenant label (only submissions that
    #: carried a tenant through ``options`` appear here).
    calls_by_tenant: Dict[str, int] = field(default_factory=dict)

    def check(self, config: EngineConfig) -> None:
        """Pre-flight one call; raise :class:`ProgramCheckError` on
        errors (capacity overflows, guaranteed deadlocks, ...).

        Residency flags are *not* part of the single-call check: the
        driver's :class:`FrameResidencyCache` derives them from the
        previous call's actual bank state, which a one-call program
        cannot see.  Chain-level residency claims are validated by
        :func:`repro.analysis.analyze_program` over the full program.
        """
        params = EngineParams.from_engine(self.engine)
        report = analyze_config(config, params)
        if not report.ok:
            self.calls_rejected += 1
            raise ProgramCheckError(report)

    def price_call(self, config: EngineConfig, resident_count: int = 0,
                   onboard_copy_cycles: int = 0) -> CallPrice:
        """Closed-form cost of one call, without executing it.

        Every booking -- :meth:`submit`, and :meth:`book_call` for
        calls executed elsewhere (batched waves, scheduler workers) --
        prices through this, so all of them account alike.  The price
        depends only on the timing model and the call geometry, so
        each distinct one is computed once.
        """
        fmt = config.fmt
        return _geometry_price(
            self.timing, fmt.pixels, fmt.strips, config.images_in,
            config.produces_image, config.requires_full_frames,
            resident_count, onboard_copy_cycles)

    def book_call(self, config: EngineConfig, resident_count: int = 0,
                  onboard_copy_cycles: int = 0,
                  options: Optional["SubmitOptions"] = None) -> CallPrice:
        """Book one functionally executed call; returns its price.

        Tallies the tenant, runs the pre-flight check, and counts the
        submission and its interrupts -- the books of the functional
        branch of :meth:`submit`, which
        :class:`~repro.host.backend.EngineBackend` also books each call
        of a batched wave through.
        """
        price = self._accept(config, resident_count, onboard_copy_cycles,
                             options)
        self.interrupts_serviced += price.interrupts
        return price

    def _accept(self, config: EngineConfig, resident_count: int,
                onboard_copy_cycles: int,
                options: Optional["SubmitOptions"]) -> CallPrice:
        """Tenant tally, pre-flight check and submission count of one
        call; returns its price."""
        tenant = getattr(options, "tenant", None)
        if tenant is not None:
            self.calls_by_tenant[tenant] = (
                self.calls_by_tenant.get(tenant, 0) + 1)
        if self.preflight:
            self.check(config)
        self.calls_submitted += 1
        return self.price_call(config, resident_count,
                               onboard_copy_cycles)

    def account_scheduled(self, config: EngineConfig) -> CallPrice:
        """Book one scheduler-executed call: :meth:`book_call` with no
        input resident (a parallel wave leaves no bank state), so the
        pre-flight check refuses it as it would a serial submission."""
        return self.book_call(config)

    def account_shed(self, calls: int = 1) -> None:
        """Book calls a service layer dropped before submission.

        The service front end (:mod:`repro.service`) sheds load at
        admission time and expires requests whose deadline has passed;
        neither ever reaches :meth:`submit`, so this is the only place
        they enter the driver's books.
        """
        if calls < 0:
            raise ValueError(f"cannot shed {calls} calls")
        self.calls_shed += calls

    def submit(self, config: EngineConfig, frame_a: Frame,
               frame_b: Optional[Frame] = None, *,
               options: Optional["SubmitOptions"] = None,
               resident: Optional[Sequence[bool]] = None,
               onboard_copy_cycles: int = 0
               ) -> DriverResult:
        """Execute one AddressEngine call and wait for its interrupt.

        ``resident`` flags inputs already on the board (call chaining);
        ``onboard_copy_cycles`` charges a result-bank-to-input-bank move
        when the previous call's *result* is reused as an input.
        ``options`` (a :class:`~repro.api.SubmitOptions`) contributes
        the tenant label the per-tenant books tally this submission
        under.
        """
        resident = list(resident or [False] * config.images_in)
        resident_count = sum(resident)
        if self.simulate:
            price = self._accept(config, resident_count,
                                 onboard_copy_cycles, options)
            run = self.engine.run_call(config, frame_a, frame_b,
                                       resident=resident)
            # Interrupts: one per DMA job plus the completion interrupt.
            self.interrupts_serviced += len(run.pci.interrupts)
            board = (run.seconds
                     + onboard_copy_cycles / self.timing.clock_hz)
            return DriverResult(
                frame=run.frame, scalar=run.scalar,
                call_seconds=board + price.host_overhead_seconds,
                board_seconds=board,
                pci_words=price.pci_words, run=run)
        price = self.book_call(config, resident_count, onboard_copy_cycles,
                               options)
        result = AddressEngine.run_functional(config, frame_a, frame_b)
        frame: Optional[Frame]
        scalar: Optional[int]
        if isinstance(result, Frame):
            frame, scalar = result, None
        else:
            frame, scalar = None, int(result)
        return DriverResult(
            frame=frame, scalar=scalar,
            call_seconds=price.call_seconds,
            board_seconds=price.board_seconds,
            pci_words=price.pci_words)
