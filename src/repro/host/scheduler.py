"""The pipelined call scheduler: multi-worker sharding of call batches.

The paper's engine overlaps DMA and processing *within* one call via the
block_A/block_B double buffer (section 4.1); the natural host-side dual
is overlapping *whole calls* that do not depend on each other.  This
module supplies that second axis:

* :class:`CallScheduler` executes batches of independent AddressLib
  calls concurrently across a pool of engine worker processes, and
  executes whole :class:`~repro.addresslib.program.CallProgram` traces
  wavefront by wavefront using the dependency edges derived by
  :func:`~repro.addresslib.program.dependency_edges`;
* frames move to workers *zero-copy and at most once*: each distinct
  input frame is registered in a shared-memory
  :class:`~repro.host.shm.PlaneStore` once per wave and shipped as a
  small handle, workers keep attached segments in a resident cache
  across waves, and a wave is dispatched as one grouped submission per
  worker (one round trip per worker per wave, not one future per call);
* results come back the same way: each job that produces a frame is
  leased a recycled result slab from the store, the worker writes into
  it, and the parent adopts it in place;
* a cost-model-driven *inline bypass* keeps cheap calls in the parent:
  when the modeled compute saving of shipping a call (its
  :class:`~repro.addresslib.executor.SoftwareCostModel` estimate times
  the fraction other workers absorb) is below its modeled shipping
  cost (:class:`~repro.perf.timing.TransportCostModel`, with the round
  trip measured live), the call executes inline -- small frames never
  pay IPC at all, and a single-CPU host degrades to serial speed
  instead of a slowdown;
* every batch is also *priced* under both timing models -- the serial
  (sum) model and the double-buffered overlap model of
  :class:`~repro.perf.timing.EngineTimingModel` -- list-scheduled onto
  ``max_workers`` virtual engines, so a batch reports the modelled
  makespan speedup a multi-board deployment would see, independent of
  how many CPUs this host happens to have.

Bit-exactness is by construction: workers run the *same*
:class:`~repro.addresslib.executor.VectorExecutor` the serial path
runs, and outcomes are collected by submission index, so results are
identical to serial execution whatever the transport (shared memory,
pickle fallback, inline bypass, or inline recovery after a worker
death).

Ops carry lambdas and do not pickle, so the parent never ships an op
object: it ships the op *name* and the worker re-resolves it from the
registries (:data:`~repro.addresslib.ops.INTER_OPS`,
:data:`~repro.addresslib.ops.INTRA_OPS`, the kernel book).  A call
whose op is not *identical* to its registry entry (e.g. a parameterized
``threshold_op``) is executed inline in the parent instead -- never
guessed from a name collision.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Set,
                    Tuple, Union)

if TYPE_CHECKING:
    from ..analysis.diagnostics import Diagnostic

from ..addresslib.addressing import AddressingMode
from ..addresslib.executor import SoftwareCostModel, VectorExecutor
from ..addresslib.kernels import KERNEL_FACTORIES, kernel_by_name
from ..addresslib.library import BatchCall, BatchExecutor, BatchOutcome
from ..addresslib.ops import (ChannelSet, InterOp, INTER_OPS, INTRA_OPS,
                              IntraOp)
from ..addresslib.program import (CallProgram, ProgramStep,
                                  dependency_levels)
from ..core.pci import PCI_CLOCK_HZ
from ..image.frame import Frame
from ..perf.report import base_report_dict
from ..perf.timing import (EngineTimingModel, TransportCostModel,
                           list_scheduled_makespan)
from . import shm

_KERNEL_PREFIX = "kernel_"

#: One call as shipped to a worker: mode, op token, reduce flag,
#: channel set, per-frame transport specs (``("shm", FrameHandle)`` or
#: ``("pickle", Frame)``), and the result slab leased to a call that
#: produces a frame (``None``: return the result by pickle).
_Job = Tuple[str, str, bool, ChannelSet, Tuple[Tuple[str, object], ...],
             Optional[shm.SlabHandle]]


def _resolve_op(mode_value: str, op_name: str) -> Union[InterOp, IntraOp]:
    """Re-resolve a shipped op token against the worker's registries."""
    if mode_value == AddressingMode.INTER.value:
        return INTER_OPS[op_name]
    if op_name in INTRA_OPS:
        return INTRA_OPS[op_name]
    return kernel_by_name(op_name[len(_KERNEL_PREFIX):])


def _execute_call(mode_value: str, op_name: str, reduce_to_scalar: bool,
                  channels: ChannelSet, frames: Tuple[Frame, ...]
                  ) -> Tuple[str, Union[Frame, int]]:
    """Execute one resolved call with the shared vector executor."""
    op = _resolve_op(mode_value, op_name)
    if mode_value == AddressingMode.INTER.value:
        assert isinstance(op, InterOp)
        if reduce_to_scalar:
            return "scalar", VectorExecutor.inter_reduce(
                op, frames[0], frames[1], channels)
        return "frame", VectorExecutor.inter(
            op, frames[0], frames[1], channels)
    assert isinstance(op, IntraOp)
    return "frame", VectorExecutor.intra(op, frames[0], channels)


def _noop() -> bool:
    """Round-trip probe: measures the pool's fixed submission cost."""
    return True


def _worker_init(sanitize_domains: Tuple[str, ...] = ()) -> None:
    """Pool-worker initializer: fork hygiene plus optional sanitizing.

    Drops worker-cache entries and any transport observer inherited
    over ``fork()`` (both belong to the parent process), then installs
    a fresh worker-side sanitizer when the scheduler runs sanitized --
    its findings ship back with each wave's stats.
    """
    shm.reset_worker_cache()
    shm.set_transport_observer(None)
    if sanitize_domains:
        try:
            from ..analysis import sanitize as _sanitize
            _sanitize.reset_for_worker()
            _sanitize.install_sanitizer(sanitize_domains)
        except Exception:  # pragma: no cover - sanitizing is advisory
            pass


def _execute_wave(jobs: Sequence[_Job], sanitize_domains: Tuple[str, ...]
                  ) -> Tuple[List[Tuple[str, object]], Dict[str, object]]:
    """Worker-side execution of one worker's share of a wave.

    Runs in an engine worker process.  Input frames arrive as
    shared-memory handles (attached through the worker-resident cache)
    or as pickled frames; a result frame is written into the job's
    leased slab (``("slab", None)``) when it has one, and pickled
    otherwise.  Returns the per-call results in job order plus the
    cache counters (and, when sanitized, the worker's drained findings)
    of this trip.
    """
    results: List[Tuple[str, object]] = []
    stats: Dict[str, object] = {"cache_hits": 0, "attaches": 0}
    for (mode_value, op_name, reduce_to_scalar, channels, specs,
         slab) in jobs:
        frames: List[Frame] = []
        for spec_kind, payload in specs:
            if spec_kind == "shm":
                assert isinstance(payload, shm.FrameHandle)
                frame, hit = shm.worker_attach(payload)
                stats["cache_hits" if hit else "attaches"] += 1
                frames.append(frame)
            else:
                assert isinstance(payload, Frame)
                frames.append(payload)
        kind, value = _execute_call(mode_value, op_name,
                                    reduce_to_scalar, channels,
                                    tuple(frames))
        if slab is not None and kind == "frame":
            assert isinstance(value, Frame)
            if shm.worker_write_slab(slab, value):
                results.append(("slab", None))
                continue
        results.append((kind, value))
    if sanitize_domains:
        try:
            from ..analysis import sanitize as _sanitize
            sanitizer = _sanitize.active_sanitizer()
            if sanitizer is not None:
                stats["findings"] = sanitizer.drain()
        except Exception:  # pragma: no cover - sanitizing is advisory
            pass
    return results, stats


@dataclass
class BatchReport:
    """The books of one (or the cumulative run of) scheduled batches."""

    calls: int = 0
    waves: int = 0
    workers: int = 1
    #: Calls executed in worker processes.
    pool_calls: int = 0
    #: Calls executed inline (unresolvable op, a broken pool, or a
    #: failed transport).
    inline_calls: int = 0
    #: Calls the cost model kept in the parent: modeled compute saving
    #: below modeled shipping cost.
    bypass_calls: int = 0
    #: Pool calls whose inputs moved as shared-memory handles.
    shm_calls: int = 0
    #: Pool calls whose inputs were pickled (shm unavailable/broken).
    pickle_calls: int = 0
    #: Grouped submissions (one per worker per wave).
    round_trips: int = 0
    #: Wall seconds registering frames and submitting groups.
    ship_seconds: float = 0.0
    #: Wall seconds executing (inline calls plus waiting on workers).
    compute_seconds: float = 0.0
    #: Wall seconds adopting result slabs in the parent.
    gather_seconds: float = 0.0
    #: Worker-resident cache hits / fresh segment attaches.
    worker_cache_hits: int = 0
    worker_cache_attaches: int = 0
    #: Modelled time of the batch on one engine, no overlap (sum model).
    modeled_serial_seconds: float = 0.0
    #: Modelled makespan across ``workers`` engines with the
    #: block_A/block_B overlap model per call.
    modeled_pipelined_seconds: float = 0.0

    @property
    def modeled_speedup(self) -> float:
        """Serial-over-pipelined; 1.0 for an empty report."""
        if self.modeled_pipelined_seconds <= 0.0:
            return 1.0
        return self.modeled_serial_seconds / self.modeled_pipelined_seconds

    def to_dict(self, clock_hz: float = PCI_CLOCK_HZ) -> Dict[str, object]:
        """Schema-conforming books (see ``perf.report``)."""
        return base_report_dict(
            "batch",
            calls=self.calls,
            cycles=self.modeled_pipelined_seconds * clock_hz,
            cache={"worker_hits": self.worker_cache_hits,
                   "worker_attaches": self.worker_cache_attaches},
            shed=0,
            waves=self.waves,
            workers=self.workers,
            pool_calls=self.pool_calls,
            inline_calls=self.inline_calls,
            bypass_calls=self.bypass_calls,
            shm_calls=self.shm_calls,
            pickle_calls=self.pickle_calls,
            round_trips=self.round_trips,
            ship_seconds=self.ship_seconds,
            compute_seconds=self.compute_seconds,
            gather_seconds=self.gather_seconds,
            modeled_serial_seconds=self.modeled_serial_seconds,
            modeled_pipelined_seconds=self.modeled_pipelined_seconds,
            modeled_speedup=self.modeled_speedup,
        )


@dataclass
class ProgramOutcome:
    """Everything a scheduled program run produced."""

    #: Every named plane: the program inputs plus each step's output.
    planes: Dict[str, Frame] = field(default_factory=dict)
    #: Scalar results of reduce steps, keyed by step index.
    scalars: Dict[int, int] = field(default_factory=dict)

    def results(self, program: CallProgram) -> Tuple[Frame, ...]:
        """The program's declared result planes, in order."""
        return tuple(self.planes[name] for name in program.results)


@dataclass
class _Group:
    """One worker's share of a wave: call indices, input transport per
    call, the slab leased to each call, and the pending submission."""

    indices: List[int]
    transports: List[str]
    slabs: List[Optional[shm.SlabHandle]]
    future: Optional[Future]


class _PoolResources:
    """The teardown state of one scheduler, held *outside* it.

    ``weakref.finalize`` must not reference the scheduler (that would
    keep it alive forever), so the pool and the plane store live here:
    an abandoned scheduler is collectable, and its finalizer still
    shuts the pool down and unlinks every shared-memory segment --
    whether triggered by ``close()``, garbage collection, or interpreter
    exit.
    """

    __slots__ = ("pool", "store")

    def __init__(self) -> None:
        self.pool: Optional[ProcessPoolExecutor] = None
        self.store: Optional[shm.PlaneStore] = None

    def release(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        store, self.store = self.store, None
        if store is not None:
            store.close()


class CallScheduler(BatchExecutor):
    """Shards independent AddressLib calls across engine workers.

    The pool is created lazily on the first batched call and survives
    across batches (worker warm-up is paid once).  Any pool failure --
    a worker that cannot start, dies, or cannot unpickle -- flips the
    scheduler into inline mode for the rest of its life: results are
    then computed serially in the parent, still bit-exact, never lost.

    ``transport`` selects the input data path: ``"auto"`` (shared
    memory when available, pickle otherwise), ``"shm"`` (require shared
    memory), ``"pickle"`` (never use shared memory).  ``bypass``
    selects the inline-bypass policy: ``"auto"`` (cost model decides
    per call), ``"never"`` (ship every shippable call), ``"always"``
    (run everything inline in the parent).
    """

    def __init__(self, max_workers: Optional[int] = None,
                 timing: Optional[EngineTimingModel] = None,
                 special_inter_ops: Sequence[str] = (), *,
                 transport: str = "auto", bypass: str = "auto",
                 transport_model: Optional[TransportCostModel] = None,
                 sanitize: Optional[Sequence[str]] = None
                 ) -> None:
        if transport not in ("auto", "shm", "pickle"):
            raise ValueError(f"unknown transport {transport!r}")
        if bypass not in ("auto", "never", "always"):
            raise ValueError(f"unknown bypass policy {bypass!r}")
        if transport == "shm" and not shm.SHARED_MEMORY_AVAILABLE:
            raise ValueError("transport='shm' requires "
                             "multiprocessing.shared_memory")
        if sanitize is None:
            env = os.environ.get("REPRO_SANITIZE", "")
            sanitize = [part.strip() for part in env.split(",")
                        if part.strip()]
        self.sanitize_domains: Tuple[str, ...] = ()
        if sanitize:
            # Lazy: an unsanitized scheduler never imports the
            # sanitizer (or anything under repro.analysis).
            from ..analysis.sanitize import (ensure_sanitizer,
                                             normalize_domains)
            self.sanitize_domains = normalize_domains(sanitize)
            ensure_sanitizer(self.sanitize_domains)
        #: Runtime findings: the parent sanitizer's drained diagnostics
        #: plus every worker's, in collection order.
        self.sanitizer_findings: List["Diagnostic"] = []
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self.timing = timing or EngineTimingModel()
        #: Inter ops priced with ``requires_full_frames`` (the modelled
        #: overlap gives them no credit; see section 4.1).
        self.special_inter_ops = frozenset(special_inter_ops)
        self.transport = transport
        self.bypass = bypass
        self.transport_model = transport_model or TransportCostModel()
        self._resources = _PoolResources()
        self._finalizer = weakref.finalize(self, _PoolResources.release,
                                           self._resources)
        self._pool_broken = False
        self._closed = False
        self._cost_model = SoftwareCostModel()
        self._inline_cache: Dict[Tuple, float] = {}
        #: Measured pool round trip (None until the pool is probed).
        self._round_trip_s: Optional[float] = None
        #: Books of the most recent batch.
        self.last_report: Optional[BatchReport] = None
        #: Cumulative books across every batch this scheduler ran.
        self.total = BatchReport(workers=self.max_workers)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment.

        Idempotent, and safe from ``__del__``/atexit: teardown runs
        through a ``weakref.finalize`` that holds no reference to the
        scheduler, so an abandoned scheduler cleans up at garbage
        collection or interpreter exit.  A closed scheduler still
        computes batches -- inline, in the parent.
        """
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "CallScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._closed or self._pool_broken or self.max_workers < 2:
            return None
        if self._resources.pool is None:
            try:
                # The initializer drops worker-cache entries inherited
                # over fork(): they belong to the parent's store.
                self._resources.pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_worker_init,
                    initargs=(self.sanitize_domains,))
            except Exception:
                self._pool_broken = True
                return None
        return self._resources.pool

    def _ensure_store(self) -> Optional[shm.PlaneStore]:
        if self.transport == "pickle" or self._closed:
            return None
        store = self._resources.store
        if store is None:
            store = self._resources.store = shm.PlaneStore()
        return None if store.broken else store

    # -- op shipping ----------------------------------------------------------

    @staticmethod
    def _op_token(call: BatchCall) -> Optional[str]:
        """The name a worker can re-resolve to *exactly* ``call.op``.

        Identity (not name) is the test: a custom op that happens to
        share a registry name must not silently run the registry's code
        in a worker.  ``None`` means "execute inline".
        """
        name = call.op.name
        if call.mode is AddressingMode.INTER:
            return name if INTER_OPS.get(name) is call.op else None
        if INTRA_OPS.get(name) is call.op:
            return name
        if name.startswith(_KERNEL_PREFIX):
            base = name[len(_KERNEL_PREFIX):]
            if base in KERNEL_FACTORIES and kernel_by_name(base) is call.op:
                return name
        return None

    @staticmethod
    def _execute_inline(call: BatchCall) -> BatchOutcome:
        if call.mode is AddressingMode.INTER:
            assert isinstance(call.op, InterOp)
            if call.reduce_to_scalar:
                return BatchOutcome(scalar=VectorExecutor.inter_reduce(
                    call.op, call.frames[0], call.frames[1],
                    call.channels))
            return BatchOutcome(frame=VectorExecutor.inter(
                call.op, call.frames[0], call.frames[1], call.channels))
        assert isinstance(call.op, IntraOp)
        return BatchOutcome(frame=VectorExecutor.intra(
            call.op, call.frames[0], call.channels))

    @staticmethod
    def _outcome(kind: str, value: object) -> BatchOutcome:
        if kind == "scalar":
            assert isinstance(value, int)
            return BatchOutcome(scalar=value)
        assert isinstance(value, Frame)
        return BatchOutcome(frame=value)

    # -- modelled timing ------------------------------------------------------

    def _call_costs(self, call: BatchCall) -> Tuple[float, float]:
        """(serial-model, overlap-model) seconds of one call.

        Delegates to the stack's one pricing definition
        (:func:`repro.pool.pricing.call_cost_seconds`); imported lazily
        because the pool package itself builds on this module.
        """
        from ..pool.pricing import call_cost_seconds
        return call_cost_seconds(call, self.timing,
                                 self.special_inter_ops)

    def _modeled_wave(self, calls: Sequence[BatchCall]
                      ) -> Tuple[float, float]:
        """Price one wave: serial sum vs the list-scheduled makespan of
        per-call overlap-model costs across ``max_workers`` engines."""
        serial = 0.0
        costs: List[float] = []
        for call in calls:
            call_serial, call_overlapped = self._call_costs(call)
            serial += call_serial
            costs.append(call_overlapped)
        return serial, list_scheduled_makespan(costs, self.max_workers)

    # -- transport cost model -------------------------------------------------

    @property
    def _effective_workers(self) -> int:
        """Workers that can actually run concurrently on this host."""
        return min(self.max_workers, os.cpu_count() or 1)

    def _measured_round_trip(self, pool: ProcessPoolExecutor) -> float:
        """The pool's fixed submission cost, measured once.

        The first probe absorbs worker process start-up; only the
        second is timed.  A failed probe marks the pool broken and
        answers the model default.
        """
        if self._round_trip_s is None:
            try:
                pool.submit(_noop).result(timeout=60)
                start = time.perf_counter()
                pool.submit(_noop).result(timeout=60)
                self._round_trip_s = max(
                    time.perf_counter() - start, 1e-5)
            except Exception:
                self._pool_broken = True
                self._round_trip_s = self.transport_model.round_trip_s
        return self._round_trip_s

    def _inline_seconds(self, call: BatchCall) -> float:
        """Modeled parent-side execution time of one call (cached by
        call shape -- only registry ops reach this, so the op name is
        an exact identity)."""
        fmt = call.fmt
        key = (call.mode.value, call.op.name, fmt.name, fmt.width,
               fmt.height, call.channels, call.reduce_to_scalar)
        cached = self._inline_cache.get(key)
        if cached is None:
            if call.mode is AddressingMode.INTER:
                assert isinstance(call.op, InterOp)
                profile = self._cost_model.inter_profile(
                    call.op, fmt, call.channels)
            else:
                assert isinstance(call.op, IntraOp)
                profile = self._cost_model.intra_profile(
                    call.op, fmt, call.channels)
            cached = self.transport_model.inline_seconds(
                profile.total_instructions)
            self._inline_cache[key] = cached
        return cached

    def _ship_seconds(self, call: BatchCall, amortized_calls: int,
                      round_trip_s: float) -> float:
        """Modeled cost of shipping ``call`` to a worker and back."""
        store = self._resources.store
        zero_copy = (self.transport != "pickle"
                     and shm.SHARED_MEMORY_AVAILABLE
                     and (store is None or not store.broken))
        moved_frames = len(call.frames) + (0 if call.reduce_to_scalar
                                           else 1)
        payload = (0 if zero_copy
                   else shm.frame_payload_bytes(call.fmt) * moved_frames)
        return self.transport_model.ship_seconds(
            payload, moved_frames, zero_copy,
            amortized_calls=amortized_calls, round_trip_s=round_trip_s)

    def _should_bypass(self, call: BatchCall, amortized_calls: int,
                       round_trip_s: float) -> bool:
        """Inline when shipping cannot pay for itself.

        Shipping a call buys at most the fraction of its compute the
        other workers absorb (``1 - 1/effective_workers``); if that
        saving is below the modeled shipping cost, keep the call in
        the parent.
        """
        effective = self._effective_workers
        if effective < 2:
            return True
        saving = self._inline_seconds(call) * (1.0 - 1.0 / effective)
        return saving <= self._ship_seconds(call, amortized_calls,
                                            round_trip_s)

    # -- batch execution ------------------------------------------------------

    def compute_batch(self,
                      calls: Sequence[BatchCall]) -> List[BatchOutcome]:
        """Execute one wave of independent calls; outcomes in order.

        Four phases, each timed into the report: *plan* (op tokens and
        bypass decisions), *ship* (register frames, lease result slabs,
        one grouped submission per worker), *compute* (inline calls plus
        waiting on workers, with whole-group inline fallback on any pool
        failure), *gather* (adopt the result slabs).
        """
        calls = list(calls)
        outcomes: List[Optional[BatchOutcome]] = [None] * len(calls)
        report = BatchReport(calls=len(calls), waves=1,
                             workers=self.max_workers)

        observer = shm.get_transport_observer()
        if observer is not None:
            observer.wave_opened()
        tokens = [self._op_token(call) for call in calls]
        pool = self._ensure_pool() if len(calls) > 1 else None
        shipped, bypassed = self._plan(calls, tokens, pool, report)
        shipped_set: Set[int] = set(shipped)

        # Ship: register every distinct frame once, lease result slabs,
        # submit one grouped job list per worker.
        groups: List[_Group] = []
        if shipped:
            start = time.perf_counter()
            groups = self._ship(calls, tokens, shipped, pool, report)
            report.ship_seconds = time.perf_counter() - start

        # Compute: inline work runs while the workers chew on theirs;
        # then collect each group, falling back inline group-wise.
        start = time.perf_counter()
        for index, call in enumerate(calls):
            if index in shipped_set:
                continue
            outcomes[index] = self._execute_inline(call)
            if index in bypassed:
                report.bypass_calls += 1
            else:
                report.inline_calls += 1
        store = self._resources.store
        collected = []
        for group in groups:
            items = self._collect(group.future, report)
            if items is None or len(items) != len(group.indices):
                self._pool_broken = True
                self._recycle(store, group.slabs)
                for index in group.indices:
                    outcomes[index] = self._execute_inline(calls[index])
                    report.inline_calls += 1
                continue
            collected.append((group, items))
        report.compute_seconds = time.perf_counter() - start

        # Gather: adopt the result slabs as zero-copy frames.
        start = time.perf_counter()
        for group, items in collected:
            for index, transport, slab, (kind, value) in zip(
                    group.indices, group.transports, group.slabs, items):
                if kind == "slab":
                    assert store is not None and slab is not None
                    frame = store.adopt_slab(slab, calls[index].fmt)
                    if frame is None:
                        outcomes[index] = self._execute_inline(
                            calls[index])
                        report.inline_calls += 1
                        continue
                    outcomes[index] = BatchOutcome(frame=frame)
                else:
                    self._recycle(store, (slab,))
                    outcomes[index] = self._outcome(kind, value)
                report.pool_calls += 1
                if transport == "shm":
                    report.shm_calls += 1
                else:
                    report.pickle_calls += 1
        report.gather_seconds = time.perf_counter() - start

        serial, pipelined = self._modeled_wave(calls)
        report.modeled_serial_seconds = serial
        report.modeled_pipelined_seconds = pipelined
        self._account(report)
        if observer is not None:
            observer.wave_closed()
        if self.sanitize_domains:
            from ..analysis import sanitize as _sanitize
            sanitizer = _sanitize.active_sanitizer()
            if sanitizer is not None:
                self.sanitizer_findings.extend(sanitizer.drain())
        assert all(outcome is not None for outcome in outcomes)
        return [outcome for outcome in outcomes if outcome is not None]

    def _plan(self, calls: Sequence[BatchCall],
              tokens: Sequence[Optional[str]],
              pool: Optional[ProcessPoolExecutor],
              report: BatchReport) -> Tuple[List[int], Set[int]]:
        """Split the wave into shipped and bypassed call indices.

        Calls without a pool or a registry token are neither: they run
        inline unconditionally (counted as ``inline_calls``).
        """
        candidates = [index for index, token in enumerate(tokens)
                      if token is not None and pool is not None]
        if not candidates:
            return [], set()
        if self.bypass == "always":
            return [], set(candidates)
        if self.bypass == "never":
            return candidates, set()
        if self._effective_workers < 2:
            # Nothing can run concurrently: shipping only adds cost.
            return [], set(candidates)
        assert pool is not None
        round_trip = self._measured_round_trip(pool)
        if self._pool_broken:
            return [], set(candidates)
        groups = min(self.max_workers, len(candidates))
        amortized = max(1, -(-len(candidates) // groups))
        shipped, bypassed = [], set()
        for index in candidates:
            if self._should_bypass(calls[index], amortized, round_trip):
                bypassed.add(index)
            else:
                shipped.append(index)
        return shipped, bypassed

    def _ship(self, calls: Sequence[BatchCall],
              tokens: Sequence[Optional[str]], shipped: List[int],
              pool: Optional[ProcessPoolExecutor], report: BatchReport
              ) -> List[_Group]:
        """Register each distinct input frame once, lease a result slab
        to each job that produces a frame, and submit one job group per
        worker."""
        store = self._ensure_store()
        observer = shm.get_transport_observer()
        # Every frame of the wave is alive (the calls hold them), so
        # id() names one frame for the whole pass.
        specs_by_frame: Dict[int, Tuple[str, object]] = {}
        groups = []
        for indices in self._group_by_worker(shipped, calls):
            jobs: List[_Job] = []
            transports: List[str] = []
            slabs: List[Optional[shm.SlabHandle]] = []
            for index in indices:
                call = calls[index]
                specs = []
                for frame in call.frames:
                    spec = specs_by_frame.get(id(frame))
                    if spec is None:
                        spec = self._frame_spec(store, frame, observer)
                        specs_by_frame[id(frame)] = spec
                    specs.append(spec)
                transports.append(
                    "shm" if all(k == "shm" for k, _ in specs)
                    else "pickle")
                slab = (store.lease_slab(call.fmt)
                        if store is not None and not call.reduce_to_scalar
                        else None)
                slabs.append(slab)
                token = tokens[index]
                assert token is not None
                jobs.append((call.mode.value, token,
                             call.reduce_to_scalar, call.channels,
                             tuple(specs), slab))
            future: Optional[Future] = None
            try:
                assert pool is not None
                future = pool.submit(_execute_wave, jobs,
                                     self.sanitize_domains)
                report.round_trips += 1
            except Exception:
                self._pool_broken = True
            groups.append(_Group(list(indices), transports, slabs, future))
        return groups

    @staticmethod
    def _frame_spec(store: Optional[shm.PlaneStore], frame: Frame,
                    observer: Optional[shm.TransportObserver]
                    ) -> Tuple[str, object]:
        """How ``frame`` travels: its store handle, or the frame itself
        when shared memory is off or broke."""
        handle = store.register(frame) if store is not None else None
        if handle is None:
            return ("pickle", frame)
        if observer is not None:
            observer.handle_shipped(handle)
        return ("shm", handle)

    @staticmethod
    def _recycle(store: Optional[shm.PlaneStore],
                 slabs: Sequence[Optional[shm.SlabHandle]]) -> None:
        """Return slabs whose jobs delivered nothing into them."""
        for slab in slabs:
            if slab is not None and store is not None:
                store.recycle_slab(slab)

    def _group_by_worker(self, indices: List[int],
                         calls: Sequence[BatchCall]) -> List[List[int]]:
        """Deterministic LPT grouping of the shipped calls onto at most
        ``max_workers`` groups -- one submission (round trip) each.

        Costs come from the overlap timing model (the same figures the
        modelled makespan uses); ties break on submission index, so the
        grouping is stable across runs.
        """
        n_groups = min(self.max_workers, len(indices))
        if n_groups <= 1:
            return [list(indices)]
        ranked = sorted(((self._call_costs(calls[i])[1], i)
                         for i in indices),
                        key=lambda pair: (-pair[0], pair[1]))
        loads = [0.0] * n_groups
        groups: List[List[int]] = [[] for _ in range(n_groups)]
        for cost, index in ranked:
            slot = min(range(n_groups), key=lambda g: (loads[g], g))
            loads[slot] += cost
            groups[slot].append(index)
        for group in groups:
            group.sort()
        return [group for group in groups if group]

    def _collect(self, future: Optional[Future], report: BatchReport
                 ) -> Optional[List[Tuple[str, object]]]:
        """One group's results, or ``None`` after any pool failure."""
        if future is None:
            return None
        try:
            items, stats = future.result()
        except Exception:
            # Worker died or the payload would not round-trip:
            # recompute inline, flag the pool, keep the batch whole.
            self._pool_broken = True
            return None
        hits = stats.get("cache_hits", 0)
        attaches = stats.get("attaches", 0)
        report.worker_cache_hits += hits if isinstance(hits, int) else 0
        report.worker_cache_attaches += (attaches
                                         if isinstance(attaches, int)
                                         else 0)
        findings = stats.get("findings")
        if isinstance(findings, list):
            self.sanitizer_findings.extend(findings)
        return items

    def _account(self, report: BatchReport) -> None:
        self.last_report = report
        self.total.calls += report.calls
        self.total.waves += report.waves
        self.total.pool_calls += report.pool_calls
        self.total.inline_calls += report.inline_calls
        self.total.bypass_calls += report.bypass_calls
        self.total.shm_calls += report.shm_calls
        self.total.pickle_calls += report.pickle_calls
        self.total.round_trips += report.round_trips
        self.total.ship_seconds += report.ship_seconds
        self.total.compute_seconds += report.compute_seconds
        self.total.gather_seconds += report.gather_seconds
        self.total.worker_cache_hits += report.worker_cache_hits
        self.total.worker_cache_attaches += report.worker_cache_attaches
        self.total.modeled_serial_seconds += report.modeled_serial_seconds
        self.total.modeled_pipelined_seconds += (
            report.modeled_pipelined_seconds)

    def transport_stats(self) -> Dict[str, object]:
        """The transport books: scheduler counters plus store state."""
        store = self._resources.store
        return {
            "transport": self.transport,
            "bypass": self.bypass,
            "round_trip_s": self._round_trip_s,
            "round_trips": self.total.round_trips,
            "pool_calls": self.total.pool_calls,
            "inline_calls": self.total.inline_calls,
            "bypass_calls": self.total.bypass_calls,
            "shm_calls": self.total.shm_calls,
            "pickle_calls": self.total.pickle_calls,
            "worker_cache_hits": self.total.worker_cache_hits,
            "worker_cache_attaches": self.total.worker_cache_attaches,
            "store": store.stats() if store is not None else {},
        }

    # -- whole-program execution ----------------------------------------------

    @staticmethod
    def _step_call(step: ProgramStep,
                   planes: Dict[str, Frame]) -> BatchCall:
        try:
            frames = tuple(planes[name] for name in step.inputs)
        except KeyError as missing:
            raise ValueError(
                f"program step {step.index} reads undefined plane "
                f"{missing.args[0]!r}") from None
        return BatchCall(mode=step.mode, op=step.op, frames=frames,
                         channels=step.channels,
                         reduce_to_scalar=step.reduce_to_scalar)

    def run_program(self, program: CallProgram,
                    inputs: Sequence[Frame]) -> ProgramOutcome:
        """Execute a whole call program, wavefront by wavefront.

        Steps inside one dependency level are mutually independent (the
        RAW/WAW/WAR edges of
        :func:`~repro.addresslib.program.dependency_edges` all cross
        levels), so each level is one :meth:`compute_batch` wave.
        Results are bit-exact with executing the steps in program order.
        """
        if len(inputs) != len(program.inputs):
            raise ValueError(
                f"program {program.name!r} takes {len(program.inputs)} "
                f"inputs, got {len(inputs)}")
        outcome = ProgramOutcome(
            planes=dict(zip(program.inputs, inputs)))
        for level in dependency_levels(program):
            steps = [program.steps[index] for index in level]
            batch = [self._step_call(step, outcome.planes)
                     for step in steps]
            results = self.compute_batch(batch)
            for step, result in zip(steps, results):
                if step.reduce_to_scalar:
                    assert result.scalar is not None
                    outcome.scalars[step.index] = result.scalar
                else:
                    assert result.frame is not None
                    if step.output is not None:
                        outcome.planes[step.output] = result.frame
        return outcome
