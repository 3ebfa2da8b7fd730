"""The pipelined call scheduler: sharding call batches across engines.

The paper's engine overlaps DMA and processing *within* one call via the
block_A/block_B double buffer (section 4.1); the natural host-side dual
is overlapping *whole calls* that do not depend on each other.  This
module supplies that second axis:

* :class:`CallScheduler` executes batches of independent AddressLib
  calls concurrently on its *engines*: the parent process itself plus
  ``min(max_workers, os.cpu_count()) - 1`` engine worker processes --
  the host is one of the processing elements, as on the board, whose
  double-buffered strips keep the host busy while the coprocessor
  computes;
* a wave is cut, in submission order, into one contiguous run per
  engine, balanced by what its calls cost in software: the wall time
  each kind of call has taken in its runs so far, in the parent or a
  worker (the overlap-model costs the modelled makespan prices, until
  every kind of call in the wave has run once).  The parent submits the
  workers' runs first (one grouped submission, one round trip, per
  worker), then computes the last run itself (``bypass_calls``),
  reading its inputs in place -- no round trip for those calls -- and
  then collects the workers' results.  The workers take the head of
  the wave, so the frames only the tail reads (a batch's cross-frame
  reduces, say) are never registered.  On a one-CPU host the parent's
  run is the whole wave and nothing forks;
* frames move to workers *zero-copy and at most once*: each distinct
  input frame of the workers' runs is registered in a shared-memory
  :class:`~repro.host.shm.PlaneStore` once per wave and shipped as a
  small handle, and workers keep attached segments in a resident cache
  across waves;
* a frame result is written once and only where its op computes: a
  worker writes the computed planes straight into a recycled result
  slab the store leases, and the parent adopts the slab in place,
  attaching the first input's store snapshot as the planes the op
  left untouched -- shared read-only, copied only if someone asks to
  write one (:meth:`~repro.image.frame.Frame.plane`).  Once a store
  exists, the parent computes its own run's results the same way: it
  registers the first input of each of its frame results (after the
  workers' runs are submitted) and computes into slabs it adopts
  first.  Recycled slabs keep their pages, where fresh result planes
  would be faulted in anew every wave once the allocator had handed
  the freed ones back.  A wave with nothing to ship makes no store, so
  a one-CPU host computes into fresh planes and shares the untouched
  ones with the input itself, exactly as serial execution does;
* every batch is also *priced* under both timing models -- the serial
  (sum) model and the double-buffered overlap model of
  :class:`~repro.perf.timing.EngineTimingModel` -- list-scheduled onto
  ``max_workers`` virtual engines, so a batch reports the modelled
  makespan speedup a multi-board deployment would see, independent of
  how many CPUs this host happens to have.

Shared memory is the only transport.  A call of a worker's run that
cannot take it -- no shared memory on the platform, a store that fails
while its wave ships, a slab its worker cannot write, a worker that
dies -- runs inline in the parent instead.

Bit-exactness is by construction: every engine runs the *same*
:class:`~repro.addresslib.executor.VectorExecutor` kernel step (only
the sink differs: slab planes instead of fresh ones), an untouched
plane is the input's content as registered in this wave, and outcomes
are collected by submission index, so results are identical to serial
execution wherever a call ran.

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
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

if TYPE_CHECKING:
    from ..analysis.diagnostics import Diagnostic

from ..addresslib.addressing import AddressingMode
from ..addresslib.executor import VectorExecutor, channels_of
from ..addresslib.kernels import KERNEL_FACTORIES, kernel_by_name
from ..addresslib.library import BatchCall, BatchExecutor, BatchOutcome
from ..addresslib.ops import (ChannelSet, InterOp, INTER_OPS, INTRA_OPS,
                              IntraOp)
from ..core.pci import PCI_CLOCK_HZ
from ..image.frame import Frame
from ..perf.report import base_report_dict
from ..perf.timing import EngineTimingModel, list_scheduled_makespan
from . import shm

_KERNEL_PREFIX = "kernel_"

#: One call as shipped to a worker: mode, op token, channel set, the
#: input frames' store handles, and the result slab leased to a call
#: that produces a frame (``None`` for a reduce).
_Job = Tuple[str, str, ChannelSet, Tuple[shm.FrameHandle, ...],
             Optional[shm.SlabHandle]]

#: A kind of shippable call, as the cut prices it: op name, frame
#: width and height, channel set, and whether it reduces to a scalar.
_Kind = Tuple[str, int, int, ChannelSet, bool]


def _resolve_op(mode_value: str, op_name: str) -> Union[InterOp, IntraOp]:
    """Re-resolve a shipped op token against the worker's registries."""
    if mode_value == AddressingMode.INTER.value:
        return INTER_OPS[op_name]
    if op_name in INTRA_OPS:
        return INTRA_OPS[op_name]
    return kernel_by_name(op_name[len(_KERNEL_PREFIX):])


def _worker_init(sanitized: bool) -> None:
    """Pool-worker initializer: fork hygiene plus optional sanitizing.

    Drops worker-cache entries and any transport observer inherited
    over ``fork()`` (both belong to the parent process), then installs
    a fresh worker-side sanitizer when the parent has one installed --
    its findings ship back with each wave's stats.
    """
    shm.reset_worker_cache()
    shm.set_transport_observer(None)
    if sanitized:
        try:
            from ..analysis import sanitize as _sanitize
            _sanitize.reset_for_worker()
            _sanitize.install_sanitizer()
        except Exception:  # pragma: no cover - sanitizing is advisory
            pass


def _execute_wave(jobs: Sequence[_Job], sanitized: bool
                  ) -> Tuple[List[Union[int, bool]], Dict[str, object]]:
    """Worker-side execution of one worker's run of a wave.

    Runs in an engine worker process.  Input frames arrive as
    shared-memory handles, attached through the worker-resident cache;
    a frame result is computed straight into its job's leased slab.
    Returns one value per job, in job order -- a reduce's scalar, or
    whether the result frame went into the slab (``False`` sends that
    call back to the parent to run inline) -- plus the stats of this
    trip: the cache counters, each job's wall seconds (what the next
    cut balances) and, when sanitized, the worker's drained findings.
    """
    results: List[Union[int, bool]] = []
    seconds: List[float] = []
    stats: Dict[str, object] = {"cache_hits": 0, "attaches": 0,
                                "seconds": seconds}
    for mode_value, op_name, channels, handles, slab in jobs:
        start = time.perf_counter()
        frames: List[Frame] = []
        for handle in handles:
            frame, hit = shm.worker_attach(handle)
            stats["cache_hits" if hit else "attaches"] += 1
            frames.append(frame)
        op = _resolve_op(mode_value, op_name)
        if slab is None:
            scalar = VectorExecutor.wave(op, [frames], channels,
                                         reduce_to_scalar=True)[0]
            assert isinstance(scalar, int)
            results.append(scalar)
        else:
            result = shm.worker_result_frame(slab, frames[0].format)
            if result is not None:
                VectorExecutor.wave_into(op, [frames], channels, [result])
            results.append(result is not None)
        seconds.append(time.perf_counter() - start)
    if sanitized:
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
    #: Calls executed in worker processes (over shared memory).
    pool_calls: int = 0
    #: Calls executed inline in the parent because they could not go
    #: to a worker (unresolvable op, no shared memory, or a failed
    #: pool, store or slab).
    inline_calls: int = 0
    #: Calls the parent ran as its own run of a wave (the whole wave
    #: on a one-CPU host).
    bypass_calls: int = 0
    #: Grouped submissions (one per worker run per wave).
    round_trips: int = 0
    #: Wall seconds registering frames and submitting groups.
    ship_seconds: float = 0.0
    #: Wall seconds executing in the parent (its own run and inline
    #: calls) plus waiting on workers.
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
            round_trips=self.round_trips,
            ship_seconds=self.ship_seconds,
            compute_seconds=self.compute_seconds,
            gather_seconds=self.gather_seconds,
            modeled_serial_seconds=self.modeled_serial_seconds,
            modeled_pipelined_seconds=self.modeled_pipelined_seconds,
            modeled_speedup=self.modeled_speedup,
        )


@dataclass
class _Group:
    """One worker's run of a wave: call indices, the slab leased to
    each call, and the pending submission."""

    indices: List[int]
    slabs: List[Optional[shm.SlabHandle]]
    future: Optional[Future] = None


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

    def drop_pool(self, wait: bool = False) -> None:
        """Shut the pool down, cancelling queued work.  A batch drops a
        broken pool without waiting; teardown waits for the workers and
        the executor's management thread to exit, so none outlives
        ``close()`` -- a thread still running at interpreter exit would
        race ``concurrent.futures``' exit hook, which writes to the
        wakeup pipe the thread closes on its way out."""
        pool, self.pool = self.pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=wait, cancel_futures=True)
            except Exception:
                pass

    def drop_store(self) -> None:
        store, self.store = self.store, None
        if store is not None:
            store.close()

    def release(self) -> None:
        self.drop_pool(wait=True)
        self.drop_store()


class CallScheduler(BatchExecutor):
    """Shards independent AddressLib calls across engines: the parent
    and its engine worker processes.

    The pool is created lazily on the first wave that has a run for a
    worker and survives across batches (worker warm-up is paid once).
    Frames reach the workers as plane-store handles and results return
    through slabs.  A call of a worker's run that cannot go that way --
    no shared memory, a store that fails while its wave ships, a slab
    its worker cannot write, a worker that cannot start or dies -- runs
    inline in the parent, still bit-exact, never lost.  A failed pool
    or store is shut down and dropped; the next batch builds a fresh
    one.

    ``max_workers`` engines price each batch's modelled makespan; at
    most one engine per CPU of them runs, the parent being one.

    A scheduler built while a transport sanitizer is installed
    (:func:`~repro.analysis.sanitize.install_sanitizer`) arms its
    workers with sanitizers of their own and collects every finding
    into :attr:`sanitizer_findings`.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        #: Whether a sanitizer was installed at construction; when not,
        #: the scheduler never drains findings nor imports
        #: :mod:`repro.analysis.sanitize`.
        self.sanitized = False
        if shm.get_transport_observer() is not None:
            from ..analysis.sanitize import active_sanitizer
            self.sanitized = active_sanitizer() is not None
        #: Runtime findings: the parent sanitizer's drained diagnostics
        #: plus every worker's, in collection order.
        self.sanitizer_findings: List["Diagnostic"] = []
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        #: Engines that run: the parent plus one worker process per
        #: further CPU (more than one engine per CPU would only contend).
        self._engines = min(self.max_workers, os.cpu_count() or 1)
        self.timing = EngineTimingModel()
        # The stack's one pricing definition, imported here because the
        # pool package itself builds on this module.
        from ..pool import pricing
        self._pricing = pricing
        self._resources = _PoolResources()
        self._finalizer = weakref.finalize(self, _PoolResources.release,
                                           self._resources)
        self._closed = False
        #: Wall seconds of each kind of call the engines have run: a
        #: running mean over its runs, in the parent or a worker.
        self._seconds: Dict[_Kind, float] = {}
        #: Books of the most recent batch.
        self.last_report: Optional[BatchReport] = None
        #: Cumulative books across every batch this scheduler ran.
        self.total = BatchReport(workers=self.max_workers)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down, waiting for its workers to exit, and
        unlink every shared-memory segment.

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
        """The worker pool, or ``None``: the wave runs inline."""
        if self._closed or not shm.SHARED_MEMORY_AVAILABLE:
            return None
        if self._resources.pool is None:
            try:
                # The initializer drops worker-cache entries inherited
                # over fork(): they belong to the parent's store.
                self._resources.pool = ProcessPoolExecutor(
                    max_workers=self._engines - 1,
                    initializer=_worker_init,
                    initargs=(self.sanitized,))
            except Exception:
                return None
        return self._resources.pool

    def _ensure_store(self) -> shm.PlaneStore:
        if self._resources.store is None:
            self._resources.store = shm.PlaneStore()
        return self._resources.store

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
        """Run one call in the parent with the shared vector executor."""
        op, frames, channels = call.op, call.frames, call.channels
        if isinstance(op, InterOp):
            if call.reduce_to_scalar:
                return BatchOutcome(scalar=VectorExecutor.inter_reduce(
                    op, frames[0], frames[1], channels))
            return BatchOutcome(frame=VectorExecutor.inter(
                op, frames[0], frames[1], channels))
        return BatchOutcome(frame=VectorExecutor.intra(op, frames[0],
                                                       channels))

    @classmethod
    def _execute_own(cls, call: BatchCall, store: Optional[shm.PlaneStore],
                     registered: Dict[int, shm.FrameHandle]
                     ) -> BatchOutcome:
        """Run one call of the parent's own run: its inputs are read in
        place, and a frame result is computed straight into a recycled
        slab of ``store`` -- a worker's sink, without the round trip.
        Without a store, a first input ``registered`` in this wave or a
        slab it runs inline."""
        if (store is None or call.reduce_to_scalar
                or id(call.frames[0]) not in registered):
            return cls._execute_inline(call)
        slab = store.lease_slab(call.fmt)
        frame = cls._adopt(store, slab, call) if slab else None
        if frame is None:
            return cls._execute_inline(call)
        VectorExecutor.wave_into(call.op, [call.frames], call.channels,
                                 [frame])
        return BatchOutcome(frame=frame)

    @staticmethod
    def _adopt(store: shm.PlaneStore, slab: shm.SlabHandle,
               call: BatchCall) -> Optional[Frame]:
        """``call``'s result frame over its leased ``slab``: the planes
        its op computes are the slab's, and every other plane is its
        first input's store snapshot, shared.  ``None`` when the store
        can give neither any more (it closed)."""
        snapshot = store.snapshot(call.frames[0])
        if snapshot is None:
            return None
        computed = channels_of(call.channels)
        return store.adopt_slab(slab, call.fmt, {
            channel: plane for channel, plane in snapshot.items()
            if channel not in computed})

    @staticmethod
    def _register_own(store: shm.PlaneStore, calls: Sequence[BatchCall],
                      own: Sequence[int],
                      registered: Dict[int, shm.FrameHandle]) -> None:
        """Register the first input of each frame result of the parent's
        own run that the workers' runs did not register, once per
        frame: the snapshot its untouched planes share.  A frame the
        store cannot take stays out of ``registered``, and its calls
        run inline."""
        for index in own:
            call = calls[index]
            frame = call.frames[0]
            if call.reduce_to_scalar or id(frame) in registered:
                continue
            handle = store.register(frame)
            if handle is not None:
                registered[id(frame)] = handle

    # -- modelled timing ------------------------------------------------------

    def _call_costs(self, call: BatchCall) -> Tuple[float, float]:
        """(serial-model, overlap-model) seconds of one call, from the
        stack's one pricing definition
        (:func:`repro.pool.pricing.call_cost_seconds`)."""
        return self._pricing.call_cost_seconds(call, self.timing)

    def _modeled_wave(self, priced: Sequence[Tuple[float, float]]
                      ) -> Tuple[float, float]:
        """Price one wave from its calls' ``(serial, overlap-model)``
        costs: the serial sum vs the list-scheduled makespan of the
        overlap-model costs across ``max_workers`` engines."""
        return (sum(serial for serial, _ in priced),
                list_scheduled_makespan(
                    [overlapped for _, overlapped in priced],
                    self.max_workers))

    # -- batch execution ------------------------------------------------------

    def compute_batch(self,
                      calls: Sequence[BatchCall]) -> List[BatchOutcome]:
        """Execute one wave of independent calls; outcomes in order.

        Four phases, each timed into the report: *plan* (op tokens, and
        the cut into one run per engine), *ship* (register the workers'
        frames, lease result slabs, one grouped submission per worker
        run), *compute* (register the first inputs of the parent's own
        frame results, compute its run, any call that could not ship,
        then wait on the workers, with whole-run inline fallback on any
        pool failure), *gather* (adopt the result slabs with their
        snapshot planes; a slab the worker could not write runs its
        call inline).
        """
        calls = list(calls)
        outcomes: List[Optional[BatchOutcome]] = [None] * len(calls)
        report = BatchReport(calls=len(calls), waves=1,
                             workers=self.max_workers)

        observer = shm.get_transport_observer()
        if observer is not None:
            observer.wave_opened()
        tokens = [self._op_token(call) for call in calls]
        priced = [self._call_costs(call) for call in calls]
        *runs, own = self._engine_runs(
            calls, [index for index, token in enumerate(tokens)
                    if token is not None],
            [overlapped for _, overlapped in priced])
        runs = [run for run in runs if run]
        pool = self._ensure_pool() if runs else None

        # Ship: register every distinct frame of the workers' runs
        # once, lease result slabs, submit one job list per run.
        groups: List[_Group] = []
        # The handle of every frame registered in this wave, by id():
        # the frames whose snapshot holds their current content.
        registered: Dict[int, shm.FrameHandle] = {}
        if pool is not None:
            start = time.perf_counter()
            groups = self._ship(calls, tokens, runs, pool, report,
                                registered)
            report.ship_seconds = time.perf_counter() - start
        shipped = {index for group in groups for index in group.indices}

        # Compute: the parent's own run while the workers chew on
        # theirs, then every call that did not ship; then collect each
        # group, falling back inline group-wise.
        start = time.perf_counter()
        store = self._resources.store  # None if shipping broke it
        if store is not None:
            self._register_own(store, calls, own, registered)
        for index in own:
            began = time.perf_counter()
            outcomes[index] = self._execute_own(calls[index], store,
                                                registered)
            if runs:
                self._learn(calls[index], time.perf_counter() - began)
        report.bypass_calls = len(own)
        for index, call in enumerate(calls):
            if outcomes[index] is None and index not in shipped:
                outcomes[index] = self._execute_inline(call)
                report.inline_calls += 1
        collected = []
        pool_failed = False
        for group in groups:
            assert store is not None
            items = self._collect(group, calls, report)
            if items is None or len(items) != len(group.indices):
                pool_failed = True
                self._recycle(store, group.slabs)
                for index in group.indices:
                    outcomes[index] = self._execute_inline(calls[index])
                    report.inline_calls += 1
                continue
            collected.append((group, items))
        if pool_failed:
            self._resources.drop_pool()  # the next batch forks afresh
        report.compute_seconds = time.perf_counter() - start

        # Gather: adopt the result slabs as zero-copy frames, their
        # untouched planes shared with the inputs' snapshots.
        start = time.perf_counter()
        for group, items in collected:
            assert store is not None
            for index, slab, value in zip(group.indices, group.slabs,
                                          items):
                call = calls[index]
                if slab is None:  # a reduce: the value is its scalar
                    outcomes[index] = BatchOutcome(scalar=value)
                else:
                    frame = self._adopt(store, slab, call) if value else None
                    if frame is None:
                        store.recycle_slab(slab)
                        outcomes[index] = self._execute_inline(call)
                        report.inline_calls += 1
                        continue
                    outcomes[index] = BatchOutcome(frame=frame)
                report.pool_calls += 1
        report.gather_seconds = time.perf_counter() - start

        serial, pipelined = self._modeled_wave(priced)
        report.modeled_serial_seconds = serial
        report.modeled_pipelined_seconds = pipelined
        self._account(report)
        if observer is not None:
            observer.wave_closed()
        if self.sanitized:
            from ..analysis import sanitize as _sanitize
            sanitizer = _sanitize.active_sanitizer()
            if sanitizer is not None:
                self.sanitizer_findings.extend(sanitizer.drain())
        assert all(outcome is not None for outcome in outcomes)
        return [outcome for outcome in outcomes if outcome is not None]

    @staticmethod
    def _kind(call: BatchCall) -> _Kind:
        fmt = call.fmt
        return (call.op.name, fmt.width, fmt.height, call.channels,
                call.reduce_to_scalar)

    def _learn(self, call: BatchCall, seconds: float) -> None:
        """Fold one run's wall ``seconds`` into its kind's mean."""
        kind = self._kind(call)
        known = self._seconds.get(kind)
        self._seconds[kind] = (seconds if known is None
                               else (known + seconds) / 2.0)

    def _engine_runs(self, calls: Sequence[BatchCall],
                     indices: Sequence[int],
                     overlapped: Sequence[float]) -> List[List[int]]:
        """Cut the calls at ``indices`` (in submission order) into one
        contiguous run per engine: one per worker process, then the
        parent's.  ``overlapped`` holds every call's overlap-model
        cost, by call index.

        A run is balanced by what its calls cost in software: each
        call's kind is priced at the wall seconds its runs took so far
        (:meth:`_learn`).  A kind no engine has run yet is priced at
        its overlap-model cost (the one the modelled makespan prices)
        scaled by the measured-to-model ratio of the wave's kinds that
        have run -- so one new kind keeps every other kind's
        measurement -- and with no kind measured every call is priced
        at its model cost.  Each run ends where the running total comes
        nearest to its engines' share, a tie going to the longer run.
        The parent's run always holds the last call, as the parent pays
        no round trip: a one-call wave is the parent's, and a
        one-engine host's parent runs the whole wave.
        """
        if self._engines == 1:
            return [list(indices)]
        kinds = [self._kind(calls[index]) for index in indices]
        # Each measured kind's (measured, model) seconds, once per kind.
        ran = {kind: (self._seconds[kind], overlapped[index])
               for kind, index in zip(kinds, indices)
               if kind in self._seconds}
        modeled = sum(model for _, model in ran.values())
        scale = (sum(seconds for seconds, _ in ran.values()) / modeled
                 if modeled > 0.0 else 1.0)
        costs = [self._seconds[kind] if kind in ran
                 else overlapped[index] * scale
                 for kind, index in zip(kinds, indices)]
        total = sum(costs)
        runs: List[List[int]] = []
        start = end = 0
        done = 0.0
        for engine in range(1, self._engines):
            target = total * engine / self._engines
            while end < len(costs) - 1 and (
                    abs(done + costs[end] - target) <= abs(done - target)):
                done += costs[end]
                end += 1
            runs.append(list(indices[start:end]))
            start = end
        runs.append(list(indices[start:]))
        return runs

    def _ship(self, calls: Sequence[BatchCall],
              tokens: Sequence[Optional[str]], runs: List[List[int]],
              pool: ProcessPoolExecutor, report: BatchReport,
              handles: Dict[int, shm.FrameHandle]) -> List[_Group]:
        """Register each distinct input frame of the workers' ``runs``
        once (into ``handles``, by frame id), lease a result slab to
        each call that produces a frame, and submit one job group per
        run.

        Nothing is submitted until the whole of the runs is in the
        store.  A store that fails on the way is closed and dropped,
        and no group ships: every call of the runs runs inline.  A
        group whose submission fails has no future and runs inline when
        collected.
        """
        store = self._ensure_store()
        observer = shm.get_transport_observer()
        # Every frame of the wave is alive (the calls hold them), so
        # id() names one frame for the whole pass.
        for frame in {id(frame): frame for run in runs for index in run
                      for frame in calls[index].frames}.values():
            handle = store.register(frame)
            if handle is None:
                self._resources.drop_store()
                return []
            if observer is not None:
                observer.handle_shipped(handle)
            handles[id(frame)] = handle
        groups = [_Group(run, [None if calls[index].reduce_to_scalar
                               else store.lease_slab(calls[index].fmt)
                               for index in run])
                  for run in runs]
        if store.broken:
            self._resources.drop_store()  # unlinks the leased slabs
            return []
        for group in groups:
            jobs: List[_Job] = []
            for index, slab in zip(group.indices, group.slabs):
                call, token = calls[index], tokens[index]
                assert token is not None
                jobs.append((call.mode.value, token, call.channels,
                             tuple(handles[id(frame)]
                                   for frame in call.frames), slab))
            try:
                group.future = pool.submit(_execute_wave, jobs,
                                           self.sanitized)
                report.round_trips += 1
            except Exception:
                pass  # no future: the group runs inline when collected
        return groups

    @staticmethod
    def _recycle(store: shm.PlaneStore,
                 slabs: Sequence[Optional[shm.SlabHandle]]) -> None:
        """Return slabs whose jobs delivered nothing into them."""
        for slab in slabs:
            if slab is not None:
                store.recycle_slab(slab)

    def _collect(self, group: _Group, calls: Sequence[BatchCall],
                 report: BatchReport) -> Optional[List[Union[int, bool]]]:
        """One group's results, or ``None`` after any pool failure."""
        if group.future is None:
            return None
        try:
            items, stats = group.future.result()
        except Exception:
            # A worker died or the trip failed: the caller recomputes
            # the group inline and replaces the pool.
            return None
        seconds = stats.get("seconds")
        if isinstance(seconds, list):
            for index, spent in zip(group.indices, seconds):
                self._learn(calls[index], spent)
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
            "round_trips": self.total.round_trips,
            "pool_calls": self.total.pool_calls,
            "inline_calls": self.total.inline_calls,
            "bypass_calls": self.total.bypass_calls,
            "worker_cache_hits": self.total.worker_cache_hits,
            "worker_cache_attaches": self.total.worker_cache_attaches,
            "store": store.stats() if store is not None else {},
        }
