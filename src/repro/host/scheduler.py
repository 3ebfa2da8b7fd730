"""The pipelined call scheduler: multi-worker sharding of call batches.

The paper's engine overlaps DMA and processing *within* one call via the
block_A/block_B double buffer (section 4.1); the natural host-side dual
is overlapping *whole calls* that do not depend on each other.  This
module supplies that second axis:

* :class:`CallScheduler` executes batches of independent AddressLib
  calls concurrently across a pool of engine worker processes;
* frames move to workers *zero-copy and at most once*: each distinct
  input frame is registered in a shared-memory
  :class:`~repro.host.shm.PlaneStore` once per wave and shipped as a
  small handle, workers keep attached segments in a resident cache
  across waves, and a wave is dispatched as one grouped submission per
  worker (one round trip per worker per wave, not one future per call);
* results come back the same way: each job that produces a frame is
  leased a recycled result slab from the store, the worker writes into
  it, and the parent adopts it in place;
* where a call runs follows what the host can observe, not a cost
  guess: the pool runs ``min(max_workers, os.cpu_count())`` worker
  processes, and in a multi-call wave every call a worker can
  re-resolve ships, in at most that many grouped round trips, when
  there are at least two; with one process those calls stay in the
  parent (``bypass_calls``) -- nothing forks, and no call pays IPC that
  overlaps nothing;
* every batch is also *priced* under both timing models -- the serial
  (sum) model and the double-buffered overlap model of
  :class:`~repro.perf.timing.EngineTimingModel` -- list-scheduled onto
  ``max_workers`` virtual engines by the same LPT rule that groups the
  shipped calls onto the processes, so a batch reports the modelled
  makespan speedup a multi-board deployment would see, independent of
  how many CPUs this host happens to have.

Shared memory is the only transport.  A call that cannot take it -- no
shared memory on the platform, a store that fails while its wave
ships, a slab its worker cannot write, a worker that dies -- runs
inline in the parent instead.

Bit-exactness is by construction: workers run the *same*
:class:`~repro.addresslib.executor.VectorExecutor` the serial path
runs, and outcomes are collected by submission index, so results are
identical to serial execution wherever a call ran (a worker, the
parent of a one-process host, or the inline fallback after a failure).

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
from ..addresslib.executor import VectorExecutor
from ..addresslib.kernels import KERNEL_FACTORIES, kernel_by_name
from ..addresslib.library import BatchCall, BatchExecutor, BatchOutcome
from ..addresslib.ops import (ChannelSet, InterOp, INTER_OPS, INTRA_OPS,
                              IntraOp)
from ..core.pci import PCI_CLOCK_HZ
from ..image.frame import Frame
from ..perf.report import base_report_dict
from ..perf.timing import (EngineTimingModel, list_scheduled_makespan,
                           lpt_schedule)
from . import shm

_KERNEL_PREFIX = "kernel_"

#: One call as shipped to a worker: mode, op token, reduce flag,
#: channel set, the input frames' store handles, and the result slab
#: leased to a call that produces a frame (``None`` for a reduce).
_Job = Tuple[str, str, bool, ChannelSet, Tuple[shm.FrameHandle, ...],
             Optional[shm.SlabHandle]]


def _resolve_op(mode_value: str, op_name: str) -> Union[InterOp, IntraOp]:
    """Re-resolve a shipped op token against the worker's registries."""
    if mode_value == AddressingMode.INTER.value:
        return INTER_OPS[op_name]
    if op_name in INTRA_OPS:
        return INTRA_OPS[op_name]
    return kernel_by_name(op_name[len(_KERNEL_PREFIX):])


def _execute_call(op: Union[InterOp, IntraOp], reduce_to_scalar: bool,
                  channels: ChannelSet, frames: Sequence[Frame]
                  ) -> Union[Frame, int]:
    """Execute one call with the shared vector executor: the one
    dispatcher of the workers and the parent's inline path."""
    if isinstance(op, InterOp):
        if reduce_to_scalar:
            return VectorExecutor.inter_reduce(
                op, frames[0], frames[1], channels)
        return VectorExecutor.inter(op, frames[0], frames[1], channels)
    return VectorExecutor.intra(op, frames[0], channels)


def _worker_init(sanitize_domains: Tuple[str, ...] = ()) -> None:
    """Pool-worker initializer: fork hygiene plus optional sanitizing.

    Drops worker-cache entries and any transport observer inherited
    over ``fork()`` (both belong to the parent process), then installs
    a fresh worker-side sanitizer when the parent has one installed --
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
                  ) -> Tuple[List[Union[int, bool]], Dict[str, object]]:
    """Worker-side execution of one worker's share of a wave.

    Runs in an engine worker process.  Input frames arrive as
    shared-memory handles, attached through the worker-resident cache.
    Returns one value per job, in job order -- a reduce's scalar, or
    whether the result frame went into the job's leased slab (``False``
    sends that call back to the parent to run inline) -- plus the cache
    counters (and, when sanitized, the worker's drained findings) of
    this trip.
    """
    results: List[Union[int, bool]] = []
    stats: Dict[str, object] = {"cache_hits": 0, "attaches": 0}
    for (mode_value, op_name, reduce_to_scalar, channels, handles,
         slab) in jobs:
        frames: List[Frame] = []
        for handle in handles:
            frame, hit = shm.worker_attach(handle)
            stats["cache_hits" if hit else "attaches"] += 1
            frames.append(frame)
        value = _execute_call(_resolve_op(mode_value, op_name),
                              reduce_to_scalar, channels, frames)
        if slab is None:
            assert isinstance(value, int)
            results.append(value)
        else:
            assert isinstance(value, Frame)
            results.append(shm.worker_write_slab(slab, value))
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
    #: Calls executed in worker processes (over shared memory).
    pool_calls: int = 0
    #: Calls executed inline (unresolvable op, no shared memory, or a
    #: failed pool, store or slab).
    inline_calls: int = 0
    #: Calls a worker could have run, kept in the parent because this
    #: host runs fewer than two worker processes.
    bypass_calls: int = 0
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
    """One worker's share of a wave: call indices, the slab leased to
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

    def drop_pool(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def drop_store(self) -> None:
        store, self.store = self.store, None
        if store is not None:
            store.close()

    def release(self) -> None:
        self.drop_pool()
        self.drop_store()


class CallScheduler(BatchExecutor):
    """Shards independent AddressLib calls across engine workers.

    The pool is created lazily on the first batched call and survives
    across batches (worker warm-up is paid once).  Frames reach the
    workers as plane-store handles and results return through slabs.
    A call that cannot go that way -- no shared memory, a store that
    fails while its wave ships, a slab its worker cannot write, a
    worker that cannot start or dies -- runs inline in the parent,
    still bit-exact, never lost.  A failed pool or store is shut down
    and dropped; the next batch builds a fresh one.

    ``max_workers`` engines price each batch's modelled makespan; the
    pool runs at most one worker process per CPU of them.

    A scheduler built while a transport sanitizer is installed
    (:func:`~repro.analysis.sanitize.install_sanitizer`) arms its
    workers with that sanitizer's domains and collects every finding
    into :attr:`sanitizer_findings`.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        #: Domains of the sanitizer installed at construction; ``()``
        #: when none is, and then the scheduler never drains findings
        #: nor imports :mod:`repro.analysis.sanitize`.
        self.sanitize_domains: Tuple[str, ...] = ()
        if shm.get_transport_observer() is not None:
            from ..analysis.sanitize import active_sanitizer
            sanitizer = active_sanitizer()
            if sanitizer is not None:
                self.sanitize_domains = tuple(sorted(sanitizer.domains))
        #: Runtime findings: the parent sanitizer's drained diagnostics
        #: plus every worker's, in collection order.
        self.sanitizer_findings: List["Diagnostic"] = []
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        #: Worker processes: more than one per CPU would only contend.
        self._processes = min(self.max_workers, os.cpu_count() or 1)
        self.timing = EngineTimingModel()
        self._resources = _PoolResources()
        self._finalizer = weakref.finalize(self, _PoolResources.release,
                                           self._resources)
        self._closed = False
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
        """The worker pool, or ``None``: the wave runs inline."""
        if self._closed or not shm.SHARED_MEMORY_AVAILABLE:
            return None
        if self._resources.pool is None:
            try:
                # The initializer drops worker-cache entries inherited
                # over fork(): they belong to the parent's store.
                self._resources.pool = ProcessPoolExecutor(
                    max_workers=self._processes,
                    initializer=_worker_init,
                    initargs=(self.sanitize_domains,))
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
        value = _execute_call(call.op, call.reduce_to_scalar,
                              call.channels, call.frames)
        if isinstance(value, Frame):
            return BatchOutcome(frame=value)
        return BatchOutcome(scalar=value)

    # -- modelled timing ------------------------------------------------------

    def _call_costs(self, call: BatchCall) -> Tuple[float, float]:
        """(serial-model, overlap-model) seconds of one call.

        Delegates to the stack's one pricing definition
        (:func:`repro.pool.pricing.call_cost_seconds`); imported lazily
        because the pool package itself builds on this module.
        """
        from ..pool.pricing import call_cost_seconds
        return call_cost_seconds(call, self.timing)

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

    # -- batch execution ------------------------------------------------------

    def compute_batch(self,
                      calls: Sequence[BatchCall]) -> List[BatchOutcome]:
        """Execute one wave of independent calls; outcomes in order.

        Four phases, each timed into the report: *plan* (op tokens, and
        which calls ship), *ship* (register frames, lease result slabs,
        one grouped submission per worker), *compute* (inline calls plus
        waiting on workers, with whole-group inline fallback on any pool
        failure), *gather* (adopt the result slabs; a slab the worker
        could not write runs its call inline).
        """
        calls = list(calls)
        outcomes: List[Optional[BatchOutcome]] = [None] * len(calls)
        report = BatchReport(calls=len(calls), waves=1,
                             workers=self.max_workers)

        observer = shm.get_transport_observer()
        if observer is not None:
            observer.wave_opened()
        tokens = [self._op_token(call) for call in calls]
        # A multi-call wave ships every call a worker can re-resolve --
        # unless this host runs one process, which overlaps nothing:
        # then those calls stay in the parent.
        shippable = ([index for index, token in enumerate(tokens)
                      if token is not None] if len(calls) > 1 else [])
        bypassed = set(shippable) if self._processes < 2 else set()
        pool = (self._ensure_pool() if shippable and not bypassed
                else None)

        # Ship: register every distinct frame once, lease result slabs,
        # submit one grouped job list per worker.
        groups: List[_Group] = []
        if pool is not None:
            start = time.perf_counter()
            groups = self._ship(calls, tokens, shippable, pool, report)
            report.ship_seconds = time.perf_counter() - start
        in_groups = {index for group in groups for index in group.indices}

        # Compute: inline work runs while the workers chew on theirs;
        # then collect each group, falling back inline group-wise.
        start = time.perf_counter()
        for index, call in enumerate(calls):
            if index in in_groups:
                continue
            outcomes[index] = self._execute_inline(call)
            if index in bypassed:
                report.bypass_calls += 1
            else:
                report.inline_calls += 1
        store = self._resources.store
        collected = []
        pool_failed = False
        for group in groups:
            assert store is not None
            items = self._collect(group.future, report)
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

        # Gather: adopt the result slabs as zero-copy frames.
        start = time.perf_counter()
        for group, items in collected:
            assert store is not None
            for index, slab, value in zip(group.indices, group.slabs,
                                          items):
                call = calls[index]
                if slab is None:  # a reduce: the value is its scalar
                    outcomes[index] = BatchOutcome(scalar=value)
                else:
                    frame = (store.adopt_slab(slab, call.fmt) if value
                             else None)
                    if frame is None:
                        store.recycle_slab(slab)
                        outcomes[index] = self._execute_inline(call)
                        report.inline_calls += 1
                        continue
                    outcomes[index] = BatchOutcome(frame=frame)
                report.pool_calls += 1
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

    def _ship(self, calls: Sequence[BatchCall],
              tokens: Sequence[Optional[str]], shipped: List[int],
              pool: ProcessPoolExecutor, report: BatchReport
              ) -> List[_Group]:
        """Register each distinct input frame once, lease a result slab
        to each job that produces a frame, and submit one job group per
        worker.

        Nothing is submitted until the whole wave is in the store.  A
        store that fails on the way is closed and dropped, and no group
        ships: every call of the wave runs inline.  A group whose
        submission fails has no future and runs inline when collected.
        """
        store = self._ensure_store()
        observer = shm.get_transport_observer()
        # Every frame of the wave is alive (the calls hold them), so
        # id() names one frame for the whole pass.
        handles: Dict[int, shm.FrameHandle] = {}
        for frame in {id(frame): frame for index in shipped
                      for frame in calls[index].frames}.values():
            handle = store.register(frame)
            if handle is None:
                self._resources.drop_store()
                return []
            if observer is not None:
                observer.handle_shipped(handle)
            handles[id(frame)] = handle
        groups = [_Group(indices, [None if calls[index].reduce_to_scalar
                                   else store.lease_slab(calls[index].fmt)
                                   for index in indices])
                  for indices in self._group_by_worker(shipped, calls)]
        if store.broken:
            self._resources.drop_store()  # unlinks the leased slabs
            return []
        for group in groups:
            jobs: List[_Job] = []
            for index, slab in zip(group.indices, group.slabs):
                call, token = calls[index], tokens[index]
                assert token is not None
                jobs.append((call.mode.value, token,
                             call.reduce_to_scalar, call.channels,
                             tuple(handles[id(frame)]
                                   for frame in call.frames), slab))
            try:
                group.future = pool.submit(_execute_wave, jobs,
                                           self.sanitize_domains)
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

    def _group_by_worker(self, indices: List[int],
                         calls: Sequence[BatchCall]) -> List[List[int]]:
        """LPT grouping of the shipped calls onto the worker processes
        -- one submission (round trip) each.

        The rule and the overlap-model costs are the ones the modelled
        makespan prices (:func:`~repro.perf.timing.lpt_schedule`); ties
        break on submission index, so the grouping is stable across
        runs.
        """
        groups, _ = lpt_schedule(
            [self._call_costs(calls[index])[1] for index in indices],
            self._processes)
        return [[indices[position] for position in sorted(group)]
                for group in groups if group]

    def _collect(self, future: Optional[Future], report: BatchReport
                 ) -> Optional[List[Union[int, bool]]]:
        """One group's results, or ``None`` after any pool failure."""
        if future is None:
            return None
        try:
            items, stats = future.result()
        except Exception:
            # A worker died or the trip failed: the caller recomputes
            # the group inline and replaces the pool.
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
