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
  every kind of call in the wave has run once).  The parent sends the
  workers' runs first (one job list down each worker's own pipe, one
  round trip per worker), then computes the last run itself
  (``bypass_calls``), reading its inputs in place -- no round trip for
  those calls -- and then reads each worker's reply.  The workers take
  the head of the wave, so the frames only the tail reads (a batch's
  cross-frame reduces, say) are never registered.  On a one-CPU host
  the parent's run is the whole wave and nothing forks;
* frames move to workers *zero-copy and at most once*: each distinct
  input frame of the workers' runs is registered in a shared-memory
  :class:`~repro.host.shm.PlaneStore` once per wave and shipped as a
  small handle, and workers keep attached segments in a resident cache
  across waves;
* every frame result has one constructor, wherever it ran: its first
  input passed through (:meth:`~repro.image.frame.Frame.pass_through`)
  with the planes its op computed.  The parent computes its own run
  exactly as serial execution does (fresh computed planes; it
  registers nothing and leases no slab).  A worker writes the
  computed planes straight into a recycled result slab the store
  leases, and the parent takes the slab's views of them as the
  result's computed planes (:meth:`~repro.host.shm.PlaneStore.adopt_slab`).
  The untouched planes are shared read-only with the input -- for a
  registered input, its segment views -- and copied only if someone
  asks to write one (:meth:`~repro.image.frame.Frame.plane`); a plane
  the input cannot share (one an outside alias holds) is copied into
  the result instead;
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

Dispatch is the parent's main thread alone: each worker process holds
one end of a duplex pipe, and the parent writes a run's job list to it
and later reads the reply -- no executor, no helper thread, so nothing
has to take the interpreter lock from a parent that is computing before
a worker can start.  A worker has at most one run in flight, and a
reply always answers the last run sent: a worker whose reply was never
read (its wave raised in the parent in between) is stopped before the
next wave, never read from again.  A worker closes every parent-side
pipe end it inherits, so its next receive sees end of file once the
parent closes its pipe or dies, and it exits -- a worker never outlives
its parent.  Each worker keeps one
:class:`~repro.addresslib.ops.FaceScratch`, which the kernels'
temporaries and padded inputs reuse call after call.

Bit-exactness is by construction: every engine runs the *same* kernel
step, :meth:`~repro.addresslib.executor.VectorExecutor.wave_into`
(a worker's sinks are slab planes and its temporaries its own
scratch; the parent's are fresh), every result is built by the same
pass-through, and outcomes are collected by submission index, so
results are identical to serial execution wherever a call ran.

Ops carry lambdas and do not pickle, so the parent never ships an op
object: it ships the op *name* and the worker re-resolves it from the
registries (:data:`~repro.addresslib.ops.INTER_OPS`,
:data:`~repro.addresslib.ops.INTRA_OPS`, the kernel book).  A call
whose op is not *identical* to its registry entry (e.g. a parameterized
``threshold_op``) is executed inline in the parent instead -- never
guessed from a name collision.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from ..analysis.diagnostics import Diagnostic

from ..addresslib.addressing import AddressingMode
from ..addresslib.executor import VectorExecutor, channels_of
from ..addresslib.kernels import KERNEL_FACTORIES, kernel_by_name
from ..addresslib.library import BatchCall, BatchExecutor, BatchOutcome
from ..addresslib.ops import (ChannelSet, FaceScratch, InterOp, INTER_OPS,
                              INTRA_OPS, IntraOp)
from ..core.pci import PCI_CLOCK_HZ
from ..image.frame import Frame
from ..perf.report import base_report_dict
from ..perf.timing import EngineTimingModel, list_scheduled_makespan
from . import shm

_KERNEL_PREFIX = "kernel_"

#: Seconds ``close()`` waits for a worker to exit before terminating it
#: (and then for the terminated worker to go).
_JOIN_SECONDS = 5.0

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
    """Worker start-up: fork hygiene plus optional sanitizing.

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


def _execute_wave(jobs: Sequence[_Job], sanitized: bool,
                  scratch: FaceScratch
                  ) -> Tuple[List[Union[int, bool]], Dict[str, object]]:
    """Worker-side execution of one worker's run of a wave.

    Runs in an engine worker process.  Input frames arrive as
    shared-memory handles, attached through the worker-resident cache;
    a frame result is computed straight into its job's leased slab,
    the kernels' temporaries in the worker's ``scratch``.
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
                VectorExecutor.wave_into(
                    op, [frames], channels,
                    [{channel: result.read_plane(channel)
                      for channel in channels_of(channels)}], scratch)
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


def _worker_main(link: "Connection", inherited: Sequence["Connection"],
                 sanitized: bool) -> None:
    """An engine worker process: run each job list the parent sends
    down ``link`` and send back its results, until the link closes.

    First closes the parent-side ends of every link it inherited over
    ``fork()`` (its own included), so the parent holds the only other
    end: a receive sees end of file once the parent closes the link or
    dies, however it dies, and the worker returns quietly -- as it does
    when its reply cannot be sent.  Each reply carries the run's start
    and end on the host-wide monotonic clock (the parent books the
    dispatch delay from them).  ``_execute_wave`` is looked up at each
    run, so a patch of it in the parent before the fork is the
    worker's too.
    """
    for end in inherited:
        end.close()
    _worker_init(sanitized)
    scratch = FaceScratch()
    while True:
        try:
            jobs = link.recv()
        except (EOFError, OSError):
            return
        started = time.monotonic()
        results, stats = _execute_wave(jobs, sanitized, scratch)
        stats["started"] = started
        stats["ended"] = time.monotonic()
        try:
            link.send((results, stats))
        except OSError:
            return


class _Worker:
    """One engine worker process and the parent's end of its duplex
    pipe.  ``pending`` from the moment a run is sent until its reply
    is read; ``slabs`` are the slabs leased to the last run sent."""

    __slots__ = ("process", "link", "pending", "slabs")

    def __init__(self, process: multiprocessing.process.BaseProcess,
                 link: "Connection") -> None:
        self.process = process
        self.link = link
        self.pending = False
        self.slabs: Sequence[Optional[shm.SlabHandle]] = ()


def _start_worker(running: Sequence[_Worker], sanitized: bool) -> _Worker:
    """Fork one engine worker process with a pipe of its own, with the
    default start method (a worker then starts from the parent's
    imports instead of re-importing them).

    The new worker closes its inherited copies of the parent ends of
    ``running``'s links and of its own; the parent closes its copy of
    the worker's end, so each end has one holder.  Raises ``OSError``
    when no process or pipe can be made.
    """
    context = multiprocessing.get_context()
    link, child = context.Pipe()
    process = context.Process(
        target=_worker_main, daemon=True,
        args=(child, [worker.link for worker in running] + [link],
              sanitized))
    try:
        process.start()
    except BaseException:
        link.close()
        raise
    finally:
        child.close()
    return _Worker(process, link)


def _stop_workers(workers: Sequence[_Worker]) -> List[_Worker]:
    """Stop ``workers``: close each link, so an idle worker's receive
    sees end of file and it exits (a worker with a run in flight, whose
    reply nobody will read, is terminated at once), then join each,
    terminating one that does not exit within :data:`_JOIN_SECONDS`.
    Returns the workers whose process is gone."""
    for worker in workers:
        worker.link.close()
        if worker.pending:
            worker.process.terminate()
    gone = []
    for worker in workers:
        process = worker.process
        process.join(_JOIN_SECONDS)
        if process.exitcode is None:
            process.terminate()
            process.join(_JOIN_SECONDS)
        if process.exitcode is not None:
            process.close()
            gone.append(worker)
    return gone


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
    #: worker, store or slab).
    inline_calls: int = 0
    #: Calls the parent ran as its own run of a wave (the whole wave
    #: on a one-CPU host).
    bypass_calls: int = 0
    #: Job lists sent (one per worker run per wave).
    round_trips: int = 0
    #: Wall seconds registering frames and sending job lists.
    ship_seconds: float = 0.0
    #: Seconds from sending each worker's run to the worker starting
    #: it, summed over the runs: the dispatch delay, stamped on the
    #: host-wide monotonic clock on both sides.
    dispatch_seconds: float = 0.0
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
            dispatch_seconds=self.dispatch_seconds,
            compute_seconds=self.compute_seconds,
            gather_seconds=self.gather_seconds,
            modeled_serial_seconds=self.modeled_serial_seconds,
            modeled_pipelined_seconds=self.modeled_pipelined_seconds,
            modeled_speedup=self.modeled_speedup,
        )


@dataclass
class _Group:
    """One worker's run of a wave: call indices, the slab leased to
    each call, the worker it goes to and when it was sent (``None``:
    the send failed)."""

    indices: List[int]
    slabs: List[Optional[shm.SlabHandle]]
    worker: _Worker
    sent: Optional[float] = None


class _PoolResources:
    """The teardown state of one scheduler, held *outside* it.

    ``weakref.finalize`` must not reference the scheduler (that would
    keep it alive forever), so the worker processes and the plane store
    live here: an abandoned scheduler is collectable, and its finalizer
    still stops the workers and unlinks every shared-memory segment --
    whether triggered by ``close()``, garbage collection, or interpreter
    exit.
    """

    __slots__ = ("workers", "store")

    def __init__(self) -> None:
        self.workers: List[_Worker] = []
        self.store: Optional[shm.PlaneStore] = None

    def drop_workers(self, workers: Sequence[_Worker]) -> List[_Worker]:
        """Stop ``workers`` and forget them; the next wave that has a
        run for a worker starts fresh ones.  Returns those whose process
        is gone."""
        self.workers = [worker for worker in self.workers
                        if worker not in workers]
        return _stop_workers(workers)

    def drop_store(self) -> None:
        store, self.store = self.store, None
        if store is not None:
            store.close()

    def release(self) -> None:
        self.drop_workers(list(self.workers))
        self.drop_store()


class CallScheduler(BatchExecutor):
    """Shards independent AddressLib calls across engines: the parent
    and its engine worker processes.

    The worker processes start on the first wave that has a run for a
    worker and survive across batches (worker warm-up is paid once).
    Frames reach the workers as plane-store handles and results return
    through slabs.  A call of a worker's run that cannot go that way --
    no shared memory, a store that fails while its wave ships, a slab
    its worker cannot write, a worker that cannot start, fails or dies
    -- runs inline in the parent, still bit-exact, never lost.  A failed
    worker or store is stopped and dropped, failing only its own run;
    the next batch starts a fresh one.

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
        """Stop the worker processes, waiting for each to exit (and
        terminating one that does not in time), and unlink every
        shared-memory segment.

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

    def _ensure_workers(self) -> List[_Worker]:
        """The worker processes, started as needed: one per engine but
        the parent.  A worker whose last reply was never read -- its
        wave raised in the parent between send and collect -- is
        stopped first, so no wave ever reads a reply meant for another,
        and the slabs of that run go back to the store.
        Empty (the wave runs in the parent) when the scheduler closed,
        the platform has no shared memory or no worker can start."""
        if self._closed or not shm.SHARED_MEMORY_AVAILABLE:
            return []
        resources = self._resources
        stale = [worker for worker in resources.workers if worker.pending]
        store = resources.store
        for worker in resources.drop_workers(stale):
            # The run it never answered leased these; now that the
            # process is gone, nothing writes them any more.
            if store is not None:
                self._recycle(store, worker.slabs)
        while len(resources.workers) < self._engines - 1:
            try:
                resources.workers.append(
                    _start_worker(resources.workers, self.sanitized))
            except OSError:
                break
        return resources.workers

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
        frames, lease result slabs, send each worker run's job list
        down its worker's pipe), *compute* (the parent's own run, as
        serial execution runs it, and any call that could not ship;
        then read each worker's reply, a worker that failed running
        its whole run inline), *gather* (pass each worker result's
        first input through with the slab's computed planes; a slab
        the worker could not write runs its call inline).
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
        workers = self._ensure_workers() if runs else []

        # Ship: register every distinct frame of the workers' runs
        # once, lease result slabs, send one job list per run.  A run
        # left without a worker (none could start) runs inline.
        groups: List[_Group] = []
        if workers:
            start = time.perf_counter()
            groups = self._ship(calls, tokens, runs[:len(workers)],
                                workers, report)
            report.ship_seconds = time.perf_counter() - start
        shipped = {index for group in groups for index in group.indices}

        # Compute: the parent's own run while the workers chew on
        # theirs, then every call that did not ship; then collect each
        # group, a failed worker's run inline.
        start = time.perf_counter()
        store = self._resources.store  # None if shipping broke it
        for index in own:
            began = time.perf_counter()
            outcomes[index] = self._execute_inline(calls[index])
            if runs:
                self._learn(calls[index], time.perf_counter() - began)
        report.bypass_calls = len(own)
        for index, call in enumerate(calls):
            if outcomes[index] is None and index not in shipped:
                outcomes[index] = self._execute_inline(call)
                report.inline_calls += 1
        collected = []
        for group in groups:
            assert store is not None
            items = self._collect(group, calls, report)
            if items is None or len(items) != len(group.indices):
                # The next wave starts a fresh worker in its place.
                self._resources.drop_workers([group.worker])
                self._recycle(store, group.slabs)
                for index in group.indices:
                    outcomes[index] = self._execute_inline(calls[index])
                    report.inline_calls += 1
                continue
            collected.append((group, items))
        report.compute_seconds = time.perf_counter() - start

        # Gather: each result is its first input passed through, with
        # its computed planes viewing the slab the worker wrote.
        start = time.perf_counter()
        for group, items in collected:
            assert store is not None
            for index, slab, value in zip(group.indices, group.slabs,
                                          items):
                call = calls[index]
                if slab is None:  # a reduce: the value is its scalar
                    outcomes[index] = BatchOutcome(scalar=value)
                else:
                    computed = (store.adopt_slab(
                        slab, call.fmt, channels_of(call.channels))
                        if value else None)
                    if computed is None:
                        store.recycle_slab(slab)
                        outcomes[index] = self._execute_inline(call)
                        report.inline_calls += 1
                        continue
                    outcomes[index] = BatchOutcome(
                        frame=call.frames[0].pass_through(computed))
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
              workers: Sequence[_Worker],
              report: BatchReport) -> List[_Group]:
        """Register each distinct input frame of the workers' ``runs``
        once, lease a result slab to each call that produces a frame,
        and send run ``i``'s job list to ``workers[i]``.

        Nothing is sent until the whole of the runs is in the store.  A
        store that fails on the way is closed and dropped, and no group
        ships: every call of the runs runs inline.  A group whose send
        fails is unsent and runs inline when collected.
        """
        store = self._ensure_store()
        observer = shm.get_transport_observer()
        # Every frame of the wave is alive (the calls hold them), so
        # id() names one frame for the whole pass.
        handles: Dict[int, shm.FrameHandle] = {}
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
                               for index in run], worker)
                  for run, worker in zip(runs, workers)]
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
            # Pending before the send: a send cut short leaves a worker
            # no later wave may read from.
            group.worker.pending = True
            group.worker.slabs = group.slabs
            sent = time.monotonic()
            try:
                group.worker.link.send(jobs)
            except OSError:
                continue  # unsent: the group runs inline when collected
            group.sent = sent
            report.round_trips += 1
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
        """One group's results -- its worker's reply to this wave's
        send -- or ``None`` when the send failed or the worker closed
        its pipe (it died or its run raised): the caller recomputes the
        group inline and drops the worker."""
        if group.sent is None:
            return None
        try:
            items, stats = group.worker.link.recv()
        except (EOFError, OSError):
            return None
        group.worker.pending = False
        started = stats.get("started")
        if isinstance(started, float):
            report.dispatch_seconds += max(0.0, started - group.sent)
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
        self.total.dispatch_seconds += report.dispatch_seconds
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
            "dispatch_seconds": self.total.dispatch_seconds,
            "store": store.stats() if store is not None else {},
        }
