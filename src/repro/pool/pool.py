"""EnginePool: N modelled boards behind one dispatch interface.

The paper's outlook scales by putting more AddressEngines on the bus;
this module models that deployment.  An :class:`EnginePool` owns N
:class:`~repro.pool.worker.EngineWorker` boards -- each with its own
:class:`~repro.addresslib.library.AddressLib`, driver books, and
ZBT-bank residency state -- and routes each micro-batched wave to one
board by one rule: the board holding most of the wave's inputs in its
banks, then the earliest-free board, then the lowest worker id.

Routing never changes results: every board executes through the same
vector executor, and a wave runs whole on one board, so the outputs are
bit-exact with serial submission for any pool size.  What the
pool *does* change is the modeled clock -- waves land on boards whose
backlogs overlap -- and the per-board books the service report
aggregates.

Failure semantics: a board that raises
:class:`~repro.core.errors.EngineDeadlock` mid-wave is marked failed
and taken out of rotation; its wave re-places among the surviving
boards and re-runs whole (no partial results are kept, so a failover is
invisible in the outputs).  A pool with no surviving board re-raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..addresslib.library import AddressLib, BatchCall
from ..core.errors import EngineDeadlock
from ..host import shm
from ..host.backend import EngineBackend
from ..host.driver import AddressEngineDriver
from ..image.frame import Frame
from ..perf.report import base_report_dict
from ..perf.timing import EngineTimingModel
from .worker import EngineWorker, WorkerReport


@dataclass(frozen=True)
class WaveDispatch:
    """What one routed wave came back with."""

    #: Functional results, in the wave's submission order.
    results: Tuple[Union[Frame, int], ...]
    #: The board that ran the wave (after any failovers).
    worker_id: int
    #: Modeled wave start/end on that board's clock.
    start_seconds: float
    end_seconds: float
    #: Boards that failed out from under this wave before it ran.
    failovers: int = 0


@dataclass
class PoolReport:
    """Aggregated books of every board in the pool."""

    workers: List[WorkerReport] = field(default_factory=list)
    waves: int = 0
    failovers: int = 0
    calls_requeued: int = 0
    calls_shed: int = 0
    clock_hz: float = 0.0

    @property
    def calls_routed(self) -> int:
        return sum(w.calls_routed for w in self.workers)

    @property
    def busy_seconds(self) -> float:
        """Total board-busy time summed across the pool."""
        return sum(w.busy_seconds for w in self.workers)

    @property
    def residency(self) -> Dict[str, int]:
        """Residency counters summed across every board's banks."""
        total: Dict[str, int] = {}
        for worker in self.workers:
            for key, value in worker.residency.items():
                total[key] = total.get(key, 0) + value
        return total

    @property
    def residency_hit_rate(self) -> Optional[float]:
        """Pool-wide hit rate; ``None`` when no board looked one up."""
        counters = self.residency
        hits = counters.get("hits", 0) + counters.get("result_reuses", 0)
        total = hits + counters.get("misses", 0)
        if total == 0:
            return None
        return hits / total

    def to_dict(self) -> Dict[str, object]:
        """Schema-conforming books (see ``perf.report``)."""
        return base_report_dict(
            "pool",
            calls=self.calls_routed,
            cycles=self.busy_seconds * self.clock_hz,
            cache=self.residency,
            shed=self.calls_shed,
            waves=self.waves,
            failovers=self.failovers,
            calls_requeued=self.calls_requeued,
            residency_hit_rate=self.residency_hit_rate,
            workers=[w.to_dict(self.clock_hz) for w in self.workers],
        )


class EnginePool:
    """Owns N engine workers and routes waves onto them; build one
    with :meth:`of_engines`."""

    def __init__(self, workers: Sequence[EngineWorker]) -> None:
        if not workers:
            raise ValueError("a pool needs at least one worker")
        self.workers: List[EngineWorker] = list(workers)
        self.timing = self.workers[0].timing
        self.waves_dispatched = 0
        self.failovers = 0
        self.calls_requeued = 0
        self.calls_shed = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def of_engines(cls, count: int) -> "EnginePool":
        """A pool of ``count`` engine-backed boards, one driver each.

        Workers run their waves serially on their own board (no nested
        scheduler) and chain frames, so each board's residency state
        stays live and placement has real bank state to route on.
        """
        if count < 1:
            raise ValueError(f"pool size {count} < 1")
        timing = EngineTimingModel()
        workers = []
        for worker_id in range(count):
            backend = EngineBackend(
                driver=AddressEngineDriver(timing=timing),
                chain_frames=True)
            workers.append(EngineWorker(
                worker_id, lib=AddressLib(backend), timing=timing))
        return cls(workers)

    # -- pool state -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.workers)

    def alive(self) -> List[EngineWorker]:
        """Boards still in rotation."""
        return [w for w in self.workers if not w.failed]

    def alive_count(self) -> int:
        """How many boards are still in rotation."""
        count = 0
        for worker in self.workers:
            if not worker.failed:
                count += 1
        return count

    def min_busy_until(self) -> float:
        """Earliest modeled time any alive board comes free.

        This is when the service can start its next wave; a dead pool
        answers the latest board clock so time never runs backwards.
        """
        earliest: Optional[float] = None
        for worker in self.workers:
            if not worker.failed and (earliest is None
                                      or worker.busy_until < earliest):
                earliest = worker.busy_until
        if earliest is None:
            return max(w.busy_until for w in self.workers)
        return earliest

    # -- routing and dispatch -------------------------------------------------

    def place(self, calls: Sequence[BatchCall]) -> EngineWorker:
        """The board the next wave goes to.

        The board whose banks already hold most of the wave's input
        frames (a resident input skips its PCI upload), then the
        earliest-free board, then the lowest worker id -- so routing is
        deterministic for a given submission order.  One pass: each
        alive board counts its resident inputs over the wave's frames
        once (:meth:`~repro.host.driver.FrameResidencyCache.resident_count`).
        """
        frames = [frame for call in calls for frame in call.frames]
        best: Optional[EngineWorker] = None
        best_key: Optional[Tuple[int, float, int]] = None
        for worker in self.workers:
            if worker.failed:
                continue
            cache = worker.residency
            key = (-(cache.resident_count(frames) if cache is not None
                     else 0), worker.busy_until, worker.worker_id)
            if best_key is None or key < best_key:
                best, best_key = worker, key
        if best is None:
            raise EngineDeadlock("engine pool has no surviving workers")
        return best

    def dispatch(self, calls: Sequence[BatchCall],
                 not_before: float = 0.0) -> WaveDispatch:
        """Route one wave to a board, run it, and book the clock.

        The wave starts at ``max(board free time, not_before)`` and
        costs its calls' overlap-model prices run back to back on that
        board.  On :class:`EngineDeadlock` the board is failed out and
        the whole wave re-places among survivors (results never mix
        boards); with no survivors the deadlock propagates.
        """
        failovers = 0
        while True:
            worker = self.place(calls)
            try:
                results = worker.run_wave(calls)
            except EngineDeadlock:
                worker.failed = True
                worker.calls_requeued += len(calls)
                self.failovers += 1
                self.calls_requeued += len(calls)
                failovers += 1
                if not self.alive_count():
                    raise
                requeued = self._requeue(calls)
                observer = shm.get_transport_observer()
                if observer is not None:
                    observer.pool_requeued(calls, requeued)
                calls = requeued
                continue
            observer = shm.get_transport_observer()
            if observer is not None:
                observer.pool_wave(worker.worker_id, calls, results)
            start = max(worker.busy_until, not_before)
            end = start + worker.wave_cost_seconds(calls)
            worker.book_wave(calls, start, end)
            self.waves_dispatched += 1
            return WaveDispatch(
                results=tuple(results), worker_id=worker.worker_id,
                start_seconds=start, end_seconds=end,
                failovers=failovers)

    def _requeue(self, calls: Sequence[BatchCall]) -> List[BatchCall]:
        """The calls a failed-out wave re-runs with.

        The contract is *verbatim replay*: the same calls, same order,
        re-placed whole on a survivor.  This seam exists so the
        sanitizer selftests can model a buggy override (reordering or
        merging on requeue -- the POOL001 hazard) against the real
        dispatch loop; production code must not override it.
        """
        return list(calls)

    def account_shed(self, calls: int = 1) -> None:
        """Book shed calls against the pool and one board's driver.

        Shed work never picked a board, so it lands on the least-loaded
        survivor's driver -- the board that *would* have run it next.
        """
        if calls < 0:
            raise ValueError(f"cannot shed {calls} calls")
        self.calls_shed += calls
        worker = min(self.alive() or self.workers,
                     key=lambda w: (w.busy_until, w.worker_id))
        driver = worker.driver
        if driver is not None:
            driver.account_shed(calls)

    # -- books ----------------------------------------------------------------

    def report(self, clock_seconds: float = 0.0) -> PoolReport:
        """Every board's books plus the pool-level routing counters."""
        return PoolReport(
            workers=[w.report(clock_seconds) for w in self.workers],
            waves=self.waves_dispatched,
            failovers=self.failovers,
            calls_requeued=self.calls_requeued,
            calls_shed=self.calls_shed,
            clock_hz=self.timing.clock_hz,
        )
