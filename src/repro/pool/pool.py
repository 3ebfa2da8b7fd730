"""EnginePool: N modelled boards behind one dispatch interface.

The paper's outlook scales by putting more AddressEngines on the bus;
this module models that deployment.  An :class:`EnginePool` owns N
:class:`~repro.pool.worker.EngineWorker` boards -- each with its own
:class:`~repro.addresslib.library.AddressLib`, driver books, and
ZBT-bank residency state -- and routes each micro-batched wave to one
board through a pluggable :class:`~repro.pool.placement.PlacementPolicy`.

Routing never changes results: every board executes through the same
vector executor, and a wave runs whole on one board, so the outputs are
bit-exact with serial submission for any pool size or policy.  What the
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
from .placement import (LeastLoadedPlacement, PlacementPolicy,
                        ResidencyAffinityPlacement)
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

    placement: str
    workers: List[WorkerReport] = field(default_factory=list)
    waves: int = 0
    #: Waves routed by an explicit placement hint, not the policy.
    hinted_waves: int = 0
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
            placement=self.placement,
            waves=self.waves,
            hinted_waves=self.hinted_waves,
            failovers=self.failovers,
            calls_requeued=self.calls_requeued,
            residency_hit_rate=self.residency_hit_rate,
            workers=[w.to_dict(self.clock_hz) for w in self.workers],
        )


class EnginePool:
    """Owns N engine workers and routes waves onto them; build one
    with :meth:`of_engines`."""

    def __init__(self, workers: Sequence[EngineWorker],
                 placement: Optional[PlacementPolicy] = None) -> None:
        if not workers:
            raise ValueError("a pool needs at least one worker")
        self.workers: List[EngineWorker] = list(workers)
        self.placement = placement or ResidencyAffinityPlacement()
        self.timing = self.workers[0].timing
        self.waves_dispatched = 0
        self.hinted_waves = 0
        self.failovers = 0
        self.calls_requeued = 0
        self.calls_shed = 0
        self._least_loaded = LeastLoadedPlacement()

    # -- construction ---------------------------------------------------------

    @classmethod
    def of_engines(cls, count: int,
                   placement: Optional[PlacementPolicy] = None,
                   timing: Optional[EngineTimingModel] = None,
                   chain_frames: bool = True) -> "EnginePool":
        """A pool of ``count`` engine-backed boards, one driver each.

        Workers run their waves serially on their own board (no nested
        scheduler), so each board's residency chaining stays live and
        the affinity policy has real bank state to route on.
        """
        if count < 1:
            raise ValueError(f"pool size {count} < 1")
        timing = timing or EngineTimingModel()
        workers = []
        for worker_id in range(count):
            backend = EngineBackend(
                driver=AddressEngineDriver(timing=timing),
                chain_frames=chain_frames)
            workers.append(EngineWorker(
                worker_id, lib=AddressLib(backend), timing=timing))
        return cls(workers, placement=placement)

    # -- pool state -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.workers)

    def alive(self) -> List[EngineWorker]:
        """Boards still in rotation."""
        return [w for w in self.workers if not w.failed]

    def min_busy_until(self) -> float:
        """Earliest modeled time any alive board comes free.

        This is when the service can start its next wave; a dead pool
        answers the latest board clock so time never runs backwards.
        """
        alive = self.alive()
        if not alive:
            return max(w.busy_until for w in self.workers)
        return min(w.busy_until for w in alive)

    # -- routing and dispatch -------------------------------------------------

    def place(self, calls: Sequence[BatchCall],
              hint: Optional[int] = None) -> EngineWorker:
        """The board the next wave goes to.

        ``hint`` pins the wave to a worker id when that board is alive;
        a hint naming a dead or unknown board falls back to the policy
        (a hint is a preference, not a correctness constraint).
        """
        alive = self.alive()
        if not alive:
            raise EngineDeadlock("engine pool has no surviving workers")
        if hint is not None:
            for worker in alive:
                if worker.worker_id == hint:
                    self.hinted_waves += 1
                    return worker
        return self.placement.choose(calls, alive)

    def dispatch(self, calls: Sequence[BatchCall],
                 not_before: float = 0.0,
                 hint: Optional[int] = None) -> WaveDispatch:
        """Route one wave to a board, run it, and book the clock.

        The wave starts at ``max(board free time, not_before)`` and
        costs its calls' overlap-model prices run back to back on that
        board.  On :class:`EngineDeadlock` the board is failed out and
        the whole wave re-places among survivors (results never mix
        boards); with no survivors the deadlock propagates.
        """
        failovers = 0
        while True:
            worker = self.place(calls, hint)
            try:
                results = worker.run_wave(calls)
            except EngineDeadlock:
                worker.failed = True
                worker.calls_requeued += len(calls)
                self.failovers += 1
                self.calls_requeued += len(calls)
                failovers += 1
                hint = None
                if not self.alive():
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
        alive = self.alive() or self.workers
        worker = self._least_loaded.choose((), alive)
        driver = worker.driver
        if driver is not None:
            driver.account_shed(calls)

    # -- books ----------------------------------------------------------------

    def report(self, clock_seconds: float = 0.0) -> PoolReport:
        """Every board's books plus the pool-level routing counters."""
        return PoolReport(
            placement=self.placement.name,
            workers=[w.report(clock_seconds) for w in self.workers],
            waves=self.waves_dispatched,
            hinted_waves=self.hinted_waves,
            failovers=self.failovers,
            calls_requeued=self.calls_requeued,
            calls_shed=self.calls_shed,
            clock_hz=self.timing.clock_hz,
        )
