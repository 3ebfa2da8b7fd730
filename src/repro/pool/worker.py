"""One pool worker: an engine-backed AddressLib plus its modeled clock.

A worker is the pool's unit of replication -- the modelled equivalent of
one ADM-XRC-II board in its own PCI slot.  Each worker owns a *private*
:class:`~repro.addresslib.library.AddressLib` (and therefore its own
driver books and :class:`~repro.host.driver.FrameResidencyCache` bank
state) and a modeled ``busy_until`` horizon the placement policies
load-balance on.

Execution is the same vector executor every other path runs, so results
are bit-exact with serial submission whichever worker a wave lands on;
only the modeled timing (and the per-board accounting) depends on the
routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..addresslib.library import AddressLib, BatchCall
from ..image.frame import Frame
from ..perf.report import base_report_dict
from ..perf.timing import EngineTimingModel, list_scheduled_makespan
from .pricing import call_cost_seconds


@dataclass
class WorkerReport:
    """The books of one pool worker, cut at report time."""

    worker_id: int
    calls_routed: int = 0
    waves: int = 0
    busy_seconds: float = 0.0
    #: Fraction of the report clock this board was busy (0.0 when the
    #: clock has not advanced).
    utilization: float = 0.0
    #: Residency-cache counters of this board's banks (all zero when
    #: the worker's backend keeps no residency state).
    residency: Dict[str, int] = field(default_factory=dict)
    #: Board driver books (absent for software-backed workers).
    calls_submitted: int = 0
    calls_shed: int = 0
    #: Calls this worker abandoned mid-wave to a surviving worker.
    calls_requeued: int = 0
    failed: bool = False

    @property
    def residency_hit_rate(self) -> Optional[float]:
        """Hits plus result reuses over all residency lookups; ``None``
        when the board never looked one up."""
        hits = (self.residency.get("hits", 0)
                + self.residency.get("result_reuses", 0))
        total = hits + self.residency.get("misses", 0)
        if total == 0:
            return None
        return hits / total

    def to_dict(self, clock_hz: float) -> Dict[str, object]:
        """Schema-conforming books (see ``perf.report``)."""
        return base_report_dict(
            "pool_worker",
            calls=self.calls_routed,
            cycles=self.busy_seconds * clock_hz,
            cache=self.residency,
            shed=self.calls_shed,
            worker_id=self.worker_id,
            waves=self.waves,
            busy_seconds=self.busy_seconds,
            utilization=self.utilization,
            residency_hit_rate=self.residency_hit_rate,
            calls_submitted=self.calls_submitted,
            calls_requeued=self.calls_requeued,
            failed=self.failed,
        )


class EngineWorker:
    """One engine-backed library with its own books and modeled clock.

    The worker models one board, which runs a wave's calls back to
    back.
    """

    def __init__(self, worker_id: int,
                 lib: Optional[AddressLib] = None,
                 timing: Optional[EngineTimingModel] = None) -> None:
        self.worker_id = worker_id
        self.lib = lib if lib is not None else AddressLib()
        self.timing = timing or EngineTimingModel()
        #: Modeled time this board is busy until.
        self.busy_until = 0.0
        self.busy_seconds = 0.0
        self.calls_routed = 0
        self.waves_run = 0
        #: Calls handed back to the pool after a mid-wave failure.
        self.calls_requeued = 0
        #: Set when a wave raised ``EngineDeadlock``: the board is out
        #: of rotation until the operator resets it.
        self.failed = False

    # -- board attachments ----------------------------------------------------

    @property
    def driver(self):
        """The board driver, or ``None`` for software-backed workers."""
        return getattr(self.lib.backend, "driver", None)

    @property
    def residency(self):
        """The board's residency cache, or ``None`` without one."""
        return getattr(self.lib.backend, "residency", None)

    # -- modeled pricing ------------------------------------------------------

    def price(self, call: BatchCall) -> Tuple[float, float]:
        """(serial, overlapped) modeled seconds of ``call`` here."""
        return call_cost_seconds(call, self.timing)

    def wave_cost_seconds(self, calls: Sequence[BatchCall]) -> float:
        """Modeled makespan of one wave on this board.

        The one-engine makespan sums the costs largest first; a plain
        ``sum()`` in call order can differ in the last bit.
        """
        costs = [self.price(call)[1] for call in calls]
        return list_scheduled_makespan(costs, 1)

    def affinity_score(self, calls: Sequence[BatchCall]) -> int:
        """How many of the wave's input frames are already resident in
        this board's banks (identity, never content comparison)."""
        cache = self.residency
        if cache is None:
            return 0
        score = 0
        for call in calls:
            for frame in call.frames:
                if cache.contains(frame):
                    score += 1
        return score

    # -- execution and books --------------------------------------------------

    def run_wave(self, calls: Sequence[BatchCall]
                 ) -> List[Union[Frame, int]]:
        """Execute one wave through this worker's own library."""
        return self.lib.run_batch(calls)

    def book_wave(self, calls: Sequence[BatchCall], start: float,
                  end: float) -> None:
        """Advance the board clock and tally the routed wave."""
        self.busy_until = end
        self.busy_seconds += end - start
        self.waves_run += 1
        self.calls_routed += len(calls)

    def report(self, clock_seconds: float = 0.0) -> WorkerReport:
        """This board's books; ``clock_seconds`` sets utilization."""
        cache = self.residency
        residency = {}
        if cache is not None:
            residency = {"hits": cache.hits, "misses": cache.misses,
                         "result_reuses": cache.result_reuses,
                         "evictions": cache.evictions}
        driver = self.driver
        return WorkerReport(
            worker_id=self.worker_id,
            calls_routed=self.calls_routed,
            waves=self.waves_run,
            busy_seconds=self.busy_seconds,
            utilization=(self.busy_seconds / clock_seconds
                         if clock_seconds > 0.0 else 0.0),
            residency=residency,
            calls_submitted=(driver.calls_submitted if driver else 0),
            calls_shed=(driver.calls_shed if driver else 0),
            calls_requeued=self.calls_requeued,
            failed=self.failed,
        )
