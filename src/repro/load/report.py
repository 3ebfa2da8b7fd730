"""Load-replay books: latency/goodput curves with per-tenant breakdown.

One :class:`LoadReport` is cut per replayed trace level.  It keeps two
latency books side by side -- *modeled* end-to-end latency on the
service's deterministic virtual clock (machine-independent, what the
gates check) and *wall* latency through the asyncio facade (what a
human reads to judge the harness itself) -- plus completion, reject,
timeout, and backpressure accounting, broken down per tenant.  The
serialized form follows the shared ``perf.report`` schema, so
``BENCH_async.json`` nests cleanly next to every other report kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..perf.latency import LatencyTracker
from ..perf.report import base_report_dict
from ..service.engine_service import ServiceReport
from ..service.request import RequestState, ServiceTicket


@dataclass
class TenantBook:
    """One tenant's slice of a replay's books."""

    name: str
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    timed_out: int = 0
    #: Modeled end-to-end latency of this tenant's completions.
    modeled_latency: LatencyTracker = field(
        default_factory=LatencyTracker)

    @property
    def sheds(self) -> int:
        """Rejections plus deadline expiries: the shedding this tenant
        absorbed (the complement of ``completed``)."""
        return self.rejected + self.timed_out

    def to_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "timed_out": self.timed_out,
            "sheds": self.sheds,
            "modeled_latency": self.modeled_latency.to_dict(),
        }


@dataclass
class LoadReport:
    """The books of one trace replay at one offered-load level."""

    #: ``"serial"`` or ``"async"`` -- which replay path produced this.
    mode: str
    #: Multiplier applied to the base trace for this level.
    load_factor: float
    #: Requests in the (scaled) trace.
    offered_requests: int
    #: Nominal offered arrival rate of the scaled trace (req/modeled s).
    offered_rate_per_s: float
    #: Span of the scaled arrival process in modeled seconds.
    offered_duration_seconds: float = 0.0
    completed: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)
    timed_out: int = 0
    #: Modeled end-to-end latency of completed requests.
    modeled_latency: LatencyTracker = field(
        default_factory=LatencyTracker)
    #: Wall submit-to-resolve latency (async replays only).
    wall_latency: LatencyTracker = field(default_factory=LatencyTracker)
    #: Submits that suspended at least once on a full queue (async).
    backpressure_waits: int = 0
    #: Wall seconds producers spent suspended (async).
    backpressure_wall_seconds: float = 0.0
    #: Wall seconds the whole replay took (submission through drain).
    wall_elapsed_seconds: float = 0.0
    tenants: Dict[str, TenantBook] = field(default_factory=dict)
    #: The service's own books, cut at drain.
    service: Optional[ServiceReport] = None

    # -- accounting -----------------------------------------------------------

    def tenant(self, name: str) -> TenantBook:
        book = self.tenants.get(name)
        if book is None:
            book = self.tenants[name] = TenantBook(name)
        return book

    def account(self, ticket: ServiceTicket,
                wall_latency_seconds: Optional[float] = None) -> None:
        """Fold one resolved ticket into the books, under the tenant it
        was submitted as.

        Accounting consumes only scalars off the ticket, so the caller
        is free to :meth:`~repro.service.EngineService.release` it (and
        drop its result frame) immediately afterwards -- the discipline
        that keeps a million-request replay at constant memory.
        """
        # An untagged ticket counts in the totals only; no tenant book
        # is kept for it.
        book = (self.tenant(ticket.tenant) if ticket.tenant is not None
                else TenantBook("untagged"))
        book.submitted += 1
        if ticket.state is RequestState.COMPLETED:
            self.completed += 1
            book.completed += 1
            latency = ticket.latency_seconds
            assert latency is not None
            self.modeled_latency.record(latency)
            book.modeled_latency.record(latency)
            if wall_latency_seconds is not None:
                self.wall_latency.record(wall_latency_seconds)
        elif ticket.state is RequestState.REJECTED:
            reason = str(ticket.reject_reason)
            self.rejected_by_reason[reason] = (
                self.rejected_by_reason.get(reason, 0) + 1)
            book.rejected += 1
        elif ticket.state is RequestState.TIMED_OUT:
            self.timed_out += 1
            book.timed_out += 1
        else:
            raise ValueError(
                f"cannot account an unresolved ticket "
                f"(request {ticket.request_id} is {ticket.state})")

    # -- derived figures ------------------------------------------------------

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_reason.values())

    @property
    def accounted(self) -> int:
        return self.completed + self.rejected + self.timed_out

    @property
    def goodput_per_s(self) -> float:
        """Completions per modeled second over the whole run (arrival
        of the first request through drain of the last wave)."""
        if self.service is None or self.service.clock_seconds <= 0.0:
            return 0.0
        return self.completed / self.service.clock_seconds

    @property
    def goodput_ratio(self) -> float:
        """Goodput over offered load: 1.0 means the service kept up
        with the arrival process, completion for completion."""
        if self.offered_requests == 0:
            return 0.0
        return self.completed / self.offered_requests

    @property
    def requests_per_wall_s(self) -> float:
        """Harness throughput in real time (how fast the replay ran)."""
        if self.wall_elapsed_seconds <= 0.0:
            return 0.0
        return self.accounted / self.wall_elapsed_seconds

    def to_dict(self) -> Dict[str, object]:
        """Schema-conforming books (see ``perf.report``)."""
        service = self.service
        return base_report_dict(
            "load",
            calls=self.completed,
            cycles=(service.busy_seconds * service.clock_hz
                    if service else 0.0),
            cache=(service.pool.residency
                   if service and service.pool else {}),
            shed=self.rejected + self.timed_out,
            mode=self.mode,
            load_factor=self.load_factor,
            offered_requests=self.offered_requests,
            offered_rate_per_s=self.offered_rate_per_s,
            offered_duration_seconds=self.offered_duration_seconds,
            completed=self.completed,
            rejected_by_reason=dict(self.rejected_by_reason),
            timed_out=self.timed_out,
            goodput_per_s=self.goodput_per_s,
            goodput_ratio=self.goodput_ratio,
            modeled_latency=self.modeled_latency.to_dict(),
            wall_latency=self.wall_latency.to_dict(),
            backpressure_waits=self.backpressure_waits,
            backpressure_wall_seconds=self.backpressure_wall_seconds,
            wall_elapsed_seconds=self.wall_elapsed_seconds,
            requests_per_wall_s=self.requests_per_wall_s,
            tenants={name: book.to_dict()
                     for name, book in sorted(self.tenants.items())},
            sheds_by_tenant={name: book.sheds
                             for name, book in sorted(self.tenants.items())
                             if book.sheds},
            service=(service.to_dict() if service else None),
        )


def sweep_report_dict(levels: List[LoadReport],
                      trace_meta: Dict[str, object]) -> Dict[str, object]:
    """The ``BENCH_async.json`` payload: one entry per swept level,
    keyed by load factor, plus the trace's identifying metadata."""
    return {
        "kind": "load_sweep",
        "trace": trace_meta,
        "levels": [report.to_dict() for report in levels],
    }
