"""EngineService: the synchronous request front end over the stack.

The paper's deployment is one application owning the board.  The
ROADMAP's north star is the opposite: many independent clients and one
(modelled) engine pool.  :class:`EngineService` is the layer between --
it accepts :class:`~repro.addresslib.library.BatchCall` requests,
admits or sheds them (:mod:`repro.service.admission`), queues them with
priorities and bounded depth (:mod:`repro.service.queue`), coalesces
compatible calls into waves (:mod:`repro.service.batcher`) and routes
each wave to one board of an :class:`~repro.pool.EnginePool` through
its placement policy.

Time is *modeled* time: the service keeps a virtual clock in seconds of
the validated overlap timing model, exactly as the Table 3 evaluation
keeps modelled wall clocks.  That makes every admission decision,
deadline, and latency percentile deterministic and machine-independent
-- and bit-exactness trivially auditable, because execution itself is
the same vector executor the serial path runs, whichever board a wave
lands on.

The flow::

    from repro.api import (EngineService, EnginePool, ServicePolicy,
                           SubmitOptions)

    service = EngineService(pool=EnginePool.of_engines(4),
                            policy=ServicePolicy(
                                queue_depth=64,
                                admission=AdmissionPolicy(0.050)))
    ticket = service.submit(BatchCall.intra(INTRA_GRAD, frame),
                            options=SubmitOptions(
                                priority=Priority.INTERACTIVE,
                                deadline_seconds=0.030))
    report = service.drain()          # -> ServiceReport
    edges = ticket.result()           # bit-exact Frame
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from ..addresslib.library import BatchCall
from ..image.frame import Frame
from ..perf.latency import LatencyTracker
from ..perf.report import base_report_dict
from ..pool import EnginePool, PoolReport
from .admission import AdmissionController
from .batcher import MicroBatcher
from .policy import ServicePolicy
from .queue import RequestQueue
from .request import (RejectReason, RequestState, ServiceError,
                      ServiceRequest, ServiceTicket)

if TYPE_CHECKING:
    from ..api import SubmitOptions


@dataclass
class ServiceReport:
    """The books of one service run, surfaced alongside ``RunReport``."""

    #: Requests offered to :meth:`EngineService.submit`.
    submitted: int = 0
    accepted: int = 0
    completed: int = 0
    #: Requests refused at admission, by :class:`RejectReason` value.
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Requests whose deadline expired (after exhausting retries).
    timed_out: int = 0
    #: Deadline-miss re-enqueues (a request may retry several times).
    retried: int = 0
    #: Dispatch waves executed.
    waves: int = 0
    #: Requests that rode a wave with at least one compatible companion.
    coalesced_requests: int = 0
    queue_depth: int = 0
    queue_high_water: int = 0
    #: Modeled engine-busy seconds (sum of wave makespans over the pool).
    busy_seconds: float = 0.0
    #: What the executed calls would cost serially under the no-overlap
    #: (sum) model -- the denominator of :attr:`overlap_efficiency`.
    modeled_serial_seconds: float = 0.0
    #: Modeled end-to-end latency of completed requests.
    latency: LatencyTracker = field(default_factory=LatencyTracker)
    #: Service clock when the report was cut.
    clock_seconds: float = 0.0
    #: Completed calls tallied per tenant label (untagged calls absent).
    calls_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: Rejections *and* deadline expiries tallied per tenant label --
    #: the "who absorbed the shedding" book ``calls_by_tenant`` (a
    #: completions-only tally) never answered.
    sheds_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: Per-board books of the pool that served this run.
    pool: Optional[PoolReport] = None
    #: Clock the ``cycles`` figure of :meth:`to_dict` is expressed in.
    clock_hz: float = 0.0

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_reason.values())

    @property
    def reject_rate(self) -> float:
        """Rejected over submitted; 0.0 before any submission."""
        if self.submitted == 0:
            return 0.0
        return self.rejected / self.submitted

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of the serial (sum) model the pipeline + wave
        dispatch hid: ``1 - busy / serial``, 0.0 when nothing ran."""
        if self.modeled_serial_seconds <= 0.0:
            return 0.0
        return 1.0 - self.busy_seconds / self.modeled_serial_seconds

    @property
    def in_flight(self) -> int:
        """Accepted requests not yet resolved (still queued); retried
        requests stay in this count until they complete or expire."""
        return self.accepted - self.completed - self.timed_out

    def to_dict(self) -> Dict[str, object]:
        """Schema-conforming books (see ``perf.report``): the shared
        keys plus the serving figures, with the pool's per-board books
        nested under ``pool``."""
        return base_report_dict(
            "service",
            calls=self.completed,
            cycles=self.busy_seconds * self.clock_hz,
            cache=(self.pool.residency if self.pool else {}),
            shed=self.rejected + self.timed_out,
            submitted=self.submitted,
            accepted=self.accepted,
            completed=self.completed,
            rejected_by_reason=dict(self.rejected_by_reason),
            timed_out=self.timed_out,
            retried=self.retried,
            waves=self.waves,
            coalesced_requests=self.coalesced_requests,
            queue_depth=self.queue_depth,
            queue_high_water=self.queue_high_water,
            busy_seconds=self.busy_seconds,
            modeled_serial_seconds=self.modeled_serial_seconds,
            overlap_efficiency=self.overlap_efficiency,
            reject_rate=self.reject_rate,
            clock_seconds=self.clock_seconds,
            latency=self.latency.to_dict(),
            calls_by_tenant=dict(self.calls_by_tenant),
            sheds_by_tenant=dict(self.sheds_by_tenant),
            pool=(self.pool.to_dict() if self.pool else None),
        )


class EngineService:
    """Synchronous submit/drain front end over an engine pool.

    Hand it a :class:`~repro.pool.EnginePool` (``pool=``) to serve N
    modelled boards behind the one submission API; with no pool it
    serves on ``EnginePool.of_engines(1)``.  Execution is bit-exact for
    any pool; only the modelled timing and per-board accounting change
    -- the same machine-independence contract as the scheduler's
    ``BatchReport``.
    """

    def __init__(self, pool: Optional[EnginePool] = None,
                 policy: Optional[ServicePolicy] = None) -> None:
        if policy is None:
            policy = ServicePolicy()
        elif not isinstance(policy, ServicePolicy):
            raise TypeError(
                f"EngineService policy must be a ServicePolicy, got "
                f"{type(policy).__name__}")
        #: Every serving knob, in one frozen record.
        self.policy = policy
        self.pool = pool if pool is not None else EnginePool.of_engines(1)
        self.timing = self.pool.timing
        self.admission = AdmissionController(timing=self.timing,
                                             policy=self.policy)
        self.queue = RequestQueue(policy=self.policy)
        self.batcher = MicroBatcher(policy=self.policy)
        #: The service's modeled "now": advanced by arrivals and waves.
        self.clock = 0.0
        self.report_data = ServiceReport()
        self._pending_cost_seconds = 0.0
        self._pending_cost_by_tenant: Dict[Optional[str], float] = {}
        self._in_flight_by_tenant: Dict[Optional[str], int] = {}
        self._next_request_id = 0
        self._tickets: Dict[int, ServiceTicket] = {}

    @property
    def busy_until(self) -> float:
        """Modeled time the pool's earliest board comes free."""
        return self.pool.min_busy_until()

    # -- submission -----------------------------------------------------------

    def submit(self, call: BatchCall,
               options: Optional["SubmitOptions"] = None) -> ServiceTicket:
        """Offer one call; returns a ticket that is either queued or
        already rejected (explicit backpressure, never an exception).

        All serving metadata arrives through ``options`` (a
        :class:`~repro.api.SubmitOptions`; ``None`` means its
        defaults): priority class, relative deadline, retry budget,
        tenant label, placement hint, and ``arrival_seconds`` to place
        the request on the modeled clock (an open-loop load generator
        submits a whole trace this way -- arrivals default to "now"
        and never move the clock backwards).
        """
        if options is None:
            from ..api import SubmitOptions
            options = SubmitOptions()
        if options.sanitize:
            # Arm (or widen) the process-wide transport sanitizer for
            # the requested domains; findings surface through whichever
            # scheduler serves the pool.  Never alters results.
            from ..analysis.sanitize import ensure_sanitizer
            ensure_sanitizer(options.sanitize)
        if options.arrival_seconds is not None:
            self.clock = max(self.clock, options.arrival_seconds)
        arrival = self.clock
        # Every submission -- accepted or shed -- feeds the per-tenant
        # arrival-rate estimate: it is the *offered* stream being sized.
        self.admission.observe(options.tenant, self.clock)
        serial_cost, overlapped_cost = self.admission.price(call)
        request = ServiceRequest(
            request_id=self._next_request_id, call=call,
            priority=options.priority, arrival_seconds=arrival,
            deadline_seconds=options.deadline_seconds,
            max_retries=options.max_retries,
            estimated_cost_seconds=overlapped_cost,
            serial_cost_seconds=serial_cost,
            tenant=options.tenant, placement=options.placement)
        self._next_request_id += 1
        ticket = ServiceTicket(request_id=request.request_id,
                               priority=options.priority,
                               arrival_seconds=arrival,
                               tenant=options.tenant)
        self._tickets[request.request_id] = ticket
        self.report_data.submitted += 1

        cap = self.policy.tenant(request.tenant).max_in_flight
        if (cap is not None
                and self._in_flight_by_tenant.get(request.tenant, 0)
                >= cap):
            self._reject(ticket, RejectReason.TENANT_QUOTA,
                         request.tenant)
            return ticket
        reason = self._admit(request)
        if reason is not None:
            self._reject(ticket, reason, request.tenant)
            return ticket
        offered = self.queue.offer(request)
        if offered is not None:
            self._reject(ticket, offered, request.tenant)
            return ticket
        self._pending_cost_seconds += request.estimated_cost_seconds
        self._add_tenant_pending(request, +1)
        self._in_flight_by_tenant[request.tenant] = (
            self._in_flight_by_tenant.get(request.tenant, 0) + 1)
        self.report_data.accepted += 1
        return ticket

    def _admit(self, request: ServiceRequest) -> Optional[RejectReason]:
        alive = len(self.pool.alive()) or 1
        busy_tail = max(0.0, self.busy_until - self.clock)
        backlog = busy_tail + self._pending_cost_seconds / alive
        tenant_backlog = backlog
        if self.policy.fair_queueing:
            # Under WFQ a tenant's work drains at its weight share of
            # the pool, so the tail *its* next request faces is its own
            # queued cost expanded by that share -- never more than the
            # global figure (with one bucket the two coincide exactly,
            # which is what keeps untagged decisions bit-identical to
            # the pre-tenancy controller).
            own = self._pending_cost_by_tenant.get(request.tenant, 0.0)
            share = self._weight_share(request.tenant)
            tenant_backlog = busy_tail + min(
                self._pending_cost_seconds, own / share) / alive
        return self.admission.admit(request, backlog, tenant_backlog,
                                    now=self.clock)

    def _weight_share(self, tenant: Optional[str]) -> float:
        """``tenant``'s weight share among tenants with queued work."""
        active = set(self._pending_cost_by_tenant)
        active.add(tenant)
        total = sum(self.policy.weight(name) for name in active)
        if total <= 0.0:
            return 1.0
        return self.policy.weight(tenant) / total

    def _add_tenant_pending(self, request: ServiceRequest,
                            sign: int) -> None:
        """Track queued estimated cost per tenant (the WFQ backlog
        book); entries are pruned at zero so the active-tenant set
        never accretes float residue."""
        book = self._pending_cost_by_tenant
        value = (book.get(request.tenant, 0.0)
                 + sign * request.estimated_cost_seconds)
        if abs(value) < 1e-15:
            book.pop(request.tenant, None)
        else:
            book[request.tenant] = value

    def _reject(self, ticket: ServiceTicket, reason: RejectReason,
                tenant: Optional[str] = None) -> None:
        ticket.state = RequestState.REJECTED
        ticket.reject_reason = reason
        by_reason = self.report_data.rejected_by_reason
        by_reason[reason.value] = by_reason.get(reason.value, 0) + 1
        if tenant is not None:
            sheds = self.report_data.sheds_by_tenant
            sheds[tenant] = sheds.get(tenant, 0) + 1
        self.pool.account_shed()

    # -- dispatch -------------------------------------------------------------

    def step(self) -> List[ServiceTicket]:
        """Dispatch one micro-batched wave; returns the tickets it
        resolved -- its timeouts first, then its completions in wave
        order (``[]`` when the queue is empty)."""
        resolved: List[ServiceTicket] = []
        wave = self.batcher.form_wave(self.queue)
        if not wave:
            return resolved
        for request in wave:
            self._pending_cost_seconds -= request.estimated_cost_seconds
            self._add_tenant_pending(request, -1)
        not_before = max(r.effective_arrival_seconds for r in wave)
        start_estimate = max(self.busy_until, not_before)
        survivors = [r for r in wave
                     if not self._expire(r, start_estimate, resolved)]
        if not survivors:
            return resolved
        dispatch = self.pool.dispatch(
            [r.call for r in survivors], not_before=not_before,
            hint=survivors[0].placement)
        for request in survivors:
            self.report_data.modeled_serial_seconds += (
                request.serial_cost_seconds)
        wave_end = dispatch.end_seconds
        self.clock = max(self.clock, wave_end)
        self.report_data.busy_seconds += (wave_end
                                          - dispatch.start_seconds)
        self.report_data.waves += 1
        for request, result in zip(survivors, dispatch.results):
            request.attempts += 1
            resolved.append(self._complete(request, result, wave_end))
        return resolved

    def _expire(self, request: ServiceRequest, start: float,
                resolved: List[ServiceTicket]) -> bool:
        """Deadline check at dispatch: True when the request must not
        run now.  A miss with retry budget re-enqueues at the front with
        the deadline re-based to "now" (the client re-issuing); a miss
        without budget times out -- the work is shed, never executed,
        and its ticket is appended to ``resolved``."""
        deadline = request.absolute_deadline
        if deadline is None:
            return False
        if start + request.estimated_cost_seconds <= deadline + 1e-12:
            return False
        request.attempts += 1
        if request.attempts <= request.max_retries:
            request.effective_arrival_seconds = max(start, self.clock)
            self.queue.requeue_front(request)
            self._pending_cost_seconds += request.estimated_cost_seconds
            self._add_tenant_pending(request, +1)
            self.report_data.retried += 1
            return True
        ticket = self._tickets[request.request_id]
        ticket.state = RequestState.TIMED_OUT
        ticket.attempts = request.attempts
        self.report_data.timed_out += 1
        self._release_in_flight(request)
        if request.tenant is not None:
            sheds = self.report_data.sheds_by_tenant
            sheds[request.tenant] = sheds.get(request.tenant, 0) + 1
        self.pool.account_shed()
        resolved.append(ticket)
        return True

    def _release_in_flight(self, request: ServiceRequest) -> None:
        remaining = (self._in_flight_by_tenant.get(request.tenant, 0)
                     - 1)
        if remaining > 0:
            self._in_flight_by_tenant[request.tenant] = remaining
        else:
            self._in_flight_by_tenant.pop(request.tenant, None)

    def _complete(self, request: ServiceRequest,
                  result: Union[Frame, int],
                  wave_end: float) -> ServiceTicket:
        ticket = self._tickets[request.request_id]
        ticket.state = RequestState.COMPLETED
        ticket.outcome = result
        ticket.completion_seconds = wave_end
        ticket.attempts = request.attempts
        self._release_in_flight(request)
        self.report_data.completed += 1
        self.report_data.latency.record(
            wave_end - request.arrival_seconds)
        # The per-tenant books tally *completions* -- they are bumped
        # here, nowhere else, so ``calls_by_tenant`` can never drift
        # from ``completed`` (it used to be tallied separately in the
        # dispatch loop, which let a wave that died between the two
        # loops leave tenant tallies with no completion behind them).
        if request.tenant is not None:
            by_tenant = self.report_data.calls_by_tenant
            by_tenant[request.tenant] = (
                by_tenant.get(request.tenant, 0) + 1)
        return ticket

    # -- draining -------------------------------------------------------------

    def run_until(self, seconds: float) -> List[ServiceTicket]:
        """Advance the modeled clock to ``seconds``, dispatching every
        wave the pool can start before then (open-loop serving);
        returns what those waves resolved, in :meth:`step` order."""
        resolved: List[ServiceTicket] = []
        while self.queue and self.busy_until < seconds:
            resolved += self.step()
        self.clock = max(self.clock, seconds)
        return resolved

    def drain(self) -> ServiceReport:
        """Dispatch until the queue is empty; returns the books.

        Always finalises -- a drain that completed zero requests still
        returns a coherent report whose latency percentiles read
        ``None`` (undefined) and whose per-tenant books are empty: zero
        completions means zero per-tenant completions, whatever stale
        tallies an earlier accounting bug (or a caller poking
        ``report_data``) may have left behind.
        """
        while self.queue:
            self.step()
        if self.report_data.completed == 0:
            self.report_data.calls_by_tenant.clear()
        if self.report_data.rejected + self.report_data.timed_out == 0:
            # Same stale-tally contract for the shedding book: zero
            # sheds means zero per-tenant sheds.
            self.report_data.sheds_by_tenant.clear()
        return self.report()

    def release(self, ticket: ServiceTicket) -> None:
        """Forget a *resolved* ticket's service-side record.

        The service keeps every ticket (and its result frame) alive so
        late ``result()`` calls work; a million-request open-loop
        replay cannot afford that.  Releasing drops the internal
        request-id entry -- the caller's ticket object still works, the
        books are untouched, only the service-side reference is gone.
        Raises :class:`~repro.service.request.ServiceError` for a
        ticket still in flight (its completion would dangle).
        """
        if not ticket.done:
            raise ServiceError(
                f"request {ticket.request_id} is still queued; only "
                f"resolved tickets can be released")
        self._tickets.pop(ticket.request_id, None)

    def report(self) -> ServiceReport:
        """The books so far (live object; drain() returns the same)."""
        self.report_data.queue_depth = len(self.queue)
        self.report_data.queue_high_water = self.queue.high_water
        self.report_data.coalesced_requests = (
            self.batcher.coalesced_requests)
        self.report_data.clock_seconds = self.clock
        self.report_data.clock_hz = self.timing.clock_hz
        self.report_data.pool = self.pool.report(self.clock)
        return self.report_data
