"""EngineService: the synchronous request front end over the stack.

The paper's deployment is one application owning the board.  The
ROADMAP's north star is the opposite: many independent clients and one
(modelled) engine pool.  :class:`EngineService` is the layer between --
it accepts :class:`~repro.addresslib.library.BatchCall` requests,
admits or sheds them (:mod:`repro.service.admission`), queues them with
priorities and bounded depth (:mod:`repro.service.queue`), coalesces
compatible calls into waves (:mod:`repro.service.batcher`) and routes
each wave to one board of an :class:`~repro.pool.EnginePool`.

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

import math
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
        tenant label, and ``arrival_seconds`` to place the request on
        the modeled clock (an open-loop load generator submits a whole
        trace this way -- arrivals default to "now" and never move the
        clock backwards).
        """
        if options is None:
            from ..api import SubmitOptions
            options = SubmitOptions()
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
            tenant=options.tenant)
        self._next_request_id += 1
        ticket = ServiceTicket(request_id=request.request_id,
                               priority=options.priority,
                               arrival_seconds=arrival,
                               tenant=options.tenant)
        self._tickets[request.request_id] = ticket
        self.report_data.submitted += 1

        reason = self._admit(request)
        if reason is None:
            reason = self.queue.offer(request)
        if reason is not None:
            self._reject(ticket, reason)
            return ticket
        self.report_data.accepted += 1
        return ticket

    def _admit(self, request: ServiceRequest) -> Optional[RejectReason]:
        alive = self.pool.alive_count() or 1
        busy_tail = max(0.0, self.busy_until - self.clock)
        queued = self.queue.cost_seconds
        if self.policy.fair_queueing:
            # Under WFQ a tenant's work drains at its weight share of
            # the pool, so the tail *its* next request faces is its own
            # queued cost expanded by that share -- never more than the
            # global figure (with one bucket the two coincide exactly,
            # which is what keeps untagged decisions bit-identical to
            # the pre-tenancy controller).
            own = self.queue.cost_by_tenant.get(request.tenant, 0.0)
            queued = min(queued, own / self._weight_share(request.tenant))
        return self.admission.admit(request, busy_tail + queued / alive,
                                    self.clock)

    def _weight_share(self, tenant: Optional[str]) -> float:
        """``tenant``'s weight share among tenants with queued work.

        The weights are summed with ``math.fsum``, whose result does
        not depend on the order they come in."""
        weight = self.policy.weight
        queued = self.queue.cost_by_tenant
        weights = [weight(name) for name in queued]
        own = weight(tenant)
        if tenant not in queued:
            weights.append(own)
        total = math.fsum(weights)
        if total <= 0.0:
            return 1.0
        return own / total

    def _reject(self, ticket: ServiceTicket,
                reason: RejectReason) -> None:
        ticket.state = RequestState.REJECTED
        ticket.reject_reason = reason
        by_reason = self.report_data.rejected_by_reason
        by_reason[reason.value] = by_reason.get(reason.value, 0) + 1
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
        not_before = max(r.effective_arrival_seconds for r in wave)
        start_estimate = max(self.busy_until, not_before)
        survivors = [r for r in wave if r.deadline_seconds is None
                     or not self._expire(r, start_estimate, resolved)]
        if not survivors:
            return resolved
        dispatch = self.pool.dispatch([r.call for r in survivors],
                                      not_before=not_before)
        report = self.report_data
        wave_end = dispatch.end_seconds
        self.clock = max(self.clock, wave_end)
        report.busy_seconds += wave_end - dispatch.start_seconds
        report.waves += 1
        for request, result in zip(survivors, dispatch.results):
            report.modeled_serial_seconds += request.serial_cost_seconds
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
            self.report_data.retried += 1
            return True
        ticket = self._tickets[request.request_id]
        ticket.state = RequestState.TIMED_OUT
        ticket.attempts = request.attempts
        self.report_data.timed_out += 1
        self.pool.account_shed()
        resolved.append(ticket)
        return True

    def _complete(self, request: ServiceRequest,
                  result: Union[Frame, int],
                  wave_end: float) -> ServiceTicket:
        ticket = self._tickets[request.request_id]
        ticket.state = RequestState.COMPLETED
        ticket.outcome = result
        ticket.completion_seconds = wave_end
        ticket.attempts = request.attempts
        self.report_data.completed += 1
        self.report_data.latency.record(
            wave_end - request.arrival_seconds)
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
        ``None`` (undefined).  Per-tenant books are cut from the
        tickets, which carry their tenant (``LoadReport.account``).
        """
        while self.queue:
            self.step()
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
