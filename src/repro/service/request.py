"""Service requests: one AddressLib call wrapped for the front end.

A request is a :class:`~repro.addresslib.library.BatchCall` plus the
serving metadata the paper's Image Level Controller never needed --
arrival time, priority class, deadline, retry budget -- because the
board served exactly one application.  A front end serving many
independent clients needs all four.

Everything here is pure data plus a :class:`ServiceTicket` handle the
client polls; the mechanics live in :mod:`repro.service.engine_service`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from ..addresslib.library import BatchCall
from ..image.frame import Frame


class Priority(enum.IntEnum):
    """Request priority classes; lower value drains first.

    The classes mirror how a visual-processing service is actually
    loaded: INTERACTIVE for viewfinder/preview calls a user is waiting
    on, STANDARD for per-frame pipeline work, BULK for background
    re-processing that tolerates arbitrary queueing delay.
    """

    INTERACTIVE = 0
    STANDARD = 1
    BULK = 2

    def __str__(self) -> str:
        return self.name.lower()


class RejectReason(enum.Enum):
    """Why admission refused a request (explicit backpressure)."""

    #: The bounded queue is at depth; the client must back off.
    QUEUE_FULL = "queue_full"
    #: The modeled backlog already exceeds the class's deadline budget:
    #: accepting the call would only let it time out in the queue.
    OVERLOAD = "overload"

    def __str__(self) -> str:
        return self.value


class RequestState(enum.Enum):
    """Lifecycle of one request inside the service."""

    QUEUED = "queued"
    COMPLETED = "completed"
    REJECTED = "rejected"
    TIMED_OUT = "timed_out"

    #: Identity hashing in C (members are singletons; see ``Channel``).
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


@dataclass
class ServiceRequest:
    """One admitted call with its serving metadata (internal record)."""

    request_id: int
    call: BatchCall
    priority: Priority
    #: When the request arrived, in modeled seconds on the service clock.
    arrival_seconds: float
    #: Relative completion budget; ``None`` means no deadline.
    deadline_seconds: Optional[float]
    #: How many times a deadline miss may re-enqueue the request.
    max_retries: int = 0
    #: Dispatch attempts so far (grows on every deadline retry).
    attempts: int = 0
    #: Admission-time cost estimate (overlap timing model seconds).
    estimated_cost_seconds: float = 0.0
    #: The same call priced under the no-overlap (sum) model: what it
    #: adds to the report's ``modeled_serial_seconds`` once executed.
    serial_cost_seconds: float = 0.0
    #: The deadline is re-based here on retry (client re-issues).
    effective_arrival_seconds: float = 0.0
    #: Tenant label the books attribute this call to (``None``: untagged).
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        self.effective_arrival_seconds = self.arrival_seconds

    @property
    def absolute_deadline(self) -> Optional[float]:
        """Latest modeled completion time this attempt tolerates."""
        if self.deadline_seconds is None:
            return None
        return self.effective_arrival_seconds + self.deadline_seconds


class ServiceError(RuntimeError):
    """Asking a ticket for a result it does not have."""


@dataclass
class ServiceTicket:
    """The client's handle: filled in as the request moves through.

    ``submit`` returns the ticket immediately; a rejected request comes
    back already resolved (``state`` REJECTED with a ``reject_reason``),
    an accepted one resolves during ``step``/``run_until``/``drain``,
    and ``step`` and ``run_until`` return the tickets they resolved.
    """

    request_id: int
    priority: Priority
    arrival_seconds: float
    #: Tenant label the request was submitted under (``None``: untagged).
    tenant: Optional[str] = None
    state: RequestState = RequestState.QUEUED
    reject_reason: Optional[RejectReason] = None
    #: Functional result once COMPLETED (frame, or scalar for reduces).
    outcome: Optional[Union[Frame, int]] = field(default=None, repr=False)
    #: Modeled completion time (service clock) once COMPLETED.
    completion_seconds: Optional[float] = None
    #: Dispatch attempts consumed (>= 2 means the request was retried).
    attempts: int = 0

    @property
    def done(self) -> bool:
        return self.state is not RequestState.QUEUED

    @property
    def accepted(self) -> bool:
        return self.state is not RequestState.REJECTED

    @property
    def latency_seconds(self) -> Optional[float]:
        """Modeled end-to-end latency from *original* arrival."""
        if self.completion_seconds is None:
            return None
        return self.completion_seconds - self.arrival_seconds

    def result(self) -> Union[Frame, int]:
        """The call's functional result; raises unless COMPLETED."""
        if self.state is not RequestState.COMPLETED:
            raise ServiceError(
                f"request {self.request_id} has no result: state is "
                f"{self.state}"
                + (f" ({self.reject_reason})" if self.reject_reason
                   else ""))
        assert self.outcome is not None
        return self.outcome
