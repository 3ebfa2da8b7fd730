"""The AddressEngine service layer: a request front end over the stack.

Turns the driver + scheduler stack into a servable engine: bounded
priority queueing with explicit backpressure (:class:`RequestQueue`),
model-priced admission control (:class:`AdmissionController`),
micro-batching of compatible calls (:class:`MicroBatcher`), per-request
deadlines with bounded retry, and a :class:`ServiceReport` of the
serving health -- all on the deterministic modeled clock of the overlap
timing model.  See ``docs/SERVICE.md``.
"""

from .admission import AdmissionController, AdmissionPolicy
from .batcher import MicroBatcher
from .engine_service import EngineService, ServiceReport
from .policy import ServicePolicy, TenantPolicy
from .queue import RequestQueue
from .request import (Priority, RejectReason, RequestState, ServiceError,
                      ServiceRequest, ServiceTicket)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "EngineService",
    "MicroBatcher",
    "Priority",
    "RejectReason",
    "RequestQueue",
    "RequestState",
    "ServiceError",
    "ServicePolicy",
    "ServiceReport",
    "ServiceRequest",
    "ServiceTicket",
    "TenantPolicy",
]
