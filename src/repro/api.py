"""repro.api: the one import an application needs.

The stack grew layer by layer (addresslib -> host -> pool -> service),
and this facade re-exports each layer's public names from one place.
Serving metadata -- priority class, relative deadline, retry budget,
tenant label, modeled arrival time -- travels in one
:class:`SubmitOptions` record, which ``EngineService.submit(call,
options=...)`` takes; the layers below the service (pool, library,
driver) take none of it.  The tenant label selects the request's
:class:`TenantPolicy` and comes back on its ticket, and the per-tenant
books are folded from the tickets (``repro.load.LoadReport``).

Typical serving setup::

    from repro.api import (EngineService, EnginePool, SubmitOptions,
                           Priority, AdmissionPolicy, BatchCall,
                           ServicePolicy, TenantPolicy)

    pool = EnginePool.of_engines(4)
    service = EngineService(pool=pool, policy=ServicePolicy(
        admission=AdmissionPolicy(0.050),
        tenants={"viewfinder": TenantPolicy(weight=2.0,
                                            p95_target_seconds=0.040)}))
    ticket = service.submit(call, options=SubmitOptions(
        priority=Priority.INTERACTIVE, deadline_seconds=0.030,
        tenant="viewfinder"))

Async serving (:mod:`repro.aio`) rides the same options object::

    async with AsyncEngineClient(service) as client:
        ticket = await client.submit(call, options)
        frame = await ticket
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .addresslib.library import (AddressLib, BatchCall, CallLog,
                                 SoftwareBackend)
from .aio import AsyncEngineClient, AsyncTicket, CompletionStream
from .host.backend import EngineBackend
from .host.driver import AddressEngineDriver, FrameResidencyCache
from .host.scheduler import BatchReport, CallScheduler
from .pool import EnginePool, EngineWorker, PoolReport, WaveDispatch
from .service.admission import AdmissionController, AdmissionPolicy
from .service.engine_service import EngineService, ServiceReport
from .service.policy import ServicePolicy, TenantPolicy
from .service.request import (Priority, RejectReason, RequestState,
                              ServiceError, ServiceTicket)


@dataclass(frozen=True)
class SubmitOptions:
    """Everything a caller may say about one submission, in one place.

    All fields default to "no preference", so ``SubmitOptions()`` is
    the neutral submission ``options=None`` stands for.  The object
    is frozen: build one per request (or share one across requests with
    identical metadata -- it carries no per-request state).
    """

    #: Priority class (drains strictly lower-value-first).
    priority: Priority = Priority.STANDARD
    #: Relative completion budget in modeled seconds; ``None``: none.
    deadline_seconds: Optional[float] = None
    #: Deadline-miss re-enqueues allowed before timing out.
    max_retries: int = 0
    #: Tenant label: selects the ``TenantPolicy`` the request serves
    #: under and is carried on its ticket; ``None``: untagged.
    tenant: Optional[str] = None
    #: Where the request sits on the modeled clock (open-loop traces);
    #: ``None`` means "now".  Never moves the clock backwards.
    arrival_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if (self.deadline_seconds is not None
                and self.deadline_seconds < 0):
            raise ValueError(
                f"deadline_seconds must be >= 0, got "
                f"{self.deadline_seconds}")


__all__ = [
    "AddressEngineDriver",
    "AddressLib",
    "AdmissionController",
    "AdmissionPolicy",
    "AsyncEngineClient",
    "AsyncTicket",
    "BatchCall",
    "BatchReport",
    "CallLog",
    "CallScheduler",
    "CompletionStream",
    "EngineBackend",
    "EnginePool",
    "EngineService",
    "EngineWorker",
    "FrameResidencyCache",
    "PoolReport",
    "Priority",
    "RejectReason",
    "RequestState",
    "ServiceError",
    "ServicePolicy",
    "ServiceReport",
    "ServiceTicket",
    "TenantPolicy",
    "SoftwareBackend",
    "SubmitOptions",
    "WaveDispatch",
]
