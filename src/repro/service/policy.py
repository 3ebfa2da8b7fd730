"""ServicePolicy: every serving knob of the front end, in one record.

One frozen :class:`ServicePolicy` carries the queue bound, the wave
width, the admission budget, the per-tenant SLO contract
(:class:`TenantPolicy`: fair-queueing weight and p95 deadline target)
and the one fairness switch -- the same move
:class:`~repro.api.SubmitOptions` made for per-request metadata.
``EngineService``, ``RequestQueue``, ``MicroBatcher`` and
``AdmissionController`` each take it as their one ``policy=``
argument.  Values no deployment sets are module constants instead:
:data:`BUDGET_FRACTIONS` (each class's share of the admission budget),
:data:`DEFAULT_TENANT_POLICY` (the contract of untagged and unlisted
tenants) and admission's
:data:`~repro.service.admission.RATE_TAU_SECONDS`.

Deliberately light: this module imports nothing beyond
:mod:`repro.service.request`, so the static analyzer
(:mod:`repro.analysis`, rule SVC003) can inspect a policy without
dragging in the pool or the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .request import Priority

__all__ = [
    "AdmissionPolicy",
    "ServicePolicy",
    "TenantPolicy",
]

#: Per-class fraction of the admission budget (BULK sheds first).
BUDGET_FRACTIONS: Mapping[Priority, float] = {
    Priority.INTERACTIVE: 1.0,
    Priority.STANDARD: 0.75,
    Priority.BULK: 0.5,
}


@dataclass
class AdmissionPolicy:
    """The load-shedding budget."""

    #: Modeled backlog (busy tail + queued cost) a newly admitted
    #: INTERACTIVE request may face; ``None`` disables shedding.
    deadline_budget_seconds: Optional[float] = None

    def budget_for(self, priority: Priority) -> Optional[float]:
        """The class's share of the budget (:data:`BUDGET_FRACTIONS`);
        ``None`` when shedding is off."""
        if self.deadline_budget_seconds is None:
            return None
        return self.deadline_budget_seconds * BUDGET_FRACTIONS[priority]


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's SLO contract with the service.

    ``weight`` is the tenant's fair-queueing share *within* each
    priority class: at equal weights tenants interleave one-for-one;
    a weight-2 tenant drains two requests for every one of a weight-1
    neighbour.  The p95 target makes admission shade that tenant's
    backlog budget so its modeled completion tail stays inside the
    target even while another tenant floods.
    """

    #: Fair-queueing weight within each priority class (> 0).
    weight: float = 1.0
    #: Modeled p95 completion target admission protects; ``None``: no
    #: target (the tenant rides the plain class budget).
    p95_target_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(
                f"tenant weight must be > 0, got {self.weight}")
        if (self.p95_target_seconds is not None
                and self.p95_target_seconds <= 0):
            raise ValueError(
                f"p95_target_seconds must be > 0, got "
                f"{self.p95_target_seconds}")


#: The neutral contract untagged (and unconfigured) tenants serve under.
DEFAULT_TENANT_POLICY = TenantPolicy()


@dataclass(frozen=True)
class ServicePolicy:
    """Every constructor knob of the service stack, in one record.

    ``ServicePolicy()`` reproduces the historical defaults exactly
    (depth 64, waves of 8, no shedding, no tenants), so threading a
    default policy through the stack changes nothing -- the property
    the 208-case bit-exactness corpus holds with fairness enabled.
    """

    #: Global request-queue depth bound.
    queue_depth: int = 64
    #: Widest wave the micro-batcher may form.
    max_batch: int = 8
    #: The load-shedding budget (``None`` budget disables shedding).
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: Per-tenant SLO contracts, by tenant label (untagged requests
    #: and unlisted tenants serve under :data:`DEFAULT_TENANT_POLICY`).
    tenants: Mapping[str, TenantPolicy] = field(default_factory=dict)
    #: Weighted fair interleave across tenants within each class, with
    #: near-deadline compatible followers ranked first in each wave
    #: (``False``: plain FIFO within class and followers in drain
    #: order, the pre-tenancy behaviour).
    fair_queueing: bool = True

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(
                f"queue depth must be >= 1, got {self.queue_depth}")
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}")

    def tenant(self, name: Optional[str]) -> TenantPolicy:
        """The contract ``name`` serves under (default when unlisted)."""
        if name is None:
            return DEFAULT_TENANT_POLICY
        return self.tenants.get(name, DEFAULT_TENANT_POLICY)

    def weight(self, name: Optional[str]) -> float:
        return self.tenant(name).weight

