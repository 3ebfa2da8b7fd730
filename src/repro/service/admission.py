"""Admission control: price the call, then accept or shed.

The key asset is that every AddressEngine call has a *closed-form* cost
(:class:`~repro.perf.timing.EngineTimingModel`, validated against the
cycle model): the controller can know, at enqueue time and without
executing anything, how long the backlog in front of a request will
take.  Admission then stops being a heuristic ("queue length < N") and
becomes a latency statement: a request is accepted only if the modeled
backlog still fits inside its class's deadline budget.

Priority classes get *graduated* budgets: BULK is shed first (it can
retry any time), INTERACTIVE last -- the classic way a multimedia
service keeps its interactive tail latency flat under overload.

Tenancy adds two refinements, both driven by the
:class:`~repro.service.policy.ServicePolicy`:

* **p95 targets cap the budget.**  A tenant with
  ``p95_target_seconds`` is never admitted against a backlog its
  target could not absorb -- the budget it is judged by is
  ``min(class budget, p95 target)``.
* **Arrival-rate shading.**  The controller keeps an exponentially
  decayed per-tenant arrival counter on the *modeled* clock
  (deterministic: same trace, same estimates on any machine).  A
  tenant whose observed share of the arrival stream exceeds its
  fair weight share has its budget shaded by
  ``fair_share / observed_share`` -- a 3x-flooding tenant is judged
  against a third of the budget, so it absorbs the shedding while the
  tenants inside their share keep the full one.

The backlog a tenant is judged against is its *own* weighted-fair
backlog (the service computes it from the per-tenant queued cost and
the WFQ share), so one tenant's flood never inflates the figure a
well-behaved neighbour is admitted under.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..addresslib.library import BatchCall
from ..perf.timing import EngineTimingModel
from ..pool.pricing import call_cost_seconds
from .policy import AdmissionPolicy, ServicePolicy
from .request import Priority, RejectReason, ServiceRequest

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
]


class _RateEstimate:
    """Exponentially decayed arrival counter for one tenant."""

    __slots__ = ("count", "last_seconds")

    def __init__(self) -> None:
        self.count = 0.0
        self.last_seconds = 0.0

    def decayed(self, now: float, tau: float) -> float:
        """The counter decayed to ``now`` (without mutating)."""
        elapsed = max(0.0, now - self.last_seconds)
        return self.count * math.exp(-elapsed / tau)


class AdmissionController:
    """Prices requests and sheds the ones the backlog would drown."""

    def __init__(self, timing: Optional[EngineTimingModel] = None,
                 policy: Optional[ServicePolicy] = None) -> None:
        self.timing = timing or EngineTimingModel()
        self.policy = policy if policy is not None else ServicePolicy()
        self._rates: Dict[Optional[str], _RateEstimate] = {}

    def price(self, call: BatchCall) -> Tuple[float, float]:
        """(serial, overlapped) modeled seconds of ``call``."""
        return call_cost_seconds(call, self.timing)

    # -- arrival-rate estimation ----------------------------------------------

    def observe(self, tenant: Optional[str], now: float) -> None:
        """Fold one arrival of ``tenant`` at modeled time ``now`` into
        the decayed per-tenant rate estimate (every submission counts,
        accepted or shed -- it is the *offered* stream being sized)."""
        tau = self.policy.rate_tau_seconds
        estimate = self._rates.get(tenant)
        if estimate is None:
            estimate = self._rates[tenant] = _RateEstimate()
        estimate.count = estimate.decayed(now, tau) + 1.0
        estimate.last_seconds = max(estimate.last_seconds, now)

    def _share_shade(self, tenant: Optional[str], now: float) -> float:
        """``min(1, fair share / observed share)`` of ``tenant``.

        1.0 for tenants inside their weighted fair share of the
        observed arrival stream; < 1.0 for the ones flooding past it.
        """
        tau = self.policy.rate_tau_seconds
        own = 0.0
        total_rate = 0.0
        total_weight = 0.0
        for name, estimate in self._rates.items():
            rate = estimate.decayed(now, tau) / tau
            if rate <= 1e-9:
                continue
            total_rate += rate
            total_weight += self.policy.weight(name)
            if name == tenant:
                own = rate
        if own <= 1e-9 or total_rate <= 1e-9 or total_weight <= 0.0:
            return 1.0
        fair = self.policy.weight(tenant) / total_weight
        observed = own / total_rate
        if observed <= fair:
            return 1.0
        return fair / observed

    # -- the decision ---------------------------------------------------------

    def effective_budget(self, priority: Priority,
                         tenant: Optional[str],
                         now: Optional[float] = None) -> Optional[float]:
        """The backlog budget this (class, tenant) pair is judged by:
        the graduated class budget, capped at the tenant's p95 target,
        shaded by the tenant's arrival overshare.  ``None`` disables
        shedding (no budget, no target)."""
        budget = self.policy.admission.budget_for(priority)
        target = self.policy.tenant(tenant).p95_target_seconds
        if target is not None:
            budget = target if budget is None else min(budget, target)
        if budget is not None and now is not None:
            budget *= self._share_shade(tenant, now)
        return budget

    def admit(self, request: ServiceRequest, backlog_seconds: float,
              tenant_backlog_seconds: Optional[float] = None,
              now: Optional[float] = None) -> Optional[RejectReason]:
        """Accept (``None``) or shed ``request`` given the backlog.

        ``backlog_seconds`` is the modeled time until the engine would
        *start* this request: the current wave's unfinished tail plus
        the estimated cost of everything already queued.
        ``tenant_backlog_seconds``, when the caller computes one, is
        the weighted-fair refinement -- the tail this tenant's *own*
        work faces under WFQ, never more than the global figure -- and
        is what the budget is compared against, so an untagged
        single-bucket service reproduces the pre-tenancy decision
        exactly.  If the backlog exceeds the effective budget the
        request is shed now rather than queued to rot.  The request's
        *own* deadline is deliberately not examined here -- admission
        enforces the service's latency posture, while individual
        deadlines are enforced at dispatch (timeout + bounded retry),
        where the real start time is known.
        """
        budget = self.effective_budget(request.priority, request.tenant,
                                       now)
        backlog = (tenant_backlog_seconds
                   if tenant_backlog_seconds is not None
                   else backlog_seconds)
        if budget is not None and backlog > budget:
            return RejectReason.OVERLOAD
        return None
