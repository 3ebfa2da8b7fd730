"""Service-level rules (SVC001, SVC003): deadline and SLO posture.

The service front end (:mod:`repro.service`) admits work against a
deadline budget using the closed-form timing model.  A call *program*
has a static analogue: its modeled critical-path cost -- the cheapest
completion any scheduler could reach with unlimited engines -- is a
lower bound on its latency.  If that bound already exceeds the deadline
budget the program is asked to meet, no amount of sharding or batching
will save it; SVC001 surfaces that before anything is enqueued.

The per-step cycle counts come from the same
:class:`~repro.perf.timing.EngineTimingModel` arithmetic the driver and
the admission controller price with, so the static verdict cannot drift
from the runtime accounting.
"""

from __future__ import annotations

from typing import Dict, List

from ..addresslib.program import CallProgram, ProgramStep, dependency_edges
from ..perf.timing import EngineTimingModel
from .diagnostics import Diagnostic
from .params import EngineParams
from .rules import _diag

_TIMING = EngineTimingModel()


def step_cycles(step: ProgramStep,
                timing: EngineTimingModel = _TIMING) -> int:
    """Modeled engine cycles of one program step."""
    resident = sum(step.resident) if step.resident is not None else 0
    return timing.call_cycles_raw(
        step.fmt.pixels, step.fmt.strips, len(step.inputs),
        produces_image=not step.reduce_to_scalar,
        requires_full_frames=step.requires_full_frames,
        resident_images=resident)


def critical_path_cycles(program: CallProgram,
                         timing: EngineTimingModel = _TIMING) -> int:
    """Cycles of the costliest dependency chain through ``program``.

    Longest weighted path over the RAW/WAW/WAR edges: the modeled
    completion floor with unlimited engine workers.  A single step's
    cost is its own floor; independent steps never add.
    """
    predecessors: Dict[int, List[int]] = {}
    for before, after in dependency_edges(program):
        predecessors.setdefault(after, []).append(before)
    finish: Dict[int, int] = {}
    for step in program.steps:  # steps are in topological (issue) order
        ready = max((finish[p] for p in predecessors.get(step.index, [])),
                    default=0)
        finish[step.index] = ready + step_cycles(step, timing)
    return max(finish.values(), default=0)


def service_rules(program: CallProgram,
                  params: EngineParams) -> List[Diagnostic]:
    """SVC001/SVC003: static serving checks over a call program.

    SVC001 (deadline) is inert unless the caller declares a budget
    (``EngineParams.deadline_cycles``; the ``repro-check
    --deadline-cycles`` flag); SVC003 (SLO) is inert unless the caller
    declares a serving policy (``EngineParams.service_policy``).
    """
    findings: List[Diagnostic] = []
    budget = params.deadline_cycles
    if budget is not None and program.steps:
        critical = critical_path_cycles(program)
        if critical > budget:
            seconds = critical / _TIMING.clock_hz
            findings.append(_diag(
                "SVC001",
                f"modeled critical-path cost is {critical} cycles "
                f"({seconds * 1e3:.2f} ms at the PCI clock), over the "
                f"--deadline-cycles budget of {budget}: even unlimited "
                f"engine workers cannot serve this program inside its "
                f"deadline"))
    findings.extend(slo_rules(params))
    return findings


def slo_rules(params: EngineParams) -> List[Diagnostic]:
    """SVC003: tenant p95 targets the admission budget cannot protect.

    Inert unless the caller declares a serving policy
    (``EngineParams.service_policy``).  Admission bounds the *global*
    backlog by the largest class budget; under weighted fair queueing a
    tenant drains that backlog at its weight share, so the delay its
    admitted work can legally face is up to ``budget / share``.  A p95
    target below that figure is only ever "met" by shedding the
    tenant's own requests -- the static analogue of a retry storm, and
    worth surfacing before the first request is enqueued.
    """
    policy = params.service_policy
    if policy is None or not policy.tenants:
        return []
    from ..service.request import Priority
    budgets = [policy.admission.budget_for(priority)
               for priority in Priority]
    unbounded = any(budget is None for budget in budgets)
    largest = None if unbounded else max(budgets)  # type: ignore[type-var]
    total_weight = sum(tenant.weight
                       for tenant in policy.tenants.values())
    findings: List[Diagnostic] = []
    for name, tenant in sorted(policy.tenants.items()):
        target = tenant.p95_target_seconds
        if target is None:
            continue
        if unbounded:
            findings.append(_diag(
                "SVC003",
                f"tenant {name!r} declares a p95 target of "
                f"{target * 1e3:.2f} ms but at least one priority class "
                f"has no admission budget: the admitted backlog is "
                f"unbounded, so the target can only be held by "
                f"shedding the tenant's own work"))
            continue
        share = (tenant.weight / total_weight
                 if total_weight > 0.0 else 1.0)
        assert largest is not None
        worst = largest / share
        if worst > target:
            findings.append(_diag(
                "SVC003",
                f"tenant {name!r} holds weight share {share:.3f} of a "
                f"backlog admission bounds at "
                f"{largest * 1e3:.2f} ms: its fair drain delay can "
                f"reach {worst * 1e3:.2f} ms, over the declared p95 "
                f"target of {target * 1e3:.2f} ms -- the target is "
                f"only reachable by shedding the tenant's own work"))
    return findings

