"""Experiment SLO -- noisy-neighbour fairness under ServicePolicy.

Three tenants share one modeled board through the full tenancy stack
(WFQ drain, per-tenant admission shading, deadline-aware batching):
two *victims* each offer 20% of the stream, steady; one *aggressor*
floods at 60% -- three times its configured fair weight (all three
tenants hold equal ``TenantPolicy`` weights).  The aggregate is offered
at 1.5x the pool's measured capacity, so roughly a third of the
offered load must be shed -- and *who* absorbs that shedding is the
whole point of the policy.

What must hold (the ``BENCH_slo.json`` gates):

* each victim keeps ``goodput_ratio >= 0.95`` -- tenants inside their
  fair share ride out the flood essentially unshed;
* each victim's modeled p95 stays finite and within its configured
  ``p95_target_seconds`` -- the target admission promised to protect;
* the aggressor absorbs at least 90% of all sheds -- the flood pays
  for the flood;
* below saturation, the serial and asyncio replays cut *identical*
  modeled books with fairness enabled (no wall-clock behaviour leaks
  into the modeled domain).

A contrast replay of the same trace rides along in the JSON (no
gate).  It turns off ``fair_queueing`` -- so WFQ drain order,
deadline-ranked followers and pricing each tenant against its own
weighted backlog -- and the victims' p95 targets.  Arrival-rate
shading stays on, so the contrast sheds the same requests from the
same tenants (in the committed 20,000-request book, 6,588 OVERLOAD
rejects at both levels: aggressor 6,586, victim_b 2).  What moves is
latency: with one FIFO the victims queue behind the aggressor's
backlog (victim p95 35.34 ms against 23.56 ms with fairness on) while
the aggressor's own p95 falls (23.56 ms against 70.67 ms).

The main level replays ``REPRO_SLO_REQUESTS`` requests (default
20000, the committed size, which CI's slo-smoke job replays and holds
to the committed file).  Results land in ``BENCH_slo.json`` at the
repo root.
"""

import json
import os
import pathlib

from repro.api import (AdmissionPolicy, EnginePool, EngineService,
                       Priority, ServicePolicy, TenantPolicy)
from repro.load import (ArrivalTrace, CallFactory, TenantSpec,
                        TraceSpec, replay_async, replay_serial,
                        sweep_report_dict)
from repro.perf import format_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

REQUESTS = int(os.environ.get("REPRO_SLO_REQUESTS", "20000"))
BOARDS = 1
QUEUE_DEPTH = 256
MAX_BATCH = 8
#: Aggregate offered load as a fraction of measured capacity.
OVERLOAD = 1.5
#: Admission backlog budget, in units of one call's modeled cost.
BUDGET_CALLS = 30.0
#: Victim p95 target, in units of one call's modeled cost.
TARGET_CALLS = 25.0
SEED = 0x510F

VICTIMS = ("victim_a", "victim_b")
AGGRESSOR = "aggressor"

#: Offered-stream shares: the aggressor floods at 3x the victims'
#: rate while every tenant's *policy* weight is equal -- the flood is
#: 3x its fair share by construction.
TRACE_TENANTS = (
    TenantSpec("victim_a", weight=1.0, priority=Priority.STANDARD),
    TenantSpec("victim_b", weight=1.0, priority=Priority.STANDARD),
    TenantSpec("aggressor", weight=3.0, priority=Priority.STANDARD),
)


def _spec(requests, rate_per_s):
    """Uniform-cost QCIF-scale intra mix: every call prices the same,
    so capacity and budgets are exact multiples of one call."""
    return TraceSpec(
        requests=requests, rate_per_s=rate_per_s, seed=SEED,
        tenants=TRACE_TENANTS, width=32, height=24, frame_pool=16,
        inter_fraction=0.0, intra_ops=("intra_grad",))


def _call_cost():
    """The (uniform) modeled overlapped cost of one trace call."""
    probe = EngineService()
    factory = CallFactory(ArrivalTrace.synthesize(_spec(8, 1.0)))
    return probe.admission.price(
        factory.call(factory.trace.entries[0]))[1]


def _policy(call_cost, fair_queueing=True, with_targets=True):
    target = TARGET_CALLS * call_cost if with_targets else None
    return ServicePolicy(
        queue_depth=QUEUE_DEPTH, max_batch=MAX_BATCH,
        admission=AdmissionPolicy(
            deadline_budget_seconds=BUDGET_CALLS * call_cost),
        tenants={
            "victim_a": TenantPolicy(weight=1.0,
                                     p95_target_seconds=target),
            "victim_b": TenantPolicy(weight=1.0,
                                     p95_target_seconds=target),
            "aggressor": TenantPolicy(weight=1.0),
        },
        fair_queueing=fair_queueing)


def _service(policy):
    return EngineService(pool=EnginePool.of_engines(BOARDS),
                         policy=policy)


def _measured_capacity_per_s(call_cost):
    """Saturated completion rate for this mix (measured, not assumed):
    a policy-free burst offered effectively at once, completed under
    the modeled clock."""
    trace = ArrivalTrace.synthesize(
        _spec(min(REQUESTS, 2048), 1e6))
    service = _service(ServicePolicy(queue_depth=QUEUE_DEPTH,
                                     max_batch=MAX_BATCH))
    report = replay_async(trace, service)
    assert report.completed == len(trace)
    return report.goodput_per_s


def _modeled_books(report):
    """The machine-independent slice of a LoadReport payload."""
    payload = report.to_dict()
    for key in ("mode", "wall_latency", "backpressure_waits",
                "backpressure_wall_seconds", "wall_elapsed_seconds",
                "requests_per_wall_s", "service"):
        payload.pop(key)
    return payload


def test_slo_fairness(save_report):
    call_cost = _call_cost()
    capacity_per_s = _measured_capacity_per_s(call_cost)
    target_seconds = TARGET_CALLS * call_cost

    base = ArrivalTrace.synthesize(
        _spec(REQUESTS, OVERLOAD * capacity_per_s))

    # The gated level: fairness on, aggressor flooding at 3x weight.
    fair = replay_serial(base, _service(_policy(call_cost)),
                         load_factor=OVERLOAD)
    # Contrast level (no gate): same trace, WFQ and p95 targets off;
    # arrival-rate shading stays on.
    unfair = replay_serial(
        base, _service(_policy(call_cost, fair_queueing=False,
                               with_targets=False)),
        load_factor=OVERLOAD)

    # Determinism gate: below saturation the serial and async replays
    # cut identical modeled books with fairness enabled.
    calm = ArrivalTrace.synthesize(
        _spec(min(REQUESTS // 4, 4096), 0.6 * capacity_per_s))
    calm_serial = replay_serial(calm, _service(_policy(call_cost)),
                                load_factor=0.6)
    calm_async = replay_async(calm, _service(_policy(call_cost)),
                              load_factor=0.6)
    assert _modeled_books(calm_serial) == _modeled_books(calm_async)

    # Accounting balances at every level.
    for report in (fair, unfair, calm_serial, calm_async):
        assert report.accounted == report.offered_requests

    # -- the fairness gates ---------------------------------------------------
    total_sheds = sum(book.sheds for book in fair.tenants.values())
    aggressor_book = fair.tenants[AGGRESSOR]
    assert total_sheds > 0, "the 1.5x overload level must shed"
    assert aggressor_book.sheds >= 0.90 * total_sheds, (
        f"aggressor absorbed {aggressor_book.sheds}/{total_sheds} "
        f"sheds; the flood must pay for the flood")
    for name in VICTIMS:
        book = fair.tenants[name]
        assert book.completed / book.submitted >= 0.95, (
            f"{name} goodput {book.completed}/{book.submitted} under "
            f"the aggressor flood")
        p95 = book.modeled_latency.p95
        assert p95 is not None
        assert p95 <= target_seconds, (
            f"{name} modeled p95 {p95 * 1e3:.2f} ms over the "
            f"{target_seconds * 1e3:.2f} ms target")

    # -- the JSON payload -----------------------------------------------------
    payload = sweep_report_dict(
        [fair, unfair, calm_serial, calm_async],
        trace_meta={
            "seed": SEED,
            "requests": REQUESTS,
            "boards": BOARDS,
            "overload": OVERLOAD,
            "capacity_per_s": capacity_per_s,
            "call_cost_seconds": call_cost,
            "budget_calls": BUDGET_CALLS,
            "target_calls": TARGET_CALLS,
            "p95_target_seconds": target_seconds,
            "tenants": {t.name: {"trace_weight": t.weight,
                                 "policy_weight": 1.0}
                        for t in TRACE_TENANTS},
            "levels": ["fair", "unfair", "calm_serial", "calm_async"],
        })
    (REPO_ROOT / "BENCH_slo.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    rows = []
    for label, report in (("fair", fair), ("unfair", unfair)):
        for name in (*VICTIMS, AGGRESSOR):
            book = report.tenants[name]
            p95 = book.modeled_latency.p95
            rows.append((
                f"{label}/{name}",
                book.submitted,
                book.completed,
                book.sheds,
                f"{book.completed / book.submitted:.3f}",
                f"{p95 * 1e3:.2f}" if p95 is not None else "-",
            ))
    save_report("slo_fairness", format_table(
        ["level/tenant", "offered", "completed", "sheds",
         "goodput", "p95 ms"],
        rows,
        title=f"Noisy neighbour, {REQUESTS} requests at "
              f"{OVERLOAD:.1f}x capacity, {BOARDS} board(s), "
              f"victim target {target_seconds * 1e3:.2f} ms"))
