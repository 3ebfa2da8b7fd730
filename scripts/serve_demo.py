"""Drive the AddressEngine service front end with an open-loop load.

Synthesizes (or loads) a seeded multi-tenant arrival trace via
:mod:`repro.load` and replays it against an
:class:`~repro.api.EngineService` -- serially, or through the asyncio
facade (``--async``) with producers suspending under backpressure --
then prints the latency/goodput books.  Everything is measured on the
modeled clock: two runs with the same arguments print the same table
on any machine.

    PYTHONPATH=src python scripts/serve_demo.py
    PYTHONPATH=src python scripts/serve_demo.py --load 1.5 --seed 7
    PYTHONPATH=src python scripts/serve_demo.py --engines 4 --async
    PYTHONPATH=src python scripts/serve_demo.py --trace mytrace.json
    PYTHONPATH=src python scripts/serve_demo.py --save-trace mytrace.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.api import (AdmissionPolicy, EnginePool, EngineService,
                       ServicePolicy)
from repro.image import ImageFormat
from repro.load import (ArrivalTrace, CallFactory, TenantSpec, TraceSpec,
                        replay_async, replay_serial)
from repro.perf import format_table
from repro.service import Priority

QCIF = ImageFormat("QCIF", 176, 144)


def _tenants(args: argparse.Namespace) -> tuple:
    deadline = (args.deadline_ms * 1e-3
                if args.deadline_ms is not None else None)
    return (
        TenantSpec("viewfinder", weight=1.0,
                   priority=Priority.INTERACTIVE,
                   deadline_seconds=deadline,
                   max_retries=args.retries),
        TenantSpec("pipeline", weight=2.0, priority=Priority.STANDARD,
                   deadline_seconds=deadline,
                   max_retries=args.retries),
        TenantSpec("reprocess", weight=1.0, priority=Priority.BULK,
                   deadline_seconds=deadline,
                   max_retries=args.retries, burst_factor=4.0),
    )


def _build_service(args: argparse.Namespace) -> EngineService:
    policy = ServicePolicy(
        queue_depth=args.queue_depth, max_batch=args.max_batch,
        admission=AdmissionPolicy(
            deadline_budget_seconds=args.budget_ms * 1e-3))
    return EngineService(
        pool=EnginePool.of_engines(args.engines), policy=policy)


def _build_trace(args: argparse.Namespace) -> ArrivalTrace:
    """Synthesize the demo trace at ``--load`` x modeled capacity."""
    probe_spec = TraceSpec(
        requests=32, rate_per_s=1.0, tenants=_tenants(args),
        seed=args.seed, width=QCIF.width, height=QCIF.height,
        frame_pool=32, inter_fraction=0.25,
        intra_ops=("intra_grad", "intra_box3"))
    probe = EngineService()
    factory = CallFactory(ArrivalTrace.synthesize(probe_spec))
    mean_cost = sum(
        probe.admission.price(factory.call(entry))[1]
        for entry in factory.trace.entries) / len(factory.trace)
    rate = args.load * args.engines / mean_cost
    spec = TraceSpec(
        requests=args.requests, rate_per_s=rate,
        tenants=_tenants(args), seed=args.seed, width=QCIF.width,
        height=QCIF.height, frame_pool=32, inter_fraction=0.25,
        intra_ops=("intra_grad", "intra_box3"))
    return ArrivalTrace.synthesize(spec)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Open-loop load generator for the EngineService "
                    "front end (modeled clock: deterministic).")
    parser.add_argument("--requests", type=int, default=200,
                        help="requests to synthesize (default 200; "
                             "ignored with --trace)")
    parser.add_argument("--load", type=float, default=0.9,
                        help="offered load as a fraction of modeled "
                             "capacity (default 0.9; >1 overloads)")
    parser.add_argument("--engines", type=int, default=1,
                        help="boards in the engine pool (default 1)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="micro-batch bound per wave (default 8)")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="bounded queue depth (default 64)")
    parser.add_argument("--budget-ms", type=float, default=100.0,
                        help="admission backlog budget for INTERACTIVE "
                             "requests, in modeled ms (default 100)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline in modeled ms "
                             "(default: none)")
    parser.add_argument("--retries", type=int, default=0,
                        help="deadline-miss retries per request")
    parser.add_argument("--seed", type=int, default=0x5E2F,
                        help="arrival/workload seed")
    parser.add_argument("--async", dest="use_async",
                        action="store_true",
                        help="replay through the asyncio facade "
                             "(repro.aio): streaming completions, "
                             "producers suspend under backpressure "
                             "instead of shedding on queue depth")
    parser.add_argument("--trace", type=str, default=None,
                        help="replay this saved trace JSON instead of "
                             "synthesizing one")
    parser.add_argument("--save-trace", type=str, default=None,
                        help="write the synthesized trace to this "
                             "path (replayable via --trace)")
    args = parser.parse_args(argv)

    if args.trace is not None:
        trace = ArrivalTrace.load(args.trace)
    else:
        trace = _build_trace(args)
        if args.save_trace is not None:
            trace.save(args.save_trace)

    service = _build_service(args)
    if args.use_async:
        result = replay_async(trace, service, load_factor=args.load)
    else:
        result = replay_serial(trace, service, load_factor=args.load)
    report = result.service
    assert report is not None and report.pool is not None

    def _ms(seconds):
        return "--" if seconds is None else f"{seconds * 1e3:.2f} ms"

    shed = ", ".join(f"{reason}: {count}" for reason, count
                     in sorted(result.rejected_by_reason.items())) or "--"
    per_tenant = ", ".join(
        f"{name}: {book.completed}/{book.submitted}"
        for name, book in sorted(result.tenants.items()))
    rows = [
        ("replay mode", result.mode),
        ("offered load / rate", f"{args.load:.2f}x / "
                                f"{trace.rate_per_s:.1f}/s"),
        ("submitted / accepted", f"{report.submitted} / "
                                 f"{report.accepted}"),
        ("completed / timed out", f"{result.completed} / "
                                  f"{result.timed_out}"),
        ("rejected (by reason)", shed),
        ("completed/submitted per tenant", per_tenant),
        ("retries", report.retried),
        ("waves / coalesced", f"{report.waves} / "
                              f"{report.coalesced_requests}"),
        ("queue high-water / bound", f"{report.queue_high_water} / "
                                     f"{args.queue_depth}"),
        ("goodput", f"{result.goodput_per_s:.1f} served/s "
                    f"(ratio {result.goodput_ratio:.3f})"),
        ("modeled latency p50 / p95 / p99",
         f"{_ms(result.modeled_latency.p50)} / "
         f"{_ms(result.modeled_latency.p95)} / "
         f"{_ms(result.modeled_latency.p99)}"),
        ("overlap efficiency",
         f"{100 * report.overlap_efficiency:.1f}%"),
    ]
    if args.use_async:
        rows.append(("backpressure waits / wall s",
                     f"{result.backpressure_waits} / "
                     f"{result.backpressure_wall_seconds:.3f}"))
        rows.append(("wall latency p50 / p95",
                     f"{_ms(result.wall_latency.p50)} / "
                     f"{_ms(result.wall_latency.p95)}"))
    routed = " / ".join(str(w.calls_routed) for w in report.pool.workers)
    hit_rate = report.pool.residency_hit_rate
    rows.append(("pool calls routed per board", routed))
    rows.append(("pool residency hit rate",
                 "--" if hit_rate is None else f"{100 * hit_rate:.1f}%"))
    print(format_table(
        ["signal", "value"], rows,
        title=f"EngineService, {len(trace)} open-loop requests "
              f"(seed {trace.seed})"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
