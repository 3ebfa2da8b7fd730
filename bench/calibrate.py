"""Re-derive the pinned serving rates, for re-baselining only.

    python -m bench.calibrate

The benchmark never runs this: its rates are constants in
``bench/spec.json``, so a change to the model cannot quietly change the
offered load.  When the model changes on purpose, run this, paste the
printed figures into the spec, and record a new baseline.

Capacity uses the BENCH_async burst method: the workload's tenant mix,
deadlines dropped, offered effectively at once (1e6 requests per
modeled second) to a policy-free service on the workload's pool; the
completions per modeled second are the capacity.  The mean call cost
prices the first 512 requests of a trace with admission's closed form.
"""

from __future__ import annotations

import json
import math
import sys

from repro.api import EnginePool, EngineService, ServicePolicy
from repro.load import ArrivalTrace, CallFactory, TenantSpec, replay_async

from .measure import load_json
from .workloads import ServeWorkload

#: Requests in the burst and in the pricing sample.
BURST_REQUESTS = 2048
PRICED_REQUESTS = 512


def capacity_per_s(workload: ServeWorkload) -> float:
    params = workload.params
    tenants = tuple(TenantSpec(t.name, weight=t.weight,
                               priority=t.priority,
                               burst_factor=t.burst_factor)
                    for t in workload.tenants)
    trace = ArrivalTrace.synthesize(workload.trace_spec(
        BURST_REQUESTS, 1e6, workload.seed, tenants))
    service = EngineService(
        pool=EnginePool.of_engines(params["boards"]),
        policy=ServicePolicy(queue_depth=params["queue_depth"],
                             max_batch=params["max_batch"]))
    report = replay_async(trace, service)
    if report.completed != len(trace):
        raise RuntimeError("the burst must complete every request")
    return report.goodput_per_s


def mean_call_cost_s(workload: ServeWorkload) -> float:
    trace = ArrivalTrace.synthesize(workload.trace_spec(
        BURST_REQUESTS, 1.0, workload.seed))
    factory = CallFactory(trace)
    probe = EngineService()
    sample = trace.entries[:PRICED_REQUESTS]
    return sum(probe.admission.price(factory.call(entry))[1]
               for entry in sample) / len(sample)


def main() -> int:
    spec = load_json("bench/spec.json")
    figures = {}
    for name, params in spec["workloads"].items():
        if params["kind"] != "serve":
            continue
        workload = ServeWorkload(params, params["seed"])
        figures[name] = {"capacity_per_s": capacity_per_s(workload),
                         "mean_call_cost_s": mean_call_cost_s(workload)}
        same = all(math.isclose(params[key], value, rel_tol=1e-9)
                   for key, value in figures[name].items())
        state = "matches the spec" if same else "CHANGED"
        print(f"{name}: {state}", file=sys.stderr)
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
