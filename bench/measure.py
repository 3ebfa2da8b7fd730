"""One benchmark run: set up, time the rounds, check, report.

The run prints, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of ``BENCHMARK.json`` for an untraced run, every
per-layer metric for a traced one.  ``--out`` also writes the full
detail (both metric sets, the exact modeled metrics, the checks).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from . import ROOT
from . import workloads
from .tracing import LAYER_SUFFIXES, LAYERS, Tracer

#: Per-layer metrics read from the program's books or derived from the
#: span hooks, beyond the five every layer gets: (name, unit, better).
EXTRA_LAYER_METRICS = (
    ("aio.backpressure_waits", "count", "lower"),
    ("aio.backpressure_wait_s", "s", "lower"),
    ("admission.rejects", "count", "lower"),
    ("queue.high_water", "count", "lower"),
    ("queue.wait_modeled_ms.p50", "ms", "lower"),
    ("queue.wait_modeled_ms.p99", "ms", "lower"),
    ("batcher.waves", "count", "lower"),
    ("batcher.wave_size_mean", "calls", "higher"),
    ("batcher.coalesced_frac", "fraction", "higher"),
    ("pool.failovers", "count", "lower"),
    ("pool.residency_hit_rate", "fraction", "higher"),
    ("pricing.calls_per_request", "calls/op", "lower"),
    ("transport.ship_s", "s", "lower"),
    ("transport.compute_s", "s", "lower"),
    ("transport.gather_s", "s", "lower"),
    ("transport.pool_calls", "calls/op", "higher"),
    ("transport.bypass_calls", "calls/op", "lower"),
    ("transport.round_trips", "trips/op", "lower"),
    ("transport.worker_cache_hit_rate", "fraction", "higher"),
    ("executor.mbytes", "MB/op", "lower"),
    ("executor.mpix_per_s", "Mpix/s", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("other.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


#: Reference-kernel runs on each side of every set-up.
SETUP_PROBES = 3

#: Figures every run reports without a bound, and their units.
REPORTED_UNITS = {"calls_per_wall_s": "calls/s", "wall_p50_ms": "ms",
                  "wall_p99_ms": "ms", "setup_wall_s": "s",
                  "reference_kernel_s": "s"}


def per_layer_declarations() -> List[Dict[str, str]]:
    """Every per-layer metric, in ``BENCHMARK.json`` order."""
    declared = [{"name": f"{layer}.{suffix}", "unit": unit,
                 "better": better}
                for layer in LAYERS
                for suffix, unit, better in LAYER_SUFFIXES]
    declared += [{"name": name, "unit": unit, "better": better}
                 for name, unit, better in EXTRA_LAYER_METRICS]
    return declared


def load_json(name: str) -> Dict:
    with open(ROOT / name, encoding="utf-8") as handle:
        return json.load(handle)


def host_info() -> Dict[str, object]:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform()}


def reference_kernel() -> float:
    """Wall seconds of a fixed mix of numpy plane arithmetic and Python
    dictionary work -- code the benchmark owns, so no change to the
    program can speed it up or slow it down.

    The host this benchmark was built on shares its machine: for
    seconds to minutes at a time it runs this kernel up to 1.8x slower,
    and the workloads slow down with it.  Run between the timed segments of every untraced round (around
    each replay, frame or batch), this kernel measures how fast the host
    is at that moment, and :func:`at_nominal_speed` rescales each
    segment to the speed the kernel has on the baseline host
    (``reference_kernel_s`` in ``bench/spec.json``).
    """
    plane = (np.arange(144 * 176) % 251).astype(np.uint8).reshape(144, 176)
    start = time.perf_counter()
    for _ in range(12):
        smooth = (plane[1:-1, 1:-1].astype(np.int16) + plane[:-2, 1:-1]
                  + plane[2:, 1:-1] + plane[1:-1, :-2]
                  + plane[1:-1, 2:]) // 5
        int(np.abs(smooth - plane[1:-1, 1:-1]).sum())
    table: Dict[int, int] = {}
    for i in range(15_000):
        key = i % 97
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def at_nominal_speed(wall: float, reference: float, nominal: float,
                     sensitivity: float) -> float:
    """``wall`` seconds, measured while the reference kernel took
    ``reference`` seconds, rescaled to the kernel's ``nominal`` time.

    ``sensitivity`` is how strongly the workload follows the kernel: a
    host slowdown that doubles the kernel's time multiplies the
    workload's by ``2 ** sensitivity``.  Front-end Python work follows
    it fully (1.0); numpy plane work and work spread over the
    scheduler's worker processes slow down less (about 0.7-0.8).  The
    figures are pinned per workload in ``bench/spec.json``; they were
    chosen as the exponents that minimise the run-to-run spread of
    ``calls_per_s_ref`` over several minutes of rounds on the baseline
    host (see ``bench/README.md``).
    """
    return wall * (nominal / reference) ** sensitivity


def _round_summary(r: workloads.Round) -> Dict[str, object]:
    return {"key": r.key, "wall_s": r.wall_s, "calls": r.completed,
            "p50_ms": r.p50_s * 1e3, "p99_ms": r.p99_s * 1e3,
            "segments": len(r.segments)}


def _layer_metrics(tracer: Tracer, run: workloads.Workload,
                   rounds: List[workloads.Round],
                   untraced: List[workloads.Round]) -> Dict[str, float]:
    """Every per-layer metric of a traced run (0 where unused)."""
    traced_wall = sum(r.wall_s for r in rounds)
    ops = sum(r.attempted for r in rounds)
    layer = {d["name"]: 0.0 for d in per_layer_declarations()}
    layer.update(tracer.layer_metrics(traced_wall, ops))
    layer.update(run.books(rounds))
    sizes = tracer.wave_sizes
    waits = tracer.queue_waits_ms
    layer["queue.wait_modeled_ms.p50"] = workloads.percentile(waits, 50.0)
    layer["queue.wait_modeled_ms.p99"] = workloads.percentile(waits, 99.0)
    if sizes:
        layer["batcher.wave_size_mean"] = sum(sizes) / len(sizes)
        layer["batcher.coalesced_frac"] = (
            sum(s for s in sizes if s > 1) / sum(sizes))
    layer["pricing.calls_per_request"] = (
        tracer.calls.get("call_cost_seconds", 0) / ops)
    layer["executor.mbytes"] = tracer.plane_bytes / 1e6 / ops
    if layer["executor.self_s"] > 0:
        layer["executor.mpix_per_s"] = (
            tracer.pixels / 1e6 / layer["executor.self_s"])
    layer["trace.overhead_frac"] = statistics.median(
        t.wall_s / u.wall_s for t, u in zip(rounds, untraced)) - 1.0
    return layer


def measure(workload: str, seed: int, seconds: float, trace: bool,
            params: Optional[Dict] = None,
            spans_path: Optional[str] = None) -> Dict[str, object]:
    """Run one workload; returns the detail record (see module doc).

    Whatever happens, the workload is closed and every process it
    started has exited before this returns.
    """
    spec = load_json("bench/spec.json")
    params = params or spec["workloads"][workload]
    run = workloads.make(params, seed)
    try:
        return _measure(run, spec, params, workload, seed, seconds, trace,
                        spans_path)
    finally:
        run.close()
        workloads.stop_child_processes()


def _measure(run: workloads.Workload, spec: Dict, params: Dict,
             workload: str, seed: int, seconds: float, trace: bool,
             spans_path: Optional[str]) -> Dict[str, object]:
    # Each set-up is bracketed by reference-kernel runs (a few, since a
    # set-up is short and one kernel run is a noisy sample).
    setup_walls, setup_references = [], []
    for _ in range(3):  # the kernel's first calls pay one-off costs
        reference_kernel()
    for _ in range(spec["setup_repeats"]):
        before = [reference_kernel() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        run.setup()
        setup_walls.append(time.perf_counter() - start)
        after = [reference_kernel() for _ in range(SETUP_PROBES)]
        setup_references.append(statistics.median(before + after))

    run.prepare()

    # A traced run pairs every traced round with an untraced replay of
    # the same input: per-layer figures come from the traced rounds,
    # the tracing overhead from the pairs.  Untraced rounds run the
    # reference kernel between their timed segments.
    tracer = Tracer() if trace else None
    rounds: List[workloads.Round] = []
    untraced: List[workloads.Round] = []
    start = time.perf_counter()
    while (not rounds or time.perf_counter() - start < seconds
           or not run.complete(rounds)):
        index = len(rounds)
        if tracer is None:
            rounds.append(run.round(index, reference_kernel))
            continue
        tracer.install()
        try:
            rounds.append(run.round(index))
        finally:
            tracer.uninstall()
        untraced.append(run.round(index, reference_kernel))

    # Modeled books repeat exactly for every round of the same input,
    # traced or not: tracing may cost time, never change results.
    checks: Dict[str, object] = {}
    first: Dict[str, Dict] = {}
    nondeterministic = 0
    for r in rounds + untraced:
        if first.setdefault(r.key, r.modeled) != r.modeled:
            nondeterministic += r.attempted
    checks["nondeterministic_calls"] = nondeterministic
    if tracer is not None:
        checks["misnested_spans"] = tracer.misnested
    checked, wrong = run.verify()
    checks["verify_calls"] = checked
    checks["verify_wrong"] = wrong
    leaked = run.close()
    checks["leaked_segments"] = leaked

    everything = rounds + untraced
    attempted = sum(r.attempted for r in everything)
    failed = (sum(r.failed for r in everything) + nondeterministic + wrong
              + len(leaked) + checks.get("misnested_spans", 0))
    # End-to-end figures never include a traced round.  Each timed
    # segment and each set-up is rescaled by how fast the reference
    # kernel ran around it; the raw wall figures are reported too.
    measured = untraced or rounds
    segments = [segment for r in measured for segment in r.segments]
    nominal = spec["reference_kernel_s"]
    sensitivity = params["host_sensitivity"]
    e2e = {
        "calls_per_s_ref": sum(r.completed for r in measured) / sum(
            at_nominal_speed(wall, reference, nominal, sensitivity)
            for wall, reference in segments),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(
            at_nominal_speed(wall, reference, nominal, sensitivity)
            for wall, reference in zip(setup_walls, setup_references)),
    }
    # Reported, not bounded: the raw rate moves with the host's speed,
    # and on the serving workloads the latencies follow each trace's
    # modeled queueing, so they move with the seed.
    reported = {
        "calls_per_wall_s": (sum(r.completed for r in measured)
                             / sum(r.wall_s for r in measured)),
        "wall_p50_ms": statistics.median(r.p50_s for r in measured) * 1e3,
        "wall_p99_ms": statistics.median(r.p99_s for r in measured) * 1e3,
        "setup_wall_s": statistics.median(setup_walls),
        "reference_kernel_s": statistics.median(
            reference for _, reference in segments),
    }
    exact = run.exact(rounds)
    exact["error_frac"] = failed / (attempted + checked)

    layer: Dict[str, float] = {}
    if tracer is not None:
        layer = _layer_metrics(tracer, run, rounds, untraced)
        tracer.dump(spans_path or str(ROOT / "bench" / "out"
                                      / f"{workload}.spans.jsonl"))

    for table in (e2e, reported, exact, layer):
        for name, value in table.items():
            if value is None or not math.isfinite(value):
                failed += 1
                table[name] = 0.0
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "host": host_info(),
        "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "rounds": [_round_summary(r) for r in rounds],
        "untraced_rounds": [_round_summary(r) for r in untraced],
        "setup_walls": setup_walls,
        "end_to_end": e2e, "reported": reported, "exact": exact,
        "per_layer": layer, "checks": checks,
    }


def driver_line(detail: Dict[str, object]) -> Dict[str, object]:
    """The one-line result: end-to-end metrics untraced, per-layer
    metrics traced, each with its declared unit."""
    benchmark = load_json("BENCHMARK.json")
    if detail["trace"]:
        declared, values = benchmark["per_layer"], detail["per_layer"]
    else:
        declared, values = benchmark["end_to_end"], detail["end_to_end"]
    return {
        "correct": detail["correct"],
        "attempted": max(int(detail["attempted"]), 1),
        "failed": int(detail["failed"]),
        "metrics": {d["name"]: {"value": values[d["name"]],
                                "unit": d["unit"]} for d in declared},
    }


def main(args) -> int:
    spec = load_json("bench/spec.json")
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(spec['workloads'])}", file=sys.stderr)
        return 2
    detail = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(detail, handle, indent=1)
            handle.write("\n")
    for name, check in detail["checks"].items():
        print(f"check {name}: {check}", file=sys.stderr)
    print(json.dumps(driver_line(detail)))
    return 0 if detail["correct"] else 1
