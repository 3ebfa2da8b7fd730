"""``python -m bench run``: every workload, then one traced run each.

Each (workload, repetition) runs in a fresh subprocess, so peak memory
and warm state belong to that run, and the workloads go round-robin
rather than all repetitions of one back to back.  The untraced runs
give the end-to-end figures (median and quartiles over repetitions);
the traced run gives the per-layer profile and must cut exactly the
same modeled books.  The merged results land in ``--out``, ready for
``python -m bench compare``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import ROOT
from .compare import print_table, quartiles
from .measure import REPORTED_UNITS, host_info, load_json

#: A run that takes longer than this has hung.
RUN_TIMEOUT_S = 180


def _measure(workload: str, seed: int, seconds: int, trace: int,
             out: str) -> Optional[Dict]:
    """One ``python -m bench measure`` subprocess; its detail record,
    or ``None`` when it failed.  The run's check log is shown only
    when it fails."""
    command = [sys.executable, "-m", "bench", "measure",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", out]
    if os.path.exists(out):
        os.remove(out)
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"{workload}: run timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    if not os.path.exists(out):
        return None
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _problems(runs: List[Optional[Dict]],
              traced: Optional[Dict]) -> List[str]:
    """Everything that makes a workload's run set unacceptable."""
    problems = [f"{runs.count(None)} untraced run(s) failed to report"
                ] if None in runs else []
    if traced is None:
        problems.append("the traced run failed to report")
    done = [d for d in runs + [traced] if d is not None]
    problems += [f"seed {d['seed']} trace={d['trace']} failed checks: "
                 f"{d['checks']}" for d in done if not d["correct"]]
    if any(d["exact"] != done[0]["exact"] for d in done):
        problems.append("modeled metrics differ between runs "
                        "(traced or untraced)")
    return problems


def main(args) -> int:
    benchmark = load_json("BENCHMARK.json")
    spec = load_json("bench/spec.json")
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    runs_dir = ROOT / "bench" / "out" / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    details: Dict[str, List[Optional[Dict]]] = {n: [] for n in names}
    for rep in range(args.repetitions):
        for name in names:
            seed = spec["workloads"][name]["seed"]
            details[name].append(_measure(
                name, seed, seconds, 0, str(runs_dir / f"{name}.{rep}.json")))
            print(f"{name} run {rep + 1}/{args.repetitions} done",
                  file=sys.stderr)
    traced = {}
    for name in names:
        seed = spec["workloads"][name]["seed"]
        traced[name] = _measure(name, seed, seconds, 1,
                                str(runs_dir / f"{name}.traced.json"))
        print(f"{name} traced run done", file=sys.stderr)

    ok = True
    results: Dict[str, object] = {
        "kind": "bench_results", "host": host_info(),
        "run_seconds": seconds, "repetitions": args.repetitions,
        "workloads": {}}
    table = []
    for name in names:
        runs = [d for d in details[name] if d is not None]
        problems = _problems(details[name], traced[name])
        for problem in problems:
            print(f"{name}: {problem}", file=sys.stderr)
        ok = ok and not problems
        if not runs:
            continue
        end_to_end = {
            m["name"]: {"unit": m["unit"],
                        "values": [d["end_to_end"][m["name"]]
                                   for d in runs]}
            for m in benchmark["end_to_end"]}
        reported = {metric: {"unit": unit,
                             "values": [d["reported"][metric]
                                        for d in runs]}
                    for metric, unit in REPORTED_UNITS.items()}
        results["workloads"][name] = {
            "seed": spec["workloads"][name]["seed"],
            "end_to_end": end_to_end,
            "reported": reported,
            "exact": runs[0]["exact"],
            "per_layer": traced[name]["per_layer"] if traced[name] else {},
            "problems": problems,
        }
        for entries, note in ((end_to_end, ""), (reported, " reported")):
            for metric, entry in entries.items():
                q1, median, q3 = quartiles(entry["values"])
                table.append([name, metric, f"{median:.4g}",
                              f"[{q1:.4g}, {q3:.4g}]{note}", entry["unit"]])
        for metric, value in runs[0]["exact"].items():
            table.append([name, metric, f"{value:.6g}", "exact", ""])

    results["elapsed_s"] = time.perf_counter() - started
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print_table(table, ["workload", "metric", "median", "[q1, q3]",
                        "unit"])
    print(f"\n{len(names)} workloads x {args.repetitions} runs + 1 traced "
          f"in {results['elapsed_s']:.0f} s; results in {out}")
    return 0 if ok else 1
