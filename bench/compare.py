"""``python -m bench compare A.json [B.json]``: verdicts from the bounds.

With two results files (``python -m bench run`` writes them), every
workload x end-to-end metric gets one row: each side's median and
quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse`` / ``better`` -- B's median moved past the bound;
* ``same`` -- within the bound;
* ``unresolved`` -- a side's quartile spread is wider than the bound,
  so the runs cannot tell (unless every B run beats every A run).

Exact (modeled) metrics must be identical: ``same`` or ``changed``.
With one file, each metric's own spread is checked against its bound.
The exit status is 1 when any row is worse, unresolved or changed.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence, Tuple

from . import ROOT

BAD = ("worse", "unresolved", "changed")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4,
    method="inclusive")``: with the default three runs the exclusive
    method would put the quartiles on the extremes, so one disturbed
    run would make every metric unresolved."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """How B's runs compare with A's for one metric."""
    if spread(a) > bound or spread(b) > bound:
        if better == "higher":
            wins = min(b) > max(a)
        else:
            wins = max(b) < min(a)
        return "better" if wins else "unresolved"
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    change = (median_b - median_a) / abs(median_a)
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def rows(a: Dict, b: Dict, bounds: Dict[str, Dict]) -> List[List[str]]:
    """One row per workload x metric present in both results."""
    table = []
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name)
        if side_b is None:
            continue
        for metric, entry in side_a["end_to_end"].items():
            declared = bounds[metric]
            va, vb = entry["values"], side_b["end_to_end"][metric]["values"]
            table.append([name, metric, _fmt(va), _fmt(vb),
                          verdict(va, vb, declared["better"],
                                  declared["bound"]), entry["unit"]])
        for metric, value in side_a["exact"].items():
            other = side_b["exact"].get(metric)
            table.append([name, metric, f"{value:.6g}",
                          "-" if other is None else f"{other:.6g}",
                          "same" if value == other else "changed",
                          "exact"])
    return table


def single_rows(a: Dict, bounds: Dict[str, Dict]) -> List[List[str]]:
    """Spread check of one results file against the bounds."""
    table = []
    for name, side in a["workloads"].items():
        for metric, entry in side["end_to_end"].items():
            bound = bounds[metric]["bound"]
            own = spread(entry["values"])
            table.append([name, metric, _fmt(entry["values"]),
                          f"spread {own:.3f} / bound {bound:.2f}",
                          "unresolved" if own > bound else "ok",
                          entry["unit"]])
        for metric, value in side["exact"].items():
            table.append([name, metric, f"{value:.6g}", "", "exact",
                          "exact"])
    return table


def print_table(table: List[List[str]], header: List[str]) -> None:
    widths = [max(len(str(row[i])) for row in table + [header])
              for i in range(len(header))]
    for row in [header] + table:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def main(paths: Sequence[str]) -> int:
    if len(paths) not in (1, 2):
        print("compare takes one or two results files")
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bounds = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    loaded = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    if len(loaded) == 1:
        table = single_rows(loaded[0], bounds)
        print_table(table, ["workload", "metric", "median [q1, q3]",
                            "spread", "verdict", "unit"])
    else:
        table = rows(loaded[0], loaded[1], bounds)
        print_table(table, ["workload", "metric", "A median [q1, q3]",
                            "B median [q1, q3]", "verdict", "unit"])
    return 1 if any(row[4] in BAD for row in table) else 0
