"""One-shot reproduction summary: ``python -m repro.summary``.

Regenerates the headline numbers of every experiment (Tables 1-3, the
factor-30 profile, the section 4.1 claims) against the paper's values,
without going through pytest, plus an engine/cache/service health
section (residency-cache counters, modeled overlap efficiency, serving
counters).  Table 3 runs the sequences at a small scale by default;
pass ``--table3-scale 1.0`` for full length.
"""

from __future__ import annotations

import argparse
from typing import List

from .core import v1_utilization_report
from .gme import PAPER_TABLE3, TABLE3_SEQUENCES, evaluate_sequence_dual
from .image import CIF, QCIF, blob_frame
from .perf import (EngineTimingModel, PAPER_TABLE2, format_seconds,
                   format_table, table2_rows)
from .segmentation import profile_segmentation_workload


def table1_section() -> str:
    report = v1_utilization_report()
    return (format_table(
        ["resource", "used", "available", "util"],
        [(name, used, avail, f"{int(pct)}%")
         for name, used, avail, pct in report.rows()],
        title="Table 1 -- device utilisation (matches the paper exactly)")
        + f"\nminimum period {report.timing.min_period_ns:.3f} ns "
          f"({report.timing.max_frequency_mhz:.3f} MHz)")


def table2_section() -> str:
    rows = []
    for row, paper in zip(table2_rows(CIF), PAPER_TABLE2):
        rows.append((row.label, row.channels_in, row.sw_accesses,
                     row.hw_accesses, f"{row.paper_saving_percent:.0f}%",
                     "exact" if (row.sw_accesses, row.hw_accesses)
                     == (paper[3], paper[4]) else "DIFFERS"))
    return format_table(
        ["addressing", "channels", "software", "hardware", "saving",
         "vs paper"],
        rows, title="Table 2 -- memory accesses per CIF call")


def table3_section(scale: float) -> str:
    lines: List[tuple] = []
    speedups = []
    for spec, paper in zip(TABLE3_SEQUENCES, PAPER_TABLE3):
        row = evaluate_sequence_dual(spec, scale=scale).extrapolated()
        speedups.append(row.speedup)
        lines.append((row.name,
                      format_seconds(row.pm_seconds),
                      format_seconds(paper[1]),
                      format_seconds(row.fpga_seconds),
                      format_seconds(paper[2]),
                      f"{row.intra_calls}/{paper[3]}",
                      f"{row.inter_calls}/{paper[4]}",
                      f"{row.speedup:.2f}"))
    mean = sum(speedups) / len(speedups)
    return (format_table(
        ["video", "PM", "paper", "FPGA", "paper", "intra m/p",
         "inter m/p", "speedup"],
        lines, title=f"Table 3 -- GME wall times (scale {scale}, "
                     f"extrapolated)")
        + f"\naverage speedup {mean:.2f} "
          f"(paper: 'an average factor of 5')")


def claims_section() -> str:
    frame = blob_frame(QCIF, [(40, 40), (120, 70), (60, 110)], radius=20)
    workload = profile_segmentation_workload(frame)
    timing = EngineTimingModel()
    from .addresslib import INTER_ABSDIFF
    from .core import inter_config
    special = inter_config(INTER_ABSDIFF, CIF, reduce_to_scalar=True,
                           requires_full_frames=True)
    return format_table(
        ["claim", "paper", "measured"],
        [("max acceleration (profiling)", "~30",
          f"{workload.amdahl_bound:.1f}"),
         ("offloadable fraction", "~0.967",
          f"{workload.offloadable_fraction:.4f}"),
         ("per-bank ZBT rate", "264 MB/s",
          f"{timing.zbt_bank_bytes_per_second() / 1e6:.0f} MB/s"),
         ("special-inter non-PCI share", "12.5%",
          f"{100 * timing.non_pci_fraction(special):.2f}%")],
        title="Section 1 / 4.1 claims")


def _ms(seconds) -> str:
    """Milliseconds, or ``--`` for an undefined (empty-book) figure."""
    return "--" if seconds is None else f"{seconds * 1e3:.2f} ms"


def health_section() -> str:
    """Engine + cache + service health in one table.

    One chained workload exercises the :class:`FrameResidencyCache`
    (hits, on-board result reuse, misses, evictions); a burst of
    service requests through :class:`~repro.api.EngineService`
    exercises admission, micro-batching and the latency books.  All
    figures are modeled (deterministic), like the rest of the summary.
    """
    from .addresslib import (BatchCall, AddressLib, INTER_ABSDIFF,
                             INTRA_BOX3, INTRA_GRAD)
    from .api import (AdmissionPolicy, EnginePool, EngineService,
                      ServicePolicy)
    from .host import EngineBackend

    frame = blob_frame(QCIF, [(30, 30), (100, 80)], radius=16)
    backend = EngineBackend(chain_frames=True)
    lib = AddressLib(backend)
    edges = lib.intra(INTRA_GRAD, frame)          # both inputs ship
    smooth = lib.intra(INTRA_BOX3, edges)         # result reused on-board
    lib.inter(INTER_ABSDIFF, edges, smooth)       # layout change: reships
    backend.residency.release(smooth)              # host reclaimed: evict
    cache = backend.residency

    service = EngineService(
        pool=EnginePool.of_engines(4),
        policy=ServicePolicy(
            max_batch=4,
            admission=AdmissionPolicy(deadline_budget_seconds=0.02)))
    for _ in range(12):
        service.submit(BatchCall.intra(INTRA_GRAD, frame))
    report = service.drain()
    pool = report.pool

    return format_table(
        ["signal", "value"],
        [("residency hits / result reuses", f"{cache.hits} / "
                                            f"{cache.result_reuses}"),
         ("residency misses / evictions", f"{cache.misses} / "
                                          f"{cache.evictions}"),
         ("service accepted / rejected",
          f"{report.accepted} / {report.rejected}"),
         ("service completed / timed out",
          f"{report.completed} / {report.timed_out}"),
         ("queue high-water / depth bound",
          f"{report.queue_high_water} / {service.queue.max_depth}"),
         ("dispatch waves / coalesced requests",
          f"{report.waves} / {report.coalesced_requests}"),
         ("overlap efficiency (4 boards)",
          f"{100 * report.overlap_efficiency:.1f}%"),
         ("modeled latency p50 / p95",
          f"{_ms(report.latency.p50)} / {_ms(report.latency.p95)}"),
         ("driver calls submitted / shed",
          f"{sum(w.calls_submitted for w in pool.workers)} / "
          f"{pool.calls_shed}")],
        title="Engine / cache / service health (modeled)")


def sanitizer_section() -> str:
    """Transport-sanitizer findings: seeded bugs vs a clean run.

    Each row seeds one real transport/residency/pool bug into the live
    shared-memory primitives and reports whether the runtime sanitizer
    caught it; the final row runs a small sanitized scheduler batch
    that must come back clean.  Mirrors
    ``repro-check --sanitize-selftest``.
    """
    from .addresslib import BatchCall, INTRA_GRAD
    from .analysis.sanitize import (SANITIZE_SELFTESTS, install_sanitizer,
                                    uninstall_sanitizer)
    from .host.scheduler import CallScheduler
    from .image import noise_frame

    rows: List[tuple] = []
    for description, (scenario, rule_id) in SANITIZE_SELFTESTS.items():
        findings = scenario()
        if findings is None:
            rows.append((rule_id, description, "skipped (no SHM)"))
            continue
        caught = any(d.rule_id == rule_id for d in findings)
        rows.append((rule_id, description,
                     "caught" if caught else "MISSED"))

    calls = [BatchCall.intra(INTRA_GRAD, noise_frame(QCIF, seed=i))
             for i in range(6)]
    install_sanitizer()
    try:
        with CallScheduler(max_workers=2) as scheduler:
            scheduler.compute_batch(calls)
    finally:
        uninstall_sanitizer()
    clean = not scheduler.sanitizer_findings
    rows.append(("--", "sanitized clean batch (6 calls, 2 engines)",
                 "clean" if clean else
                 f"{len(scheduler.sanitizer_findings)} finding(s)"))
    return format_table(
        ["rule", "seeded bug", "sanitizer"], rows,
        title="Transport sanitizer (seeded bugs + clean run)")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation numbers.")
    parser.add_argument("--table3-scale", type=float, default=0.04,
                        help="fraction of each Table 3 sequence to run "
                             "(default 0.04; 1.0 = full length)")
    parser.add_argument("--skip-table3", action="store_true",
                        help="skip the (slower) GME evaluation")
    args = parser.parse_args(argv)

    print("Reproduction summary -- Stechele et al., DATE 2005")
    print("=" * 60)
    print()
    print(table1_section())
    print()
    print(table2_section())
    print()
    if not args.skip_table3:
        print(table3_section(args.table3_scale))
        print()
    print(claims_section())
    print()
    print(health_section())
    print()
    print(sanitizer_section())


if __name__ == "__main__":
    main()
