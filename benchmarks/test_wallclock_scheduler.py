"""Experiment SCHED -- wall-clock sharding of a multi-call GME slice.

A slice of the Table 3 GME workload expressed as one batch of
independent AddressLib calls (per-frame Sobel/box/homogeneity intra
work plus inter SAD reduces between consecutive frames) runs twice:
serially, and sharded across a :class:`CallScheduler` worker pool with
zero-copy shared-memory transport.

What must hold:

* the scheduled results are *bit-exact* with serial execution;
* the modelled dispatch makespan across >= 4 virtual engine workers
  under the block_A/block_B overlap model is at least 2x better than
  the serial (sum) model -- this is machine-independent and always
  asserted;
* the real wall clock never *regresses*: on any host the scheduled run
  stays within 10% of serial (``>= 0.9x``), and on hosts with >= 4
  CPUs the shared-memory transport must deliver ``>= 1.5x``.  The
  scheduler runs at most one worker process per CPU, and a one-CPU
  host keeps every call in the parent.  On a 2-vCPU host the floor
  still fails: the timed batch pays the cold state of the workers' 31
  result slabs (segment creation and first touch) and their first
  attaches, which nothing warms or prices yet.  Ten runs on a 2-vCPU
  host read 0.37-0.56x (23-35 ms scheduled, 11-15 ms serial; ship
  7-13 ms, about 1,770 minor faults in the parent), against
  0.40-0.51x (26-40 ms scheduled, 11-18 ms serial; ship 8-14 ms,
  about 2,780 faults) when the parent computed its own run into slabs
  too, 48 of them created per timed batch.

Results land in ``BENCH_wallclock.json`` at the repo root, including a
``wall.regression`` flag, the per-phase ship/compute/gather split CI
uses to triage a slow run, ``phases.dispatch_seconds`` (from sending
each worker's run to the worker starting it) and ``phases.gc_seconds``:
the generation and seconds of each garbage collection inside the timed
scheduled run.
"""

import gc
import json
import os
import pathlib
import time

from repro.addresslib import (AddressLib, BatchCall, INTER_ABSDIFF,
                              INTRA_BOX3, INTRA_HOMOGENEITY,
                              INTRA_SOBEL_X, INTRA_SOBEL_Y,
                              SoftwareBackend)
from repro.gme import SINGAPORE, SyntheticSequence
from repro.host import CallScheduler
from repro.perf import format_seconds, format_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

FRAMES = 12
WORKERS = 4

#: The scheduled run must never fall below this fraction of serial
#: wall time on *any* host.
FLOOR_SPEEDUP = 0.9
#: With >= 4 real CPUs the zero-copy transport must win outright.
TARGET_SPEEDUP = 1.5
TARGET_CPUS = 4


def _gme_slice_calls():
    """One batch of independent calls over a CIF sequence slice."""
    sequence = SyntheticSequence(SINGAPORE, frames_override=FRAMES)
    frames = [sequence.frame(i) for i in range(FRAMES)]
    calls = []
    for frame in frames:
        calls.append(BatchCall.intra(INTRA_BOX3, frame))
        calls.append(BatchCall.intra(INTRA_SOBEL_X, frame))
        calls.append(BatchCall.intra(INTRA_SOBEL_Y, frame))
        calls.append(BatchCall.intra(INTRA_HOMOGENEITY, frame))
    for previous, current in zip(frames, frames[1:]):
        calls.append(BatchCall.inter_reduce(INTER_ABSDIFF, previous,
                                            current))
    return calls


def _run(calls, scheduler=None):
    lib = AddressLib(SoftwareBackend())
    t0 = time.perf_counter()
    results = lib.run_batch(calls, scheduler=scheduler)
    return results, time.perf_counter() - t0


class _Collections:
    """A ``gc.callbacks`` entry: the generation and wall seconds of
    every garbage collection that runs while it is installed."""

    def __init__(self):
        self.collections = []
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.collections.append(
                {"generation": info["generation"],
                 "seconds": time.perf_counter() - self._start})
            self._start = None


def test_scheduler_wallclock(save_report):
    calls = _gme_slice_calls()

    serial_results, serial_seconds = _run(calls)

    with CallScheduler(max_workers=WORKERS) as scheduler:
        # Warm the worker pool outside the timed region (process
        # start-up is a one-off cost a long-running host amortises);
        # this also pre-registers the frames in the plane store, the
        # steady state of a host that re-batches over a sequence.
        _run(calls[:WORKERS], scheduler=scheduler)
        collections = _Collections()
        gc.callbacks.append(collections)
        try:
            scheduled_results, scheduled_seconds = _run(
                calls, scheduler=scheduler)
        finally:
            gc.callbacks.remove(collections)
        report = scheduler.last_report
        transport = scheduler.transport_stats()

    # Bit-exactness: the sharded batch is indistinguishable from serial.
    assert len(scheduled_results) == len(serial_results)
    for got, want in zip(scheduled_results, serial_results):
        if isinstance(want, int):
            assert got == want
        else:
            assert got.equals(want)

    # The modelled dispatch makespan across >= 4 engine workers:
    # machine-independent, always asserted.
    assert report is not None
    assert report.workers >= 4
    modeled_speedup = report.modeled_speedup
    assert modeled_speedup >= 2.0, (
        f"modelled {report.workers}-worker makespan speedup "
        f"{modeled_speedup:.2f}x below 2x")

    cpus = os.cpu_count() or 1
    wall_speedup = serial_seconds / scheduled_seconds
    regression = wall_speedup < FLOOR_SPEEDUP
    target_asserted = cpus >= TARGET_CPUS

    payload = {
        "cpus": cpus,
        "workers": WORKERS,
        "calls": len(calls),
        "frames": FRAMES,
        "pool_calls": report.pool_calls,
        "inline_calls": report.inline_calls,
        "bypass_calls": report.bypass_calls,
        "wall": {
            "serial_seconds": serial_seconds,
            "scheduled_seconds": scheduled_seconds,
            "speedup": wall_speedup,
            "regression": regression,
            "floor": FLOOR_SPEEDUP,
            "target": TARGET_SPEEDUP,
            "target_asserted": target_asserted,
        },
        "phases": {
            "ship_seconds": report.ship_seconds,
            # Send to worker start, summed over the worker runs.
            "dispatch_seconds": report.dispatch_seconds,
            "compute_seconds": report.compute_seconds,
            "gather_seconds": report.gather_seconds,
            # The collections inside the timed scheduled run, each
            # with its generation and seconds.
            "gc_seconds": collections.collections,
        },
        "transport": transport,
        "modeled": {
            "serial_seconds": report.modeled_serial_seconds,
            "pipelined_seconds": report.modeled_pipelined_seconds,
            "speedup": modeled_speedup,
        },
        "bit_exact": True,
    }
    (REPO_ROOT / "BENCH_wallclock.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    save_report("wallclock_scheduler", format_table(
        ["execution", "wall", "modelled board time"],
        [("serial", format_seconds(serial_seconds),
          format_seconds(report.modeled_serial_seconds)),
         (f"scheduled x{WORKERS}", format_seconds(scheduled_seconds),
          format_seconds(report.modeled_pipelined_seconds))],
        title=(f"GME slice, {len(calls)} independent calls -- wall "
               f"{wall_speedup:.2f}x ({cpus} CPUs, "
               f"{'target' if target_asserted else 'floor'} gate), "
               f"modelled {modeled_speedup:.2f}x across "
               f"{report.workers} engine workers; phases "
               f"ship {format_seconds(report.ship_seconds)} / "
               f"dispatch {format_seconds(report.dispatch_seconds)} / "
               f"compute {format_seconds(report.compute_seconds)} / "
               f"gather {format_seconds(report.gather_seconds)}")))

    # Wall-clock gates: the floor on every host, the 1.5x target
    # wherever there are CPUs to shard onto.
    assert not regression, (
        f"wall-clock regression: {wall_speedup:.2f}x below "
        f"{FLOOR_SPEEDUP}x floor on {cpus} CPUs "
        f"(phases: ship {report.ship_seconds:.3f}s, "
        f"dispatch {report.dispatch_seconds:.3f}s, "
        f"compute {report.compute_seconds:.3f}s, "
        f"gather {report.gather_seconds:.3f}s)")
    if target_asserted:
        assert wall_speedup >= TARGET_SPEEDUP, (
            f"wall-clock speedup {wall_speedup:.2f}x below "
            f"{TARGET_SPEEDUP}x target on {cpus} CPUs "
            f"(phases: ship {report.ship_seconds:.3f}s, "
            f"dispatch {report.dispatch_seconds:.3f}s, "
            f"compute {report.compute_seconds:.3f}s, "
            f"gather {report.gather_seconds:.3f}s)")
