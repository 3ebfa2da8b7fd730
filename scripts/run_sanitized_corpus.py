"""Run the 208-case equivalence corpus under the transport sanitizer.

The same 0xFA57 corpus recipe the scheduler/pool/service equivalence
suites share, in two sanitized passes:

* through a :class:`~repro.host.CallScheduler` on one engine
  configuration, each shard twice -- once with every call placed on a
  worker process, once with every call kept in the parent's own run --
  so that every case ships to a worker (returning through a result
  slab) in one of the two runs and runs in the parent in the other;
* through an :class:`~repro.api.EngineService` over a two-board
  :class:`~repro.api.EnginePool`, each call submitted several times in
  a row so that same-configuration requests coalesce into waves and
  run as batched passes.

Two gates per pass, both required:

* every result stays bit-exact against the serial
  :class:`~repro.addresslib.VectorExecutor` reference (the sanitizer
  must observe, never perturb) -- when it comes back, and again once
  its shard has resolved (in the scheduler pass, both runs, the
  second re-registering the unchanged inputs) and every input frame
  of the shard has been written through
  :meth:`~repro.image.Frame.plane` (a write-after-call step: a result
  sharing a plane with its input, copy on write, must not see the
  write).  Each reference is kept as a deep copy, since the serial
  reference shares its input's untouched planes too;
* the sanitizer emits zero error-severity diagnostics (the healthy
  stack is clean under instrumentation).

Where shared memory is available and the host has at least two CPUs
(so the scheduler runs the parent and at least one worker process),
the scheduler pass must also have shipped every case to a worker in
its first run and kept it in the parent in the second (``pool_calls``
and ``bypass_calls`` each equal to the cases; every pool call crosses
shared memory): a case that never shipped is one the sanitizer did
not watch cross the live transport.  The placement is pinned here, not
left to the scheduler's balanced cut, so the gate holds whatever the
cut does.

Writes a JSON report (``--out``) with per-shard accounting, the
scheduler pass's pool/parent call counts, the pool pass's wave
count and mean wave size (a pass that never coalesced shows), the
results re-checked after the write-after-call step, and every finding,
for CI artifact upload.  Exit status is non-zero on any
mismatch, error-severity finding, or unwatched transport.

    PYTHONPATH=src python scripts/run_sanitized_corpus.py \
        --out sanitized_corpus.json
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.addresslib import (AddressLib, BatchCall, INTER_OPS, INTRA_OPS,
                              SoftwareBackend, VectorExecutor)
from repro.analysis.sanitize import install_sanitizer, uninstall_sanitizer
from repro.api import EnginePool, EngineService, ServicePolicy
from repro.host import SHARED_MEMORY_AVAILABLE, CallScheduler
from repro.image import Frame, ImageFormat, noise_frame
from repro.image.pixel import ALL_CHANNELS

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

SHARDS = 8
CASES_PER_SHARD = 26
SEED = 0xFA57
#: Back-to-back submissions of each corpus call in the pool pass.
POOL_REPEATS = 3
POOL_BOARDS = 2


def _random_batch_call(rng: random.Random) -> BatchCall:
    """One corpus case as a batch call (the 0xFA57 recipe's geometry)."""
    width = rng.randrange(4, 25)
    height = rng.choice([8, 16, 24, 32, 33, 40, 48])
    fmt = ImageFormat(f"P{width}x{height}", width, height)
    frame_a = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.5:
        return BatchCall.intra(rng.choice(_INTRA), frame_a)
    frame_b = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.3:
        return BatchCall.inter_reduce(rng.choice(_INTER), frame_a,
                                      frame_b)
    return BatchCall.inter(rng.choice(_INTER), frame_a, frame_b)


def _serial_reference(call: BatchCall) -> Union[Frame, int]:
    """The serial result of ``call``, kept as a deep copy: the serial
    path shares its input's untouched planes, and a golden sharing them
    would follow a corrupted input."""
    if call.reduce_to_scalar:
        return VectorExecutor.inter_reduce(call.op, call.frames[0],
                                           call.frames[1], call.channels)
    if len(call.frames) == 2:
        return VectorExecutor.inter(call.op, call.frames[0],
                                    call.frames[1], call.channels).copy()
    return VectorExecutor.intra(call.op, call.frames[0],
                                call.channels).copy()


def _same(got: Union[Frame, int], want: Union[Frame, int]) -> bool:
    if isinstance(want, int):
        return bool(got == want)
    return bool(got.equals(want))  # type: ignore[union-attr]


def _mismatches(results: Sequence[Union[Frame, int]],
                goldens: Sequence[Union[Frame, int]]) -> int:
    return sum(0 if _same(got, want) else 1
               for got, want in zip(results, goldens))


def _write_inputs(calls: Sequence[BatchCall]) -> None:
    """The write-after-call step: invert every plane of every input
    frame of ``calls`` through ``plane()``.  A result sharing a plane
    with an input must not see the write, so each result is compared
    with its golden again afterwards."""
    inputs = {id(frame): frame for call in calls for frame in call.frames}
    for frame in inputs.values():
        for channel in ALL_CHANNELS:
            plane = frame.plane(channel)
            np.invert(plane, out=plane)


def _finding_dict(diag: Any, shard: int, stage: str) -> Dict[str, Any]:
    return {"pass": stage, "shard": shard, "rule_id": diag.rule_id,
            "severity": diag.severity.name, "message": diag.message}


def _shard_calls(shard: int) -> List[BatchCall]:
    rng = random.Random(SEED + shard)
    return [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]


def _placing_all_on(scheduler: CallScheduler, engine: str
                    ) -> Callable[..., List[List[int]]]:
    """A cut for ``scheduler`` that places every shippable call of a
    wave on one engine: the first worker process (``"worker"``) or the
    parent's own run (``"parent"``)."""
    def runs(calls: Sequence[BatchCall], indices: Sequence[int],
             overlapped: Sequence[float]) -> List[List[int]]:
        placed: List[List[int]] = [[] for _ in range(scheduler._engines)]
        placed[0 if engine == "worker" else -1] = list(indices)
        return placed
    return runs


def _scheduler_pass(workers: int, findings: List[Dict[str, Any]]
                    ) -> Dict[str, Any]:
    """The corpus through a sanitizer-armed scheduler, each shard run
    on a worker and then in the parent."""
    shards: List[Dict[str, Any]] = []
    install_sanitizer()
    try:
        with CallScheduler(max_workers=workers) as scheduler:
            for shard in range(SHARDS):
                calls = _shard_calls(shard)
                before = len(scheduler.sanitizer_findings)
                placed, runs = {}, []
                # Both runs see the same inputs, so the second
                # re-registers every frame unchanged.
                for engine in ("worker", "parent"):
                    scheduler._engine_runs = _placing_all_on(
                        scheduler, engine)
                    lib = AddressLib(SoftwareBackend())
                    runs.append(lib.run_batch(calls, scheduler=scheduler))
                    del scheduler._engine_runs
                    report = scheduler.last_report
                    assert report is not None
                    placed[engine] = (report.pool_calls
                                      if engine == "worker"
                                      else report.bypass_calls)
                goldens = [_serial_reference(call) for call in calls]
                shard_mismatches = sum(_mismatches(results, goldens)
                                       for results in runs)
                _write_inputs(calls)
                shard_mismatches += sum(_mismatches(results, goldens)
                                        for results in runs)
                shard_rechecked = sum(len(results) for results in runs)
                # Every case shipped in the first run and ran in the
                # parent in the second.
                split = placed["worker"] == placed["parent"] == len(calls)
                new = scheduler.sanitizer_findings[before:]
                findings.extend(_finding_dict(d, shard, "scheduler")
                                for d in new)
                shards.append({"shard": shard, "cases": len(calls),
                               "mismatches": shard_mismatches,
                               "rechecked": shard_rechecked,
                               "shipped": placed["worker"],
                               "in_parent": placed["parent"],
                               "split": split,
                               "findings": len(new)})
                print(f"scheduler shard {shard}: {len(calls)} cases "
                      f"x2, shipped {placed['worker']}, parent ran "
                      f"{placed['parent']}, {shard_mismatches} "
                      f"mismatch(es), {len(new)} finding(s)")
            total = scheduler.total
    finally:
        uninstall_sanitizer()
    return {"workers": workers,
            "mismatches": sum(s["mismatches"] for s in shards),
            "rechecked": sum(s["rechecked"] for s in shards),
            "pool_calls": total.pool_calls,
            "bypass_calls": total.bypass_calls,
            "inline_calls": total.inline_calls,
            "split": all(s["split"] for s in shards),
            "per_shard": shards}


def _pool_pass(findings: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The corpus through a sanitized service over a two-board pool,
    each call submitted ``POOL_REPEATS`` times in a row so that waves
    coalesce."""
    shards: List[Dict[str, Any]] = []
    waves = completed = 0
    sanitizer = install_sanitizer()
    try:
        for shard in range(SHARDS):
            calls = [call for call in _shard_calls(shard)
                     for _ in range(POOL_REPEATS)]
            service = EngineService(
                pool=EnginePool.of_engines(POOL_BOARDS),
                policy=ServicePolicy(queue_depth=len(calls)))
            tickets = [service.submit(call) for call in calls]
            report = service.drain()
            unresolved = sum(0 if ticket.done and ticket.accepted else 1
                             for ticket in tickets)
            results = [ticket.result() for ticket in tickets
                       if ticket.done and ticket.accepted]
            goldens = [_serial_reference(call) for call, ticket
                       in zip(calls, tickets)
                       if ticket.done and ticket.accepted]
            shard_mismatches = unresolved + _mismatches(results, goldens)
            _write_inputs(calls)
            shard_mismatches += _mismatches(results, goldens)
            new = sanitizer.drain()
            findings.extend(_finding_dict(d, shard, "pool") for d in new)
            waves += report.waves
            completed += report.completed
            shards.append({"shard": shard, "requests": len(calls),
                           "waves": report.waves,
                           "mismatches": shard_mismatches,
                           "rechecked": len(results),
                           "findings": len(new)})
            print(f"pool shard {shard}: {len(calls)} requests in "
                  f"{report.waves} waves, {shard_mismatches} "
                  f"mismatch(es), {len(new)} finding(s)")
    finally:
        uninstall_sanitizer()
    return {"boards": POOL_BOARDS, "repeats": POOL_REPEATS,
            "waves": waves,
            "mean_wave_size": completed / waves if waves else 0.0,
            "mismatches": sum(s["mismatches"] for s in shards),
            "rechecked": sum(s["rechecked"] for s in shards),
            "per_shard": shards}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="208-case corpus under the transport sanitizer.")
    parser.add_argument("--out", default="sanitized_corpus.json",
                        metavar="PATH",
                        help="where to write the JSON report")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="scheduler engines: the parent plus up to "
                             "N-1 worker processes (default 2)")
    args = parser.parse_args(argv)

    findings: List[Dict[str, Any]] = []
    scheduler = _scheduler_pass(args.workers, findings)
    pool = _pool_pass(findings)
    mismatches = scheduler["mismatches"] + pool["mismatches"]
    errors = [f for f in findings if f["severity"] == "ERROR"]
    cases = SHARDS * CASES_PER_SHARD
    can_ship = (SHARED_MEMORY_AVAILABLE and args.workers >= 2
                and (os.cpu_count() or 1) >= 2)
    unwatched = can_ship and not (
        scheduler["split"] and scheduler["pool_calls"] == cases
        and scheduler["bypass_calls"] == cases)
    payload = {
        "seed": SEED, "shards": SHARDS,
        "cases": cases, "workers": args.workers,
        "mismatches": mismatches,
        "rechecked_after_write": scheduler["rechecked"] + pool["rechecked"],
        "error_findings": len(errors), "findings": findings,
        "pool_calls": scheduler["pool_calls"],
        "bypass_calls": scheduler["bypass_calls"],
        "per_shard": scheduler["per_shard"],
        "pool": pool,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {args.out}: {payload['cases']} cases, "
          f"{mismatches} mismatch(es) "
          f"({payload['rechecked_after_write']} results re-checked after "
          f"their inputs were written), {len(findings)} finding(s) "
          f"({len(errors)} error-severity); scheduler pass shipped "
          f"{scheduler['pool_calls']} calls over shared memory "
          f"({scheduler['bypass_calls']} run by the parent); "
          f"pool pass ran {pool['waves']} waves of "
          f"{pool['mean_wave_size']:.2f} requests on average")
    if mismatches or errors:
        print("sanitized corpus: FAILED (results drifted or the "
              "sanitizer flagged errors)")
        return 1
    if unwatched:
        print(f"sanitized corpus: FAILED (shared memory is available "
              f"but the cases did not each cross it exactly once: "
              f"{scheduler['pool_calls']} of {cases} shipped, so the "
              f"sanitizer did not watch every case on the live "
              f"transport)")
        return 1
    print("sanitized corpus: OK (bit-exact, zero error-severity "
          "findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
