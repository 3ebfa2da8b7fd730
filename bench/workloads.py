"""The five pinned workloads, driven through the public ``repro`` API.

Each workload is built from its entry in ``bench/spec.json`` plus the
run's seed, which reaches only the input generator (the arrival trace,
or the synthetic sequences' panorama seeds).  A run is a series of
*rounds*; every round of a workload does the same deterministic work,
so its modeled books must repeat exactly, while its wall-clock figures
are what the benchmark measures.

Rounds are short, and an untimed *probe* (``measure.reference_kernel``)
may run between the timed segments of a round -- around each replay,
frame or batch -- so the run can tell how fast the host was at that
moment.  Each round reports its segments as (wall, reference) pairs.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import gme
from repro.addresslib import (INTER_OPS, INTRA_OPS, AddressLib,
                              AddressingMode, BatchCall, SoftwareBackend,
                              VectorExecutor)
from repro.api import (AdmissionPolicy, AsyncEngineClient, EnginePool,
                       EngineService, Priority, RequestState,
                       ServicePolicy, TenantPolicy)
from repro.gme import GmeSettings, SyntheticSequence, sequence_by_name
from repro.host import CallScheduler
from repro.image import Frame
from repro.load import (ArrivalTrace, CallFactory, TenantSpec, TraceSpec,
                        replay_async)

#: Batches per ``batch_shm`` round (~1 s of work on a 2-CPU host).
BATCHES_PER_ROUND = 10
#: Requests the serving workloads' correctness pass replays (whole
#: traces, from the first, until at least this many).
VERIFY_REQUESTS = 2000

#: Runs the reference kernel and returns its wall seconds.
Probe = Callable[[], float]


@dataclass
class Round:
    """What one round did and how long it took."""

    #: Which input the round ran (rounds with equal keys must agree).
    key: str
    #: Timed wall seconds (the work itself, not probes or checks).
    wall_s: float
    #: Calls offered, and calls that completed.
    attempted: int
    completed: int
    #: Wall latency percentiles of the round's requests, frames or
    #: batches, seconds.
    p50_s: float
    p99_s: float
    #: Deterministic books: identical for every round with this key.
    modeled: Dict[str, object]
    #: Calls that raised, never resolved, or returned a wrong result.
    failed: int = 0
    #: (wall seconds, reference seconds) of each timed segment; empty
    #: when the round ran without a probe.
    segments: List[Tuple[float, float]] = field(default_factory=list)
    #: Wall-clock side figures (not expected to repeat).
    extra: Dict[str, float] = field(default_factory=dict)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``samples``; 0 when there are none."""
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def reference(call: BatchCall):
    """The serial vector-executor result of ``call``."""
    if call.mode is AddressingMode.INTRA:
        return VectorExecutor.intra(call.op, call.frames[0],
                                    call.channels)
    if call.reduce_to_scalar:
        return VectorExecutor.inter_reduce(call.op, *call.frames,
                                           call.channels)
    return VectorExecutor.inter(call.op, *call.frames, call.channels)


def same_result(got: object, want: object) -> bool:
    if isinstance(want, Frame):
        return isinstance(got, Frame) and got.equals(want)
    return got == want


class _Timeline:
    """A round's timed segments, with the probe run between them.

    Each segment's reference time is the mean of the probe runs just
    before it started and just after it stopped; probe time is never
    part of a segment.  Without a probe there are no references.
    """

    def __init__(self, probe: Optional[Probe]) -> None:
        self.probe = probe
        self.walls: List[float] = []
        self.probes = [probe()] if probe is not None else []
        self._start = 0.0

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.walls.append(time.perf_counter() - self._start)
        if self.probe is not None:
            self.probes.append(self.probe())

    def cut(self) -> None:
        """End one segment and start the next; without a probe the two
        share one timestamp, so the segments tile the whole interval."""
        now = time.perf_counter()
        self.walls.append(now - self._start)
        if self.probe is not None:
            self.probes.append(self.probe())
            now = time.perf_counter()
        self._start = now

    def segments(self) -> List[Tuple[float, float]]:
        return [(wall, (before + after) / 2) for wall, before, after
                in zip(self.walls, self.probes, self.probes[1:])]


class Workload:
    """A run's inputs and the operations it times."""

    def setup(self) -> None:
        """Build everything a round needs; timed as ``setup_s``."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed, untraced work the checks need (reference results)."""

    def round(self, index: int, probe: Optional[Probe] = None) -> Round:
        raise NotImplementedError

    def complete(self, rounds: List[Round]) -> bool:
        """Whether the rounds so far cover every input once."""
        return bool(rounds)

    def exact(self, rounds: List[Round]) -> Dict[str, float]:
        """The workload's modeled (exact) metrics."""
        raise NotImplementedError

    def books(self, rounds: List[Round]) -> Dict[str, float]:
        """Per-layer figures read from the program's own books."""
        return {}

    def verify(self) -> Tuple[int, int]:
        """Untimed correctness pass: (calls checked, calls wrong)."""
        return 0, 0

    def close(self) -> List[str]:
        """Release resources; returns anything left behind."""
        return []


def _first_per_key(rounds: List[Round]) -> List[Dict[str, object]]:
    first: Dict[str, Dict[str, object]] = {}
    for r in rounds:
        first.setdefault(r.key, r.modeled)
    return list(first.values())


# -- serving workloads -------------------------------------------------------

class ServeWorkload(Workload):
    """Open-loop traces replayed through ``repro.load.replay_async``.

    Arrivals are stamped on the modeled clock by the seeded trace; on
    the wall clock the one producer submits as fast as backpressure
    allows.  The run seed yields ``traces`` independent traces of
    ``round_requests`` each (trace seeds ``seed * traces + i``); round
    ``i`` replays trace ``i mod traces`` on a fresh service, so a run
    covers several arrival patterns instead of one.  Set-up warms up
    by replaying the head of trace 0 on a throwaway service.  The probe
    runs around each replay.
    """

    def __init__(self, params: Dict, seed: int) -> None:
        self.params = params
        self.seed = seed
        cost = params["mean_call_cost_s"]
        self.load = params["load"]
        self.tenants = tuple(
            TenantSpec(t["name"], weight=t["weight"],
                       priority=Priority[t["priority"].upper()],
                       deadline_seconds=t.get("deadline_s"),
                       burst_factor=t.get("burst_factor", 1.0))
            for t in params["tenants"])
        self.targets = [t["name"] for t in params["tenants"]
                        if "p95_target_calls" in t]
        self.policy = ServicePolicy(
            queue_depth=params["queue_depth"],
            max_batch=params["max_batch"],
            admission=AdmissionPolicy(
                deadline_budget_seconds=params["budget_calls"] * cost),
            tenants={
                t["name"]: TenantPolicy(
                    weight=t["policy_weight"],
                    p95_target_seconds=(
                        t["p95_target_calls"] * cost
                        if "p95_target_calls" in t else None))
                for t in params["tenants"] if "policy_weight" in t})
        self.traces: List[ArrivalTrace] = []

    def _service(self) -> EngineService:
        return EngineService(
            pool=EnginePool.of_engines(self.params["boards"]),
            policy=self.policy)

    def trace_spec(self, requests: int, rate_per_s: float, seed: int,
                   tenants: Optional[Tuple[TenantSpec, ...]] = None
                   ) -> TraceSpec:
        return TraceSpec(requests=requests, rate_per_s=rate_per_s,
                         seed=seed, tenants=tenants or self.tenants,
                         **self.params["trace"])

    def setup(self) -> None:
        count = self.params["traces"]
        rate = self.load * self.params["capacity_per_s"]
        self.traces = [ArrivalTrace.synthesize(self.trace_spec(
            self.params["round_requests"], rate, self.seed * count + i))
            for i in range(count)]
        warmup = self.traces[0].head(self.params["warmup_requests"])
        replay_async(warmup, self._service(), load_factor=self.load)

    def round(self, index: int, probe: Optional[Probe] = None) -> Round:
        trace = self.traces[index % len(self.traces)]
        service = self._service()
        timeline = _Timeline(probe)
        timeline.start()
        report = replay_async(trace, service, load_factor=self.load)
        timeline.stop()
        wall = timeline.walls[0]
        books = report.service
        assert books is not None and books.pool is not None
        failed = (report.offered_requests - report.accounted
                  + abs(books.submitted - report.offered_requests)
                  + abs(books.completed + books.rejected
                        + books.timed_out - books.submitted)
                  + abs(books.completed - report.completed))
        modeled: Dict[str, object] = {
            "modeled_p50_ms": _ms(report.modeled_latency.p50),
            "modeled_p99_ms": _ms(report.modeled_latency.p99),
            "offered": report.offered_requests,
            "completed": report.completed,
            "rejected": report.rejected,
            "timed_out": report.timed_out,
            "waves": books.waves,
            "coalesced_requests": books.coalesced_requests,
            "queue_high_water": books.queue_high_water,
            "failovers": books.pool.failovers,
            "residency_hit_rate": books.pool.residency_hit_rate or 0.0,
            "targets": {name: (report.tenants[name].completed,
                               report.tenants[name].submitted)
                        for name in self.targets
                        if name in report.tenants},
        }
        p50, p99 = report.wall_latency.p50, report.wall_latency.p99
        if p50 is None or p99 is None:
            failed = max(failed, report.offered_requests)
            p50 = p99 = float("nan")
        return Round(
            key=f"trace{index % len(self.traces)}", wall_s=wall,
            attempted=report.offered_requests,
            completed=report.completed,
            p50_s=p50, p99_s=p99, modeled=modeled, failed=failed,
            segments=timeline.segments(),
            extra={"backpressure_waits": report.backpressure_waits,
                   "backpressure_wait_s":
                       report.backpressure_wall_seconds})

    def complete(self, rounds: List[Round]) -> bool:
        return len(rounds) >= len(self.traces)

    def exact(self, rounds: List[Round]) -> Dict[str, float]:
        """Over the run's traces: median of the per-trace modeled
        percentiles, and goodput and sheds over all their requests."""
        books = _first_per_key(rounds)
        offered = sum(b["offered"] for b in books)
        completed = sum(b["completed"] for b in books)
        exact = {
            "modeled_p50_ms": statistics.median(
                b["modeled_p50_ms"] for b in books),
            "modeled_p99_ms": statistics.median(
                b["modeled_p99_ms"] for b in books),
            "goodput_ratio": completed / offered,
            "shed_frac": sum(b["rejected"] + b["timed_out"]
                             for b in books) / offered,
        }
        if self.targets:
            exact["slo_goodput_min"] = min(
                sum(b["targets"][name][0] for b in books)
                / sum(b["targets"][name][1] for b in books)
                for name in self.targets)
        return exact

    def books(self, rounds: List[Round]) -> Dict[str, float]:
        first = rounds[0].modeled
        return {
            "aio.backpressure_waits": rounds[0].extra["backpressure_waits"],
            "aio.backpressure_wait_s": sum(
                r.extra["backpressure_wait_s"] for r in rounds),
            "admission.rejects": first["rejected"],
            "queue.high_water": first["queue_high_water"],
            "batcher.waves": first["waves"],
            "pool.failovers": first["failovers"],
            "pool.residency_hit_rate": first["residency_hit_rate"],
        }

    def verify(self) -> Tuple[int, int]:
        """Replay the first traces through the asyncio facade and check
        every completed result bit-exact as it streams out."""
        checked = failed = 0
        for trace in self.traces:
            if checked >= VERIFY_REQUESTS:
                break
            service = self._service()
            wrong = asyncio.run(_verify(trace, service))
            books = service.report()
            if (books.submitted != len(trace)
                    or books.completed + books.rejected + books.timed_out
                    != books.submitted):
                wrong = max(wrong, 1)
            checked += len(trace)
            failed += wrong
        return checked, failed


async def _verify(trace: ArrivalTrace, service: EngineService) -> int:
    """Wrong or unresolved requests of one checked replay."""
    factory = CallFactory(trace)
    calls: Dict[int, BatchCall] = {}
    wrong = resolved = 0
    async with AsyncEngineClient(service) as client:
        stream = client.completions()

        async def check() -> None:
            nonlocal wrong, resolved
            async with stream:
                async for ticket in stream:
                    call = calls.pop(ticket.request_id)
                    if (ticket.ticket.state is RequestState.COMPLETED
                            and not same_result(ticket.result(),
                                                reference(call))):
                        wrong += 1
                    client.release(ticket)
                    resolved += 1
                    if resolved == len(trace):
                        break

        checker = asyncio.ensure_future(check())
        try:
            for entry in trace.entries:
                call = factory.call(entry)
                ticket = await client.submit(call,
                                             factory.options(entry))
                # Before any await, so the checker finds the call.
                calls[ticket.request_id] = call
            await client.drain()
            # Closing ends the stream, so a request that never resolves
            # is counted instead of waited for.
            await client.close()
            await checker
        finally:
            checker.cancel()
    return wrong + len(trace) - resolved


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3


# -- the paper's workload ----------------------------------------------------

class _FrameClock:
    """A sequence's pose function that notes when the program first
    asks for each frame, and runs the probe (if any) right there.

    The program itself is not touched: the time from one frame request
    to the next, minus the probe, is that frame's latency.  The
    segments of a round are the lead-in before frame 0 (the sequence's
    panorama synthesis) and every frame.
    """

    def __init__(self, pose, probe: Optional[Probe]) -> None:
        self.pose = pose
        self.timeline = _Timeline(probe)
        self._seen: set = set()
        self.timeline.start()

    def __call__(self, index: int):
        if index not in self._seen:
            self._seen.add(index)
            self.timeline.cut()
        return self.pose(index)


class GmeWorkload(Workload):
    """``evaluate_sequence_dual`` over the Table 3 sequences, one
    sequence per round, cycling until the run time is used up (and at
    least once through all four)."""

    def __init__(self, params: Dict, seed: int) -> None:
        self.scale = params["scale"]
        self.warmup_scale = params["warmup_scale"]
        self.specs = []
        for name in params["sequences"]:
            spec = sequence_by_name(name)
            self.specs.append(replace(spec, seed=spec.seed + seed))
        settings = GmeSettings()
        #: Intra calls are structural: box filters per frame, Sobel
        #: x/y per level plus one homogeneity call per pair.
        self.intra_per_frame = settings.levels - 1
        self.intra_per_pair = 2 * settings.levels + 1

    def setup(self) -> None:
        gme.evaluate_sequence_dual(self.specs[0], scale=self.warmup_scale)

    def round(self, index: int, probe: Optional[Probe] = None) -> Round:
        spec = self.specs[index % len(self.specs)]
        clock = _FrameClock(spec.pose, probe)
        row = gme.evaluate_sequence_dual(replace(spec, pose=clock),
                                         scale=self.scale)
        timeline = clock.timeline
        timeline.stop()
        latencies = timeline.walls[1:]
        calls = row.intra_calls + row.inter_calls
        frames = row.frames_run
        expected_intra = (self.intra_per_frame * frames
                          + self.intra_per_pair * (frames - 1))
        wrong = (row.intra_calls != expected_intra
                 or not row.fpga_seconds < row.pm_seconds)
        return Round(
            key=spec.name, wall_s=sum(timeline.walls),
            attempted=calls, completed=0 if wrong else calls,
            p50_s=percentile(latencies, 50.0),
            p99_s=percentile(latencies, 99.0),
            modeled={"speedup": row.speedup,
                     "intra_calls": row.intra_calls,
                     "inter_calls": row.inter_calls,
                     "pm_seconds": row.pm_seconds,
                     "fpga_seconds": row.fpga_seconds},
            failed=calls if wrong else 0, segments=timeline.segments())

    def complete(self, rounds: List[Round]) -> bool:
        return {r.key for r in rounds} >= {s.name for s in self.specs}

    def exact(self, rounds: List[Round]) -> Dict[str, float]:
        speedups = [b["speedup"] for b in _first_per_key(rounds)]
        return {"table3_speedup": sum(speedups) / len(speedups)}


# -- the scheduler's shared-memory transport ---------------------------------

def stop_child_processes() -> None:
    """Wait for every child process to exit, then stop the resource
    tracker and wait for it too.

    Creating a ``SharedMemory`` starts ``multiprocessing``'s resource
    tracker, a helper process that ``active_children`` does not list.
    Left alone it outlives the run and is reaped by nobody, so it is
    stopped here, once the workers holding its pipe have exited.
    """
    for process in multiprocessing.active_children():
        process.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _psm_segments() -> set:
    """Names of POSIX shared-memory segments ``multiprocessing`` made."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


class BatchWorkload(Workload):
    """The BENCH_wallclock GME slice -- per-frame intra calls plus SAD
    reduces between consecutive frames -- run as one independent batch
    through ``AddressLib.run_batch`` on a ``CallScheduler`` with one
    worker per CPU, automatic transport and bypass.  The probe runs
    before each batch."""

    def __init__(self, params: Dict, seed: int) -> None:
        self.params = params
        base = sequence_by_name(params["sequence"])
        self.spec = replace(base, seed=base.seed + seed)
        self.segments_before = _psm_segments()
        self.scheduler: Optional[CallScheduler] = None
        self.expected: Optional[list] = None

    def setup(self) -> None:
        self.close()
        count = self.params["frames"]
        sequence = SyntheticSequence(self.spec, frames_override=count)
        frames = [sequence.frame(i) for i in range(count)]
        intra = [INTRA_OPS[name] for name in self.params["intra_ops"]]
        inter = INTER_OPS[self.params["inter_reduce_op"]]
        self.calls = [BatchCall.intra(op, frame)
                      for frame in frames for op in intra]
        self.calls += [BatchCall.inter_reduce(inter, a, b)
                       for a, b in zip(frames, frames[1:])]
        self.lib = AddressLib(SoftwareBackend())
        # Started before the workers fork, so they share this process'
        # resource tracker instead of each starting one of its own that
        # would outlive them.
        resource_tracker.ensure_running()
        self.scheduler = CallScheduler(max_workers=os.cpu_count())
        self.lib.run_batch(self.calls, scheduler=self.scheduler)

    def prepare(self) -> None:
        self.expected = AddressLib(SoftwareBackend()).run_batch(self.calls)

    def _totals(self) -> Dict[str, float]:
        assert self.scheduler is not None
        total = self.scheduler.total
        return {"ship_s": total.ship_seconds,
                "compute_s": total.compute_seconds,
                "gather_s": total.gather_seconds,
                "pool_calls": total.pool_calls,
                "bypass_calls": total.bypass_calls,
                "round_trips": total.round_trips,
                "hits": total.worker_cache_hits,
                "attaches": total.worker_cache_attaches}

    def round(self, index: int, probe: Optional[Probe] = None) -> Round:
        assert self.scheduler is not None and self.expected is not None
        before = self._totals()
        timeline = _Timeline(probe)
        failed, modeled = 0, None
        for _ in range(BATCHES_PER_ROUND):
            timeline.start()
            results = self.lib.run_batch(self.calls,
                                         scheduler=self.scheduler)
            timeline.stop()
            failed += abs(len(results) - len(self.expected)) + sum(
                not same_result(got, want)
                for got, want in zip(results, self.expected))
            del results
            report = self.scheduler.last_report
            assert report is not None
            books = {"modeled_speedup": report.modeled_speedup,
                     "modeled_serial_s": report.modeled_serial_seconds,
                     "modeled_pipelined_s":
                         report.modeled_pipelined_seconds}
            if modeled is None:
                modeled = books
            elif books != modeled:
                failed += len(self.calls)
        after = self._totals()
        attempted = BATCHES_PER_ROUND * len(self.calls)
        return Round(
            key="slice", wall_s=sum(timeline.walls), attempted=attempted,
            completed=attempted - min(failed, attempted),
            p50_s=percentile(timeline.walls, 50.0),
            p99_s=percentile(timeline.walls, 99.0),
            modeled=modeled or {}, failed=failed,
            segments=timeline.segments(),
            extra={k: after[k] - before[k] for k in after})

    def exact(self, rounds: List[Round]) -> Dict[str, float]:
        return {"modeled_speedup": rounds[0].modeled["modeled_speedup"]}

    def books(self, rounds: List[Round]) -> Dict[str, float]:
        total = {k: sum(r.extra[k] for r in rounds) for k in rounds[0].extra}
        ops = sum(r.attempted for r in rounds)
        looked_up = total["hits"] + total["attaches"]
        return {
            "transport.ship_s": total["ship_s"],
            "transport.compute_s": total["compute_s"],
            "transport.gather_s": total["gather_s"],
            "transport.pool_calls": total["pool_calls"] / ops,
            "transport.bypass_calls": total["bypass_calls"] / ops,
            "transport.round_trips": total["round_trips"] / ops,
            "transport.worker_cache_hit_rate": (
                total["hits"] / looked_up if looked_up else 0.0),
        }

    def close(self) -> List[str]:
        """Shut the scheduler down and wait for its workers to exit;
        returns the segments it left in /dev/shm."""
        if self.scheduler is None:
            return []
        self.scheduler.close()
        self.scheduler = None
        stop_child_processes()
        gc.collect()
        return sorted(_psm_segments() - self.segments_before)


KINDS = {"serve": ServeWorkload, "gme": GmeWorkload,
         "batch": BatchWorkload}


def make(params: Dict, seed: int) -> Workload:
    return KINDS[params["kind"]](params, seed)
