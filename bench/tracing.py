"""Per-layer wall-clock spans, recorded from outside the program.

Nothing under ``src/`` knows it is being traced: :class:`Tracer`
replaces each layer's public functions with timing wrappers for the
duration of a traced run (and puts the originals back afterwards).  A
function imported by name into another module is patched there too,
because that module's global is what its callers look up.

Every wrapped call is a span: name, start, end, the span that was open
when it started (its parent) and, where the call carries one, the
request id.  A span's *self time* is its duration minus the time its
child spans cover; a layer's self time is the sum over its spans.
Under asyncio a suspended coroutine's span stays open, so work the
event loop runs while the producer waits (a dispatch-loop wave, a
consumer's accounting) nests inside it -- self time still adds up to
wall time, which is what the coverage check relies on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: Full span records kept for the JSON-lines dump.  The per-layer
#: aggregates cover every span; this only bounds memory and disk.
KEEP_SPANS = 50_000

#: Layers in report order (the names the per-layer metrics use).
LAYERS = (
    "load", "aio", "service", "admission", "queue", "batcher",
    "placement", "pricing", "driver", "residency", "library",
    "transport.compute_batch", "executor",
    "gme.warp", "gme.pyramid", "gme.estimate", "gme.sequence",
)

#: Per-layer metric suffixes and their (unit, better).
LAYER_SUFFIXES = (
    ("self_s", "s", "lower"),
    ("share", "fraction", "lower"),
    ("p50_us", "us", "lower"),
    ("p95_us", "us", "lower"),
    ("calls", "calls/op", "lower"),
)


# -- span hooks: request ids and per-call work -------------------------------

def _submit_rid(tracer: "Tracer", args: tuple, kwargs: dict,
                result: Any) -> Any:
    return getattr(result, "request_id", None)


def _wave_rid(tracer: "Tracer", args: tuple, kwargs: dict,
              result: Any) -> Any:
    if not result:
        return None
    tracer.wave_sizes.append(len(result))
    tracer.wave = {id(request.call): (request.request_id,
                                      request.arrival_seconds)
                   for request in result}
    return [request.request_id for request in result]


def _dispatch_rid(tracer: "Tracer", args: tuple, kwargs: dict,
                  result: Any) -> Any:
    calls = args[1] if len(args) > 1 else kwargs.get("calls", ())
    rids = []
    for call in calls:
        known = tracer.wave.get(id(call))
        if known is None:
            continue
        rid, arrival = known
        rids.append(rid)
        if result is not None:
            tracer.queue_waits_ms.append(
                (result.start_seconds - arrival) * 1e3)
    return rids


def _executor_work(images_in: int, produces_image: bool
                   ) -> Callable[..., None]:
    """Count pixels and plane bytes of one executor call (bytes are
    computed from the plane sizes the call reads and writes)."""
    def describe(tracer: "Tracer", args: tuple, kwargs: dict,
                 result: Any) -> None:
        frame = args[1]
        channels = (args[1 + images_in] if len(args) > 1 + images_in
                    else kwargs.get("channels"))
        count = channels.count if channels is not None else 1
        pixels = frame.format.pixels
        tracer.pixels += pixels
        tracer.plane_bytes += pixels * count * (
            images_in + (1 if produces_image else 0))
        return None
    return describe


#: (layer, "module:Qual.name", modules that import it by name, hook).
PATCHES: Tuple[Tuple[str, str, Tuple[str, ...], Any], ...] = (
    ("load", "repro.load.runner:areplay", (), None),
    ("load", "repro.load.trace:CallFactory.call", (), None),
    ("load", "repro.load.trace:CallFactory.options", (), None),
    ("load", "repro.load.report:LoadReport.account", (), None),
    ("aio", "repro.aio.client:AsyncEngineClient.submit", (), None),
    ("aio", "repro.aio.client:AsyncEngineClient.drain", (), None),
    ("aio", "repro.aio.client:AsyncEngineClient.release", (), None),
    ("service", "repro.service.engine_service:EngineService.submit", (),
     _submit_rid),
    ("service", "repro.service.engine_service:EngineService.step", (),
     None),
    ("service", "repro.service.engine_service:EngineService.run_until",
     (), None),
    ("service", "repro.service.engine_service:EngineService.drain", (),
     None),
    ("service", "repro.service.engine_service:EngineService.release",
     (), None),
    ("admission", "repro.service.admission:AdmissionController.admit",
     (), None),
    ("admission",
     "repro.service.admission:AdmissionController.observe", (), None),
    ("queue", "repro.service.queue:RequestQueue.offer", (), None),
    ("queue", "repro.service.queue:RequestQueue.pop_next", (), None),
    ("queue", "repro.service.queue:RequestQueue.pop_compatible", (),
     None),
    ("queue", "repro.service.queue:RequestQueue.requeue_front", (),
     None),
    ("batcher", "repro.service.batcher:MicroBatcher.form_wave", (),
     _wave_rid),
    ("placement", "repro.pool.pool:EnginePool.dispatch", (),
     _dispatch_rid),
    ("placement", "repro.pool.pool:EnginePool.place", (), None),
    ("placement", "repro.pool.pool:EnginePool.account_shed", (), None),
    ("placement", "repro.pool.worker:EngineWorker.run_wave", (), None),
    ("placement", "repro.pool.worker:EngineWorker.book_wave", (), None),
    ("placement", "repro.pool.worker:EngineWorker.affinity_score", (),
     None),
    ("pricing", "repro.pool.pricing:call_cost_seconds",
     ("repro.pool", "repro.pool.worker", "repro.service",
      "repro.service.admission"), None),
    ("pricing", "repro.service.admission:AdmissionController.price", (),
     None),
    ("pricing", "repro.pool.worker:EngineWorker.price", (), None),
    ("pricing", "repro.pool.worker:EngineWorker.wave_cost_seconds", (),
     None),
    ("pricing", "repro.host.driver:AddressEngineDriver.price_call", (),
     None),
    ("driver", "repro.host.driver:AddressEngineDriver.submit", (), None),
    ("driver", "repro.host.driver:AddressEngineDriver.account_shed", (),
     None),
    ("driver", "repro.host.driver:AddressEngineDriver.account_scheduled",
     (), None),
    ("driver", "repro.host.backend:EngineBackend.inter", (), None),
    ("driver", "repro.host.backend:EngineBackend.intra", (), None),
    ("driver", "repro.host.backend:EngineBackend.inter_reduce", (), None),
    ("driver", "repro.host.backend:EngineBackend.batch_record", (), None),
    ("residency", "repro.host.driver:FrameResidencyCache.plan", (), None),
    ("residency", "repro.host.driver:FrameResidencyCache.record_call",
     (), None),
    ("residency", "repro.host.driver:FrameResidencyCache.contains", (),
     None),
    ("residency", "repro.host.driver:FrameResidencyCache.invalidate", (),
     None),
    ("library", "repro.addresslib.library:AddressLib.run_batch", (),
     None),
    ("library", "repro.addresslib.library:AddressLib.intra", (), None),
    ("library", "repro.addresslib.library:AddressLib.inter", (), None),
    ("library", "repro.addresslib.library:AddressLib.inter_reduce", (),
     None),
    ("library", "repro.addresslib.library:SoftwareBackend.intra", (),
     None),
    ("library", "repro.addresslib.library:SoftwareBackend.inter", (),
     None),
    ("library", "repro.addresslib.library:SoftwareBackend.inter_reduce",
     (), None),
    ("library", "repro.addresslib.library:SoftwareBackend.batch_record",
     (), None),
    ("library", "repro.addresslib.library:SoftwareBackend.inter_record",
     (), None),
    ("library", "repro.addresslib.library:SoftwareBackend.intra_record",
     (), None),
    ("transport.compute_batch",
     "repro.host.scheduler:CallScheduler.compute_batch", (), None),
    ("executor", "repro.addresslib.executor:VectorExecutor.intra", (),
     _executor_work(1, True)),
    ("executor", "repro.addresslib.executor:VectorExecutor.inter", (),
     _executor_work(2, True)),
    ("executor",
     "repro.addresslib.executor:VectorExecutor.inter_reduce", (),
     _executor_work(2, False)),
    ("executor", "repro.core.engine:AddressEngine.run_functional", (),
     None),
    ("gme.warp", "repro.gme.warp:warp_luma",
     ("repro.gme", "repro.gme.estimation", "repro.gme.sequences"), None),
    ("gme.pyramid",
     "repro.gme.estimation:GlobalMotionEstimator.build_pyramid", (),
     None),
    ("gme.estimate",
     "repro.gme.estimation:GlobalMotionEstimator.estimate_pair", (),
     None),
    ("gme.sequence", "repro.gme.xm:evaluate_sequence_dual",
     ("repro.gme",), None),
)


class Tracer:
    """Installs the span wrappers and keeps what they record."""

    def __init__(self) -> None:
        #: Open spans, innermost last: [span id, child seconds, parent].
        self.stack: List[list] = []
        self.next_id = 0
        #: Per-layer self seconds of every span.
        self.self_times: Dict[str, array] = {
            layer: array("d") for layer in LAYERS}
        #: Calls per wrapped function (by span name).
        self.calls: Dict[str, int] = {}
        #: Kept span records (the first ``KEEP_SPANS`` spans to close).
        self.spans: List[tuple] = []
        #: Spans that closed while a younger span was still open.
        self.misnested = 0
        #: Executor work: pixels and plane bytes touched.
        self.pixels = 0
        self.plane_bytes = 0
        #: The last formed wave: id(call) -> (request id, arrival).
        self.wave: Dict[int, Tuple[int, float]] = {}
        self.wave_sizes: List[int] = []
        #: Modeled wave start minus arrival, per dispatched request.
        self.queue_waits_ms: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`PATCHES` where callers look
        it up; :meth:`uninstall` restores the originals."""
        if self._undo:
            return
        for layer, target, homes, hook in PATCHES:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            *owners, attr = qualname.split(".")
            owner: object = module
            for part in owners:
                owner = getattr(owner, part)
            raw = (owner.__dict__[attr] if owners
                   else getattr(owner, attr))
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped: object = type(raw)(
                    self._wrap(raw.__func__, qualname, layer, hook))
            else:
                wrapped = self._wrap(raw, qualname, layer, hook)
            self._set(owner, attr, wrapped)
            for home_name in homes:
                home = importlib.import_module(home_name)
                if getattr(home, attr, None) is raw:
                    self._set(home, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner: object, attr: str, value: object) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def _wrap(self, fn: Callable, name: str, layer: str,
              hook: Any) -> Callable:
        tracer = self
        clock = time.perf_counter
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                frame = tracer._open()
                start = clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    tracer._close(frame, name, layer, start, clock(),
                                  hook, args, kwargs, result)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open()
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(frame, name, layer, start, clock(), hook,
                              args, kwargs, result)
        return traced

    # -- span bookkeeping -----------------------------------------------------

    def _open(self) -> list:
        stack = self.stack
        frame = [self.next_id, 0.0, stack[-1][0] if stack else None]
        self.next_id += 1
        stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, layer: str, start: float,
               end: float, hook: Any, args: tuple, kwargs: dict,
               result: Any) -> None:
        stack = self.stack
        if stack[-1] is frame:
            stack.pop()
        else:
            stack.remove(frame)
            self.misnested += 1
        duration = end - start
        if stack:
            stack[-1][1] += duration
        self.self_times[layer].append(duration - frame[1])
        self.calls[name] = self.calls.get(name, 0) + 1
        rid = hook(self, args, kwargs, result) if hook is not None else None
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((frame[0], name, layer, start, end,
                               frame[2], rid))

    # -- results --------------------------------------------------------------

    def layer_metrics(self, wall_seconds: float,
                      ops: int) -> Dict[str, float]:
        """Self time, share, per-call self-time percentiles and calls
        per operation for every layer, plus the coverage figures."""
        metrics: Dict[str, float] = {}
        total_self = 0.0
        for layer in LAYERS:
            samples = np.frombuffer(self.self_times[layer], dtype=float)
            self_s = float(samples.sum()) if samples.size else 0.0
            total_self += self_s
            metrics[f"{layer}.self_s"] = self_s
            metrics[f"{layer}.share"] = self_s / wall_seconds
            for suffix, q in (("p50_us", 50.0), ("p95_us", 95.0)):
                metrics[f"{layer}.{suffix}"] = (
                    float(np.percentile(samples, q)) * 1e6
                    if samples.size else 0.0)
            metrics[f"{layer}.calls"] = samples.size / max(ops, 1)
        metrics["trace.wall_s"] = wall_seconds
        metrics["trace.coverage"] = total_self / wall_seconds
        metrics["other.self_s"] = wall_seconds - total_self
        return metrics

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, layer, start, end, parent, rid in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                    "request": rid}) + "\n")
