"""Runtime transport sanitizer: the one checker of the SHM/RES/POOL
rules.

A :class:`TransportSanitizer` implements the
:class:`~repro.host.shm.TransportObserver` protocol -- the hook sites
in :mod:`repro.host.shm`, :class:`~repro.host.scheduler.CallScheduler`,
the driver's :class:`~repro.host.driver.FrameResidencyCache` and
:class:`~repro.pool.pool.EnginePool` notify it of every handle ship,
segment release, result adoption, cache attach/evict, and pool
wave/requeue -- and emits :class:`~repro.analysis.diagnostics.
Diagnostic` findings under the transport (``SHM00x``), residency
(``RES00x``) and pool (``POOL00x``) rule ids of the catalogue.  It
always checks all three families.

Opt-in and cheap: nothing is instrumented until
:func:`install_sanitizer` -- the one switch -- puts a sanitizer in
place (a :class:`~repro.host.scheduler.CallScheduler` built afterwards
arms its workers too), and every hook site is a single module-global
``None`` check when it is not.

:data:`SANITIZE_SELFTESTS` seeds one real bug per rule into the live
primitives (a mutated frame under an in-flight handle, a double
segment release, a one-entry cache thrashing, a pool whose requeue
reorders a wave...) and checks the sanitizer catches it -- run by
``repro-check --sanitize-selftest`` and the CI analysis gate.
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..host import shm
from .diagnostics import Diagnostic
from .rules import _diag


class TransportSanitizer:
    """Observer-side checkers emitting SHM/RES/POOL diagnostics.

    One instance per process; findings accumulate until
    :meth:`drain`.  All methods tolerate partial event streams (a
    sanitizer installed mid-run only compares events it saw), so
    installation order can never produce a false positive.

    The books hold only what a check can still use, so they stay flat
    however long the process serves: shipped handles until their wave
    closes, released segments while something still holds them (only
    a holder can release one again), the latest evictions up to the
    worker cache's capacity, and result frames while they live.
    """

    def __init__(self) -> None:
        self.findings: List[Diagnostic] = []
        # transport state
        self._wave_depth = 0
        self._shipped: Dict[Tuple[str, int], int] = {}
        self._released: "weakref.WeakSet[Any]" = weakref.WeakSet()
        # residency state: frame key -> evicted generation, latest last
        self._evicted: "OrderedDict[Tuple[str, int], int]" = OrderedDict()
        # pool state: live result frame id -> (its ref, producing board)
        self._producers: Dict[int, Tuple["weakref.ref[Any]", int]] = {}

    # -- findings ----------------------------------------------------------

    def drain(self) -> List[Diagnostic]:
        """All findings since the last drain (and forget them)."""
        findings, self.findings = self.findings, []
        return findings

    def _emit(self, rule_id: str, message: str) -> None:
        self.findings.append(_diag(rule_id, message))

    # -- wave framing (scheduler-side) -------------------------------------

    def wave_opened(self) -> None:
        self._wave_depth += 1

    def wave_closed(self) -> None:
        self._wave_depth = max(0, self._wave_depth - 1)
        if self._wave_depth == 0:
            self._shipped.clear()

    def handle_shipped(self, handle: shm.FrameHandle) -> None:
        if self._wave_depth == 0:
            return
        key = (handle.token, handle.frame_id)
        self._shipped.setdefault(key, handle.generation)

    # -- store lifecycle ---------------------------------------------------

    def frame_registered(self, token: str, frame_id: int,
                         generation: int) -> None:
        shipped = self._shipped.get((token, frame_id))
        if shipped is not None and generation > shipped:
            self._emit(
                "SHM001",
                f"frame {frame_id} (store {token}) re-registered at "
                f"generation {generation} while its generation "
                f"{shipped} handle is shipped in the open wave: the "
                f"source was mutated under an in-flight handle")

    def segment_released(self, segment: Any) -> None:
        if segment not in self._released:
            self._released.add(segment)
            return
        self._emit(
            "SHM003",
            f"segment '{segment.name}' released again after it was "
            f"already released: refcount underflow (double free)")

    def result_adopted(self, name: str, store_closed: bool) -> None:
        if store_closed:
            self._emit(
                "SHM002",
                f"result slab '{name}' adopted after the plane store "
                f"closed: the store already released it, so the "
                f"adopted frame would outlive the store's teardown "
                f"guarantees")

    # -- worker-cache residency --------------------------------------------

    def cache_attach(self, token: str, frame_id: int, generation: int,
                     cached_generation: Optional[int]) -> None:
        evicted = self._evicted.pop((token, frame_id), None)
        held = max((g for g in (cached_generation, evicted)
                    if g is not None), default=-1)
        if generation < held:
            self._emit(
                "RES001",
                f"worker cache consulted for frame {frame_id} (store "
                f"{token}) with a generation {generation} handle after "
                f"it held generation {held}: a stale handle can serve "
                f"mutated-away content")
        elif cached_generation is None and evicted == generation:
            self._emit(
                "RES002",
                f"frame {frame_id}@g{generation} (store {token}) "
                f"re-attached after eviction with its content "
                f"unchanged: cache capacity "
                f"{shm.worker_cache_capacity()} is below this "
                f"workload's reuse distance")

    def cache_evicted(self, token: str, frame_id: int,
                      generation: int) -> None:
        evicted = self._evicted
        evicted.pop((token, frame_id), None)
        evicted[(token, frame_id)] = generation
        while len(evicted) > shm.worker_cache_capacity():
            evicted.popitem(last=False)

    # -- pool placement and failover ---------------------------------------

    def pool_wave(self, worker_id: int, calls: Sequence[Any],
                  results: Sequence[Any]) -> None:
        for call in calls:
            for frame in getattr(call, "frames", ()):
                produced = self._producers.get(id(frame))
                if produced is None:
                    continue
                ref, producer_board = produced
                if ref() is not frame:
                    # id() reuse after the producer's frame died.
                    self._producers.pop(id(frame), None)
                    continue
                if producer_board != worker_id:
                    self._emit(
                        "POOL002",
                        f"board {worker_id} consumes a frame produced "
                        f"on board {producer_board}: placement split "
                        f"a producer/consumer pair, forcing a "
                        f"cross-board reship")
        producers = self._producers
        for result in results:
            if not hasattr(result, "plane"):
                continue  # scalar results carry no residency

            def forget(ref: "weakref.ref[Any]",
                       key: int = id(result)) -> None:
                # The frame died: drop its entry, unless a newer frame
                # reusing the id already replaced it.
                if producers.get(key, (None,))[0] is ref:
                    del producers[key]

            producers[id(result)] = (weakref.ref(result, forget),
                                     worker_id)

    def pool_requeued(self, original: Sequence[Any],
                      requeued: Sequence[Any]) -> None:
        if [id(call) for call in original] != \
                [id(call) for call in requeued]:
            self._emit(
                "POOL001",
                f"failover requeue altered the wave (len "
                f"{len(original)} -> {len(requeued)}, or order "
                f"changed): replay must be verbatim, or RAW-dependent "
                f"calls can interleave into one dispatch")


# ---------------------------------------------------------------------------
# Process-wide installation
# ---------------------------------------------------------------------------

_ACTIVE: Optional[TransportSanitizer] = None


def active_sanitizer() -> Optional[TransportSanitizer]:
    return _ACTIVE


def install_sanitizer() -> TransportSanitizer:
    """Install a fresh sanitizer as the process-wide observer."""
    global _ACTIVE
    sanitizer = TransportSanitizer()
    _ACTIVE = sanitizer
    shm.set_transport_observer(sanitizer)
    return sanitizer


def uninstall_sanitizer() -> Optional[TransportSanitizer]:
    """Remove the active sanitizer; returns it (with its findings)."""
    global _ACTIVE
    sanitizer, _ACTIVE = _ACTIVE, None
    if sanitizer is not None \
            and shm.get_transport_observer() is sanitizer:
        shm.set_transport_observer(None)
    return sanitizer


def reset_for_worker() -> None:
    """Worker-process hygiene: drop state inherited over ``fork()``.

    A forked worker inherits the parent's sanitizer *object* (with the
    parent's accumulated findings); those belong to the parent.  The
    scheduler's pool initializer calls this before installing the
    worker's own sanitizer.
    """
    global _ACTIVE
    _ACTIVE = None
    shm.set_transport_observer(None)


# ---------------------------------------------------------------------------
# Seeded-bug selftests (one real bug per rule, caught live)
# ---------------------------------------------------------------------------

def _small_fmt() -> Any:
    from ..image.formats import ImageFormat
    return ImageFormat("SAN8x8", 8, 8)


def _with_observer(scenario: Callable[[TransportSanitizer], Optional[bool]]
                   ) -> Optional[List[Diagnostic]]:
    """Run ``scenario`` under a fresh observer; restore the previous.

    The scenario returns ``True`` to signal "environment cannot run
    this" (no shared memory); the case then reports as skipped.
    """
    previous = shm.set_transport_observer(None)
    sanitizer = TransportSanitizer()
    shm.set_transport_observer(sanitizer)
    try:
        if scenario(sanitizer):
            return None
        return sanitizer.drain()
    finally:
        shm.set_transport_observer(previous)


def _selftest_shm001() -> Optional[List[Diagnostic]]:
    """Mutate a source frame while its handle is shipped in a wave."""
    from ..image.pixel import ALL_CHANNELS
    from ..image.synth import noise_frame

    def scenario(sanitizer: TransportSanitizer) -> Optional[bool]:
        store = shm.PlaneStore()
        try:
            frame = noise_frame(_small_fmt(), seed=1)
            handle = store.register(frame)
            if handle is None:
                return True
            sanitizer.wave_opened()
            sanitizer.handle_shipped(handle)
            frame.plane(ALL_CHANNELS[0])[0, 0] ^= 0xFF
            store.register(frame)  # generation bump under the wave
            sanitizer.wave_closed()
            return None
        finally:
            store.close()

    return _with_observer(scenario)


def _selftest_shm002() -> Optional[List[Diagnostic]]:
    """Adopt a leased result slab after the store closed."""
    from ..image.pixel import ALL_CHANNELS

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        store = shm.PlaneStore()
        slab = store.lease_slab(_small_fmt())
        store.close()  # releases the slab while it is still leased
        if slab is None:
            return True
        store.adopt_slab(slab, _small_fmt(),
                         ALL_CHANNELS)  # the seeded bug
        return None

    return _with_observer(scenario)


def _selftest_shm003() -> Optional[List[Diagnostic]]:
    """Release a registered segment twice (refcount underflow)."""
    from ..image.synth import noise_frame

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        store = shm.PlaneStore()
        try:
            frame = noise_frame(_small_fmt(), seed=3)
            handle = store.register(frame)
            if handle is None:
                return True
            entry = store._entries[id(frame)]
            shm._release_segment(entry.segment)  # legitimate release
            shm._release_segment(entry.segment)  # double free
            return None
        finally:
            store.close()

    return _with_observer(scenario)


def _selftest_res001() -> Optional[List[Diagnostic]]:
    """Attach with a stale-generation handle after a content rewrite."""
    from ..image.pixel import ALL_CHANNELS
    from ..image.synth import noise_frame

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        if not shm.SHARED_MEMORY_AVAILABLE:
            return True
        shm.reset_worker_cache()
        store = shm.PlaneStore()
        try:
            frame = noise_frame(_small_fmt(), seed=4)
            stale = store.register(frame)
            if stale is None:
                return True
            shm.worker_attach(stale)
            frame.plane(ALL_CHANNELS[0])[0, 0] ^= 0xFF
            fresh = store.register(frame)
            assert fresh is not None and fresh.generation == 1
            shm.worker_attach(fresh)
            try:
                shm.worker_attach(stale)  # the seeded bug
            except Exception:
                pass  # the stale segment is already unlinked
            return None
        finally:
            shm.reset_worker_cache()
            store.close()

    return _with_observer(scenario)


def _selftest_res002() -> Optional[List[Diagnostic]]:
    """Thrash a one-entry cache: evict, then re-attach unchanged."""
    from ..image.synth import noise_frame

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        if not shm.SHARED_MEMORY_AVAILABLE:
            return True
        shm.reset_worker_cache()
        previous_cap = shm.set_worker_cache_capacity(1)
        store = shm.PlaneStore()
        try:
            frame_a = noise_frame(_small_fmt(), seed=5)
            frame_b = noise_frame(_small_fmt(), seed=6)
            handle_a = store.register(frame_a)
            handle_b = store.register(frame_b)
            if handle_a is None or handle_b is None:
                return True
            shm.worker_attach(handle_a)
            shm.worker_attach(handle_b)  # evicts frame_a's entry
            shm.worker_attach(handle_a)  # re-ship of unchanged content
            return None
        finally:
            shm.set_worker_cache_capacity(previous_cap)
            shm.reset_worker_cache()
            store.close()

    return _with_observer(scenario)


def _pool_fixture() -> Tuple[Any, Any]:
    """A 2-board pool plus a deterministic small intra call factory."""
    from ..addresslib.ops import INTRA_OPS
    from ..addresslib.library import BatchCall
    from ..image.synth import noise_frame
    from ..pool.pool import EnginePool

    op = INTRA_OPS[sorted(INTRA_OPS)[0]]

    def make_call(seed: int) -> Any:
        return BatchCall.intra(op, noise_frame(_small_fmt(), seed=seed))

    return EnginePool.of_engines(2), make_call


def _selftest_pool001() -> Optional[List[Diagnostic]]:
    """A buggy requeue override reorders a failed wave."""
    from ..core.errors import EngineDeadlock

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        pool, make_call = _pool_fixture()

        def reversed_requeue(calls: Sequence[Any]) -> List[Any]:
            return list(reversed(calls))  # the seeded bug

        pool._requeue = reversed_requeue  # type: ignore[method-assign]

        def boom(calls: Sequence[Any]) -> Any:
            raise EngineDeadlock("injected board failure")

        pool.workers[0].run_wave = boom  # type: ignore[method-assign]
        pool.dispatch([make_call(7), make_call(8)])
        return None

    return _with_observer(scenario)


def _selftest_pool002() -> Optional[List[Diagnostic]]:
    """A round-robin placement override, blind to residency, splits a
    producer/consumer pair."""
    from ..addresslib.library import BatchCall
    from ..addresslib.ops import INTRA_OPS

    def scenario(_sanitizer: TransportSanitizer) -> Optional[bool]:
        pool, make_call = _pool_fixture()
        turns = itertools.count()

        def round_robin(calls: Sequence[Any]) -> Any:
            alive = pool.alive()
            return alive[next(turns) % len(alive)]  # the seeded bug

        pool.place = round_robin  # type: ignore[method-assign]
        produced = pool.dispatch([make_call(9)])
        result = produced.results[0]
        op = INTRA_OPS[sorted(INTRA_OPS)[0]]
        assert not isinstance(result, int)
        pool.dispatch([BatchCall.intra(op, result)])
        return None

    return _with_observer(scenario)


#: Rule id -> the seeded-bug scenario that must trigger it (``None``
#: result = environment cannot run the scenario, reported as skipped).
SANITIZE_SELFTESTS: Dict[str, Tuple[
        Callable[[], Optional[List[Diagnostic]]], str]] = {
    "shipped handle mutated mid-wave": (_selftest_shm001, "SHM001"),
    "result adopted after store close": (_selftest_shm002, "SHM002"),
    "segment double free": (_selftest_shm003, "SHM003"),
    "stale-generation cache attach": (_selftest_res001, "RES001"),
    "eviction horizon below reuse distance": (_selftest_res002,
                                              "RES002"),
    "failover requeue reorders wave": (_selftest_pool001, "POOL001"),
    "round-robin splits producer/consumer": (_selftest_pool002,
                                             "POOL002"),
}
