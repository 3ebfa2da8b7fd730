"""Zero-copy frame transport between the scheduler and its workers.

The paper's host moves every frame over the PCI bus by DMA, and the
board design (strip jobs, block_A/block_B double buffering, interrupt
batching) exists to keep that bus off the critical path; section 4.3
observes the penalty when it is not ("the host accessed the board after
every call to the AddressLib").  The scheduler's parent<->worker
boundary has exactly the same structure: pickling a frame into a
``ProcessPoolExecutor`` is this model's PCI transfer, and it was the
measured wall-clock limiter.  This module is the DMA engine of that
analogy -- each :class:`~repro.image.frame.Frame`'s five planes are
written *once* into a ``multiprocessing.shared_memory`` segment and the
workers receive a small handle (segment name, geometry, generation)
instead of the bytes.

Three cooperating pieces:

* :class:`PlaneStore` -- the parent-side registry.  :meth:`register`
  maps a live frame to a segment, reusing it while the content is
  unchanged and bumping the *generation* (a fresh segment) when the
  frame was mutated between waves.  Segments are released when the
  frame is garbage-collected, superseded, or the store closes.
* the worker-resident cache -- :func:`worker_attach` keeps an LRU of
  attached segments keyed by ``(store token, frame id)``, so the N
  calls of a wave that touch the same frame map it once; a generation
  bump invalidates the cached entry.
* result *slabs* -- the worker-to-parent return path, this model's
  reused output memory (the engine's block_A/block_B OIM).  The store
  owns every slab: :meth:`PlaneStore.lease_slab` hands each job that
  produces a frame a frame-sized segment from a bounded idle list per
  size, the worker writes its result into it through a mapping it
  keeps (:func:`worker_write_slab`), and :meth:`PlaneStore.adopt_slab`
  wraps it as a zero-copy frame.  The slab goes back on the idle list
  once no plane view of that frame is left, and the store unlinks
  every slab when it closes -- a worker that dies mid-wave orphans
  nothing.

Shared memory is the scheduler's only transport.  When the platform
has no ``multiprocessing.shared_memory`` (:data:`SHARED_MEMORY_AVAILABLE`
is False) nothing ships; when a segment operation fails at runtime, the
store flips ``broken`` and the scheduler runs that wave inline in the
parent, then replaces the store with a fresh one.
"""

from __future__ import annotations

import mmap
import os
import uuid
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import (Any, Dict, List, Optional, Protocol, Sequence,
                    Tuple)

import numpy as np

from ..image.formats import ImageFormat
from ..image.frame import Frame, PLANE_DTYPES
from ..image.pixel import ALL_CHANNELS, Channel

try:
    from multiprocessing import shared_memory as _shm
    SHARED_MEMORY_AVAILABLE = True
except ImportError:  # pragma: no cover - py3.8-/platform gaps
    _shm = None  # type: ignore[assignment]
    SHARED_MEMORY_AVAILABLE = False

try:
    import _posixshmem  # the stdlib's own POSIX shm backing
except ImportError:  # pragma: no cover - non-POSIX platforms
    _posixshmem = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Segment payload layout
# ---------------------------------------------------------------------------

def _plane_layout(fmt: ImageFormat
                  ) -> List[Tuple[Channel, int, np.dtype]]:
    """``(channel, byte offset, dtype)`` of each plane in a segment."""
    layout = []
    offset = 0
    for channel in ALL_CHANNELS:
        dtype = np.dtype(PLANE_DTYPES[channel])
        layout.append((channel, offset, dtype))
        offset += fmt.pixels * dtype.itemsize
    return layout


def frame_payload_bytes(fmt: ImageFormat) -> int:
    """Bytes one frame occupies in a segment (7 bytes per pixel: three
    8-bit colour planes plus two 16-bit meta planes)."""
    return fmt.pixels * sum(np.dtype(PLANE_DTYPES[c]).itemsize
                            for c in ALL_CHANNELS)


def _plane_views(base: np.ndarray,
                 fmt: ImageFormat) -> Dict[Channel, np.ndarray]:
    """Zero-copy views of each plane in the segment bytes ``base``.

    Slices of ``base`` (a uint8 array), so every view -- and every
    view a caller derives from one -- has ``base`` as its ``.base``.
    """
    views: Dict[Channel, np.ndarray] = {}
    for channel, offset, dtype in _plane_layout(fmt):
        end = offset + fmt.pixels * dtype.itemsize
        views[channel] = base[offset:end].view(dtype).reshape(
            fmt.height, fmt.width)
    return views


def write_frame(base: np.ndarray, frame: Frame) -> None:
    """Copy every plane of ``frame`` into ``base`` at the layout offsets."""
    for channel, view in _plane_views(base, frame.format).items():
        view[:] = frame.plane(channel)


def read_frame(fmt: ImageFormat, base: np.ndarray,
               writeable: bool = False) -> Frame:
    """Wrap ``base`` as a frame of zero-copy plane views.

    Input frames attach read-only (workers never mutate their inputs);
    adopted results attach writeable so callers can keep using them as
    ordinary frames.
    """
    planes = _plane_views(base, fmt)
    if not writeable:
        for view in planes.values():
            view.flags.writeable = False
    return Frame.from_plane_views(fmt, planes)


def _segment_bytes(segment: Any, nbytes: int) -> np.ndarray:
    """The first ``nbytes`` of ``segment`` as a uint8 array."""
    return np.frombuffer(segment.buf, dtype=np.uint8, count=nbytes)


# ---------------------------------------------------------------------------
# Segment lifecycle helpers
# ---------------------------------------------------------------------------

def _untrack(segment: Any) -> None:
    """Withdraw a created ``segment`` from the resource tracker.

    Before 3.13 *every* ``SharedMemory`` registers itself (bpo-38119),
    so the tracker would unlink segments at exit and warn about
    "leaked" ones this module never leaked.  This module does its own
    refcounted cleanup instead, so a creation is withdrawn immediately
    (and unlinking goes through :func:`_unlink_segment`, which never
    touches the tracker).  Attaches never register at all (see
    :func:`_attach_segment`).
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def _new_segment(nbytes: int) -> Any:
    """Create an untracked segment of ``nbytes``."""
    try:
        return _shm.SharedMemory(create=True, size=nbytes, track=False)
    except TypeError:  # track= appeared in 3.13
        segment = _shm.SharedMemory(create=True, size=nbytes)
        _untrack(segment)
        return segment


def _attach_segment(name: str) -> Any:
    """Map an existing segment read-write; returns the mapping.

    The POSIX name is opened and mapped directly, so an attach sends
    the resource tracker nothing.  ``SharedMemory(name=...)`` would
    register the name before 3.13, and withdrawing it again races: two
    workers attaching one segment at once send REGISTER, REGISTER,
    UNREGISTER, UNREGISTER, and the tracker, which keeps a set of
    names, fails the second UNREGISTER with a ``KeyError`` traceback.
    The mapping unmaps itself once the last array over it dies.
    """
    if _posixshmem is None:  # pragma: no cover - no tracker off POSIX
        segment = _shm.SharedMemory(name=name)
        mapping = segment.buf
        _disarm(segment)
        return mapping
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _attach_bytes(name: str, nbytes: int) -> np.ndarray:
    """The first ``nbytes`` of the existing segment ``name``."""
    return np.frombuffer(_attach_segment(name), dtype=np.uint8,
                         count=nbytes)


def _unlink_segment(segment: Any) -> None:
    """Remove the segment's name, bypassing the tracker.

    ``SharedMemory.unlink()`` also *unregisters* with the resource
    tracker (before 3.13 unconditionally) -- but this module withdrew
    the registration at construction, so that unregister would be
    unmatched and the tracker process logs a ``KeyError``.  Unlink the
    POSIX name directly instead.
    """
    name = getattr(segment, "_name", None)
    if not name:
        return
    if _posixshmem is not None:
        _posixshmem.shm_unlink(name)
    else:  # pragma: no cover - non-POSIX: unlink is a no-op anyway
        segment.unlink()


def _disarm(segment: Any) -> None:
    """Hand the mapping's lifetime to the numpy views derived from it.

    Once plane views exist, ``SharedMemory.close()`` (including the one
    its ``__del__`` retries) would raise ``BufferError`` for as long as
    any view is alive.  Detaching the wrapper instead lets the last
    view drop the mmap, which then closes itself silently -- refcounted
    unmapping, no destructor noise.  ``unlink`` keeps working: it only
    needs the name.
    """
    try:
        segment._buf = None
        segment._mmap = None
    except AttributeError:  # pragma: no cover - unexpected layout
        pass


def _release_segment(segment: Any) -> None:
    """Close and unlink a segment, tolerating exported numpy views: a
    mapping that is still pinned is handed to its views (see
    :func:`_disarm`), while the unlink removes the name at once."""
    observer = _OBSERVER
    if observer is not None:
        observer.segment_released(segment)
    try:
        segment.close()
    except BufferError:
        _disarm(segment)
    except Exception:
        pass
    try:
        _unlink_segment(segment)
    except Exception:
        pass


# ---------------------------------------------------------------------------
# Handles (what actually crosses the process boundary)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameHandle:
    """A registered input frame: ~100 bytes instead of the planes.

    ``token`` names the owning :class:`PlaneStore` (so entries a forked
    worker inherited from a *different* store can never collide) and
    ``generation`` counts content rewrites of the same frame object --
    a worker holding generation N drops its mapping when N+1 arrives.
    """

    token: str
    frame_id: int
    generation: int
    segment_name: str
    format_name: str
    width: int
    height: int

    @property
    def fmt(self) -> ImageFormat:
        return ImageFormat(self.format_name, self.width, self.height)


@dataclass(frozen=True)
class SlabHandle:
    """A parent-owned result slab, leased to one job of a wave.

    The worker writes the job's result frame (``nbytes`` of payload)
    into the segment; the parent then adopts it in place.  ``token``
    names the owning store, as on :class:`FrameHandle`, and ``slab_id``
    is never reused within it -- unlike a segment name, which the OS
    may hand out again once unlinked, so a worker's cached mapping of
    a dead slab can never stand in for a new one.
    """

    token: str
    slab_id: int
    segment_name: str
    nbytes: int


# ---------------------------------------------------------------------------
# Transport observation (the runtime sanitizer's attachment point)
# ---------------------------------------------------------------------------

class TransportObserver(Protocol):
    """What a transport sanitizer sees of the live stack.

    Every method is a fire-and-forget notification from a hook site in
    this module, the scheduler, or the pool; implementations must be
    cheap and must never raise (:mod:`repro.analysis.sanitize` is the
    one implementation).  The hooks are dormant -- a module-global
    ``None`` check -- unless an observer is installed, so production
    runs pay one attribute load per event.
    """

    # scheduler-side wave framing
    def wave_opened(self) -> None: ...

    def wave_closed(self) -> None: ...

    def handle_shipped(self, handle: FrameHandle) -> None: ...

    # store-side segment/handle lifecycle
    def frame_registered(self, token: str, frame_id: int,
                         generation: int) -> None: ...

    def segment_released(self, segment: Any) -> None: ...

    def result_adopted(self, name: str, store_closed: bool) -> None: ...

    # worker-cache residency
    def cache_attach(self, token: str, frame_id: int, generation: int,
                     cached_generation: Optional[int]) -> None: ...

    def cache_evicted(self, token: str, frame_id: int,
                      generation: int) -> None: ...

    # pool-side placement and failover
    def pool_wave(self, worker_id: int, calls: Sequence[Any],
                  results: Sequence[Any]) -> None: ...

    def pool_requeued(self, original: Sequence[Any],
                      requeued: Sequence[Any]) -> None: ...


_OBSERVER: Optional[TransportObserver] = None


def set_transport_observer(observer: Optional[TransportObserver]
                           ) -> Optional[TransportObserver]:
    """Install (or, with ``None``, remove) the process-wide observer.

    Returns the previous observer so callers can restore it.  One
    observer per process: observers are never chained.
    """
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer
    return previous


def get_transport_observer() -> Optional[TransportObserver]:
    return _OBSERVER


# ---------------------------------------------------------------------------
# Parent-side store
# ---------------------------------------------------------------------------

class _StoreEntry:
    __slots__ = ("frame_ref", "segment", "handle", "views")

    def __init__(self, frame_ref: "weakref.ref[Frame]", segment: Any,
                 handle: FrameHandle,
                 views: Dict[Channel, np.ndarray]) -> None:
        self.frame_ref = frame_ref
        self.segment = segment
        self.handle = handle
        #: Parent-side read views of the segment, used to detect
        #: content mutation between waves.
        self.views = views


#: Idle result slabs the store keeps per payload size; a slab returned
#: to a full idle list is unlinked instead.  Covers a CIF wave of the
#: GME slice (47 frame results) with room to spare.
_SLAB_IDLE_CAP: int = 64


class PlaneStore:
    """Parent-side registry mapping live frames to shared segments, and
    owner of the result slabs the workers write into.

    Frames are keyed by object identity; a weakref callback drops the
    segment as soon as the frame is collected, so an input that falls
    out of use never pins its bytes.  Any segment failure flips
    ``broken`` and the store answers ``None`` from then on -- the
    caller's signal to run the wave inline and replace the store.
    """

    def __init__(self) -> None:
        #: Distinguishes this store's handles from any other store's
        #: (including a parent store a forked worker inherited).
        self.token = uuid.uuid4().hex[:12]
        self.broken = not SHARED_MEMORY_AVAILABLE
        self.closed = False
        self.segments_created = 0
        self.generation_bumps = 0
        self.bytes_registered = 0
        self.results_adopted = 0
        self.slabs_created = 0
        self.slabs_reused = 0
        self._entries: Dict[int, _StoreEntry] = {}
        self._next_frame_id = 0
        #: Every slab the store owns, leased or idle, by slab id.
        self._slabs: Dict[int, Any] = {}
        #: Idle slabs per payload size, most recently returned last.
        self._idle_slabs: Dict[int, List[SlabHandle]] = {}

    # -- registration ------------------------------------------------------

    def register(self, frame: Frame) -> Optional[FrameHandle]:
        """The handle for ``frame``, writing its planes at most once.

        Re-registering an unchanged frame returns the existing handle;
        a mutated frame gets a new segment under a bumped generation.
        ``None`` means shared memory is unavailable or broke: the frame
        cannot ship.
        """
        if self.broken or self.closed:
            return None
        key = id(frame)
        entry = self._entries.get(key)
        if entry is not None and entry.frame_ref() is frame:
            if self._content_matches(entry, frame):
                return self._registered(entry.handle)
            return self._registered(self._rewrite(key, entry, frame))
        if entry is not None:
            # id() reuse after a missed weakref callback: start over.
            self._drop(key)
        return self._registered(self._create(key, frame))

    @staticmethod
    def _registered(handle: Optional[FrameHandle]
                    ) -> Optional[FrameHandle]:
        observer = _OBSERVER
        if observer is not None and handle is not None:
            observer.frame_registered(handle.token, handle.frame_id,
                                      handle.generation)
        return handle

    @staticmethod
    def _content_matches(entry: _StoreEntry, frame: Frame) -> bool:
        return all(np.array_equal(frame.plane(channel),
                                  entry.views[channel])
                   for channel in ALL_CHANNELS)

    @staticmethod
    def _views(segment: Any,
               fmt: ImageFormat) -> Dict[Channel, np.ndarray]:
        return _plane_views(
            _segment_bytes(segment, frame_payload_bytes(fmt)), fmt)

    def _write_segment(self, frame: Frame) -> Any:
        """A fresh segment holding ``frame``'s planes, or ``None``."""
        nbytes = frame_payload_bytes(frame.format)
        try:
            segment = _new_segment(nbytes)
            write_frame(_segment_bytes(segment, nbytes), frame)
        except Exception:
            self.broken = True
            return None
        self.segments_created += 1
        self.bytes_registered += nbytes
        return segment

    def _create(self, key: int, frame: Frame) -> Optional[FrameHandle]:
        segment = self._write_segment(frame)
        if segment is None:
            return None
        fmt = frame.format
        frame_id = self._next_frame_id
        self._next_frame_id += 1
        handle = FrameHandle(self.token, frame_id, 0, segment.name,
                             fmt.name, fmt.width, fmt.height)
        views = self._views(segment, fmt)
        _disarm(segment)
        self._entries[key] = _StoreEntry(
            weakref.ref(frame, lambda _ref, key=key: self._drop(key)),
            segment, handle, views)
        return handle

    def _rewrite(self, key: int, entry: _StoreEntry,
                 frame: Frame) -> Optional[FrameHandle]:
        """Generation bump: the frame was mutated since registration."""
        segment = self._write_segment(frame)
        if segment is None:
            self._drop(key)
            return None
        fmt = frame.format
        old = entry.handle
        entry.views = {}
        _release_segment(entry.segment)
        entry.segment = segment
        entry.handle = FrameHandle(self.token, old.frame_id,
                                   old.generation + 1, segment.name,
                                   fmt.name, fmt.width, fmt.height)
        entry.views = self._views(segment, fmt)
        _disarm(segment)
        self.generation_bumps += 1
        return entry.handle

    def _drop(self, key: int) -> None:
        entry = self._entries.pop(key, None)
        if entry is None or self.closed:
            return
        entry.views = {}
        _release_segment(entry.segment)

    # -- result slabs ------------------------------------------------------

    def lease_slab(self, fmt: ImageFormat) -> Optional[SlabHandle]:
        """A slab for one ``fmt`` result frame, leased to one job.

        Reuses an idle slab of the same payload size when there is one
        and creates a segment otherwise.  ``None`` means shared memory
        is unavailable or broke: the call cannot ship.
        """
        if self.broken or self.closed:
            return None
        nbytes = frame_payload_bytes(fmt)
        idle = self._idle_slabs.get(nbytes)
        if idle:
            self.slabs_reused += 1
            return idle.pop()
        try:
            segment = _new_segment(nbytes)
        except OSError:
            self.broken = True
            return None
        slab_id = self.slabs_created  # counts creations: never repeats
        self._slabs[slab_id] = segment
        self.slabs_created += 1
        return SlabHandle(self.token, slab_id, segment.name, nbytes)

    def adopt_slab(self, slab: SlabHandle,
                   fmt: ImageFormat) -> Optional[Frame]:
        """Wrap the result a worker wrote into ``slab`` as a zero-copy
        frame.

        Each adoption gets its own base array over the slab, and numpy
        makes that array the ``.base`` of every view derived from the
        frame's planes; the slab goes back on the idle list when the
        base array dies, i.e. once no such view is left.  ``None`` (the
        store has closed and released the slab) tells the caller to
        recompute the call inline.
        """
        observer = _OBSERVER
        if observer is not None:
            observer.result_adopted(slab.segment_name, self.closed)
        segment = self._slabs.get(slab.slab_id)
        if segment is None:
            return None
        base = _segment_bytes(segment, slab.nbytes)
        frame = read_frame(fmt, base, writeable=True)
        weakref.finalize(base, self.recycle_slab, slab)
        self.results_adopted += 1
        return frame

    def recycle_slab(self, slab: SlabHandle) -> None:
        """Return a leased slab: onto its idle list, or -- when that
        list is full -- unlinked.  A no-op once the store has closed."""
        if slab.slab_id not in self._slabs:
            return
        idle = self._idle_slabs.setdefault(slab.nbytes, [])
        if len(idle) < _SLAB_IDLE_CAP:
            idle.append(slab)
            return
        segment = self._slabs.pop(slab.slab_id, None)
        if segment is not None:
            _release_segment(segment)

    # -- books and lifecycle -----------------------------------------------

    @property
    def segments_active(self) -> int:
        return len(self._entries)

    def active_segment_names(self) -> List[str]:
        """Every segment the store owns: registered frames and slabs."""
        return ([entry.handle.segment_name
                 for entry in self._entries.values()]
                + [segment.name for segment in self._slabs.values()])

    def stats(self) -> Dict[str, object]:
        return {
            "segments_created": self.segments_created,
            "segments_active": self.segments_active,
            "generation_bumps": self.generation_bumps,
            "bytes_registered": self.bytes_registered,
            "results_adopted": self.results_adopted,
            "slabs_created": self.slabs_created,
            "slabs_reused": self.slabs_reused,
            "broken": self.broken,
        }

    def close(self) -> None:
        """Release every live segment and slab (idempotent, safe at
        exit).  Adopted frames keep their bytes: a slab still viewed
        is unlinked now and unmapped with its last view."""
        if self.closed:
            return
        self.closed = True
        entries, self._entries = self._entries, {}
        slabs, self._slabs = self._slabs, {}
        self._idle_slabs = {}
        for entry in entries.values():
            entry.views = {}
            _release_segment(entry.segment)
        for segment in slabs.values():
            _release_segment(segment)


# ---------------------------------------------------------------------------
# Worker-side cache
# ---------------------------------------------------------------------------

#: Attached input frames, keyed by ``(store token, frame id)``.  The
#: frames' plane views own their mappings (:func:`_disarm`), so evicting
#: an entry is just dropping it -- the mmap unmaps with the last view.
_WORKER_CACHE: "OrderedDict[Tuple[str, int], Tuple[int, Frame]]" \
    = OrderedDict()
_WORKER_CACHE_CAP: int = 128

#: Mapped result slabs, keyed by ``(store token, slab id)``: the uint8
#: bytes of each, which own the mapping as the input frames' views do.
#: Which worker a group lands on is up to the pool, so each worker ends
#: up mapping every slab in circulation; the cap matches the store's
#: idle list (:data:`_SLAB_IDLE_CAP`).
_WORKER_SLABS: "OrderedDict[Tuple[str, int], np.ndarray]" = OrderedDict()
_WORKER_SLAB_CAP: int = 64


def worker_cache_capacity() -> int:
    return _WORKER_CACHE_CAP


def set_worker_cache_capacity(capacity: int) -> int:
    """Resize the worker cache; returns the previous capacity.

    Shrinking evicts LRU entries immediately (with observer
    notifications, so the sanitizer's eviction horizon stays exact).
    """
    global _WORKER_CACHE_CAP
    if capacity < 1:
        raise ValueError(f"cache capacity must be >= 1, got {capacity}")
    previous = _WORKER_CACHE_CAP
    _WORKER_CACHE_CAP = capacity
    _trim_worker_cache()
    return previous


def _trim_worker_cache() -> None:
    observer = _OBSERVER
    while len(_WORKER_CACHE) > _WORKER_CACHE_CAP:
        (token, frame_id), (generation, _frame) = \
            _WORKER_CACHE.popitem(last=False)
        if observer is not None:
            observer.cache_evicted(token, frame_id, generation)


def reset_worker_cache() -> None:
    """Pool-worker initializer: forget entries inherited over fork().

    Inherited mappings belong to the parent's address-space snapshot;
    they are dropped without closing (the arrays pinning them were
    forked too, and shared pages cost nothing until written).
    """
    _WORKER_CACHE.clear()
    _WORKER_SLABS.clear()


def worker_attach(handle: FrameHandle) -> Tuple[Frame, bool]:
    """The worker-resident frame for ``handle``; ``(frame, cache hit)``.

    Same token/frame id/generation: the cached frame (the segment is
    mapped exactly once per worker however many calls touch it).  A
    bumped generation drops the stale mapping and attaches the new
    segment.
    """
    key = (handle.token, handle.frame_id)
    cached = _WORKER_CACHE.get(key)
    observer = _OBSERVER
    if observer is not None:
        # Notified before the attach is attempted: a stale-generation
        # read must be observable even if the old segment is gone and
        # the attach below raises.
        observer.cache_attach(handle.token, handle.frame_id,
                              handle.generation,
                              cached[0] if cached is not None else None)
    if cached is not None:
        generation, frame = cached
        if generation == handle.generation:
            _WORKER_CACHE.move_to_end(key)
            return frame, True
        del _WORKER_CACHE[key]
    fmt = handle.fmt
    frame = read_frame(fmt, _attach_bytes(handle.segment_name,
                                          frame_payload_bytes(fmt)))
    _WORKER_CACHE[key] = (handle.generation, frame)
    _trim_worker_cache()
    return frame, False


def worker_cache_size() -> int:
    return len(_WORKER_CACHE)


def worker_write_slab(slab: SlabHandle, frame: Frame) -> bool:
    """Write a result frame into its leased slab; ``False`` means the
    slab cannot take it (a payload of another size, or a slab the
    parent already unlinked): the parent runs the call inline instead.

    The slab is mapped once per worker and kept in an LRU, so a
    recycled slab costs one copy of the planes and nothing else.
    """
    if frame_payload_bytes(frame.format) != slab.nbytes:
        return False
    key = (slab.token, slab.slab_id)
    base = _WORKER_SLABS.get(key)
    if base is None:
        try:
            base = _attach_bytes(slab.segment_name, slab.nbytes)
        except OSError:
            return False
        _WORKER_SLABS[key] = base
        while len(_WORKER_SLABS) > _WORKER_SLAB_CAP:
            _WORKER_SLABS.popitem(last=False)
    else:
        _WORKER_SLABS.move_to_end(key)
    write_frame(base, frame)
    return True
