"""Zero-copy frame transport between the scheduler and its workers.

The paper's host moves every frame over the PCI bus by DMA, and the
board design (strip jobs, block_A/block_B double buffering, interrupt
batching) exists to keep that bus off the critical path; section 4.3
observes the penalty when it is not ("the host accessed the board after
every call to the AddressLib").  The scheduler's parent<->worker
boundary has exactly the same structure: a frame pickled down the
pipe to a worker process would be this model's PCI transfer, and
pickling frames was once the measured wall-clock limiter.  This module
is the DMA engine of that analogy -- each
:class:`~repro.image.frame.Frame`'s five planes are written *once* into
a POSIX shared-memory segment, and the job list the scheduler sends
down a worker's pipe carries a small handle (segment name, geometry,
generation) instead of the bytes.

Three cooperating pieces:

* :class:`PlaneStore` -- the parent-side registry.  :meth:`register`
  maps a live frame to a segment, reusing it while the content is
  unchanged and bumping the *generation* (a fresh segment) when the
  frame was mutated between waves, so a segment is never written
  after its registration.  Its read-only plane views, built once per
  registration, are the frame's *snapshot* (:meth:`PlaneStore.snapshot`).
  A frame then lives in its segment, as a frame stays in the board's
  ZBT banks across calls: it takes the snapshot views as the planes it
  alone holds or shares already -- the one ownership rule of
  :class:`~repro.image.frame.Frame`, which also lends every serial
  result its input's untouched planes -- shared copy on write, and
  frees its own (:meth:`~repro.image.frame.Frame.share_snapshot`),
  so re-registering a frame that shares all five is an identity check
  that reads no pixel.  A write through any accessor copies a plane
  first, so the next registration compares that plane; a plane with
  an outside alias (a held plane, a row view, a memoryview, a plane
  over a larger buffer, or every plane of a plane dict shared with
  another frame) stays the frame's own and is compared at every
  registration, while the frame's other planes take each new
  snapshot.  Segments are released when the frame is
  garbage-collected, superseded, or the store closes; a frame still
  sharing the views keeps their mapping.
* the worker-resident cache -- :func:`worker_attach` keeps an LRU of
  attached segments keyed by ``(store token, frame id)``, so the N
  calls of a wave that touch the same frame map it once; a generation
  bump invalidates the cached entry.
* result *slabs* -- the scheduler's reused output memory (the
  engine's block_A/block_B OIM).  The store owns every slab:
  :meth:`PlaneStore.lease_slab` hands each call that produces a frame
  a frame-sized segment from a bounded idle list per size; a worker
  computes the planes its op computes straight into the slab's plane
  views through a mapping it keeps (:func:`worker_result_frame`), and
  :meth:`PlaneStore.adopt_slab` wraps the slab as a zero-copy frame --
  which the parent also computes its own calls' results into -- whose
  untouched planes are the first input's snapshot, shared read-only
  and copied only if someone asks to write them
  (:meth:`~repro.image.frame.Frame.plane`).  A computed plane is
  written once, as the board writes it once from its OIM into a ZBT
  result bank, and an untouched one is never written into a slab.
  The slab goes back on the idle list once no plane view of that frame
  is left, and the store unlinks every slab when it closes -- a worker
  that dies mid-wave orphans nothing.

Segments are created, mapped and unlinked with the POSIX primitives
``multiprocessing.shared_memory`` itself uses, so the resource tracker
never hears of them: this module does its own refcounted cleanup.  A
store that is never closed still releases its segments when it is
collected or the interpreter exits (a ``weakref.finalize`` holding only
their names), and each segment's name carries the pid namespace and
pid of the process that created it, so a new store unlinks the
segments of any store of its namespace whose process died without
either -- killed by SIGTERM or SIGKILL -- before it makes its own.

Shared memory is the scheduler's only transport.  Where the platform
has no POSIX shared memory (:data:`SHARED_MEMORY_AVAILABLE` is False)
nothing ships; when a segment operation fails at runtime, the store
flips ``broken`` and the scheduler runs that wave's shipped calls
inline in the parent, then replaces the store with a fresh one.
"""

from __future__ import annotations

import mmap
import os
import re
import secrets
import uuid
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import (Any, Collection, Dict, List, Mapping, Optional, Protocol,
                    Sequence, Set, Tuple)

import numpy as np

from ..image.formats import ImageFormat
from ..image.frame import Frame, PLANE_DTYPES
from ..image.pixel import ALL_CHANNELS, Channel

try:
    import _posixshmem  # the stdlib's own POSIX shm backing
    SHARED_MEMORY_AVAILABLE = True
except ImportError:  # pragma: no cover - non-POSIX platforms
    _posixshmem = None  # type: ignore[assignment]
    SHARED_MEMORY_AVAILABLE = False

#: Segment names start like ``multiprocessing.shared_memory``'s, so a
#: leak check over ``/dev/shm`` sees this module's segments too.
_NAME_PREFIX = "psm_"

#: This module's segment names: the prefix, the creating process's pid
#: namespace and pid, and ten hex digits (``multiprocessing``'s own
#: names have neither).
_OWNED_NAME = re.compile(_NAME_PREFIX + r"(\d+)_(\d+)_[0-9a-f]{10}\Z")

#: Where the platform lists its POSIX shared-memory names (Linux).
_SHM_DIR = "/dev/shm"


def _pid_namespace() -> int:
    """This process's pid namespace (its inode; 0 when the platform
    does not say).  A pid names a process only inside its namespace,
    and containers sharing ``/dev/shm`` may each have their own."""
    try:
        return os.stat("/proc/self/ns/pid").st_ino
    except OSError:
        return 0


#: The pid namespace this module's segment names carry.
_PID_NAMESPACE = _pid_namespace()


# ---------------------------------------------------------------------------
# Segment payload layout
# ---------------------------------------------------------------------------

#: Each plane's channel and dtype, in segment order.
_PLANES: Tuple[Tuple[Channel, np.dtype], ...] = tuple(
    (channel, np.dtype(PLANE_DTYPES[channel])) for channel in ALL_CHANNELS)


def frame_payload_bytes(fmt: ImageFormat) -> int:
    """Bytes one frame occupies in a segment (7 bytes per pixel: three
    8-bit colour planes plus two 16-bit meta planes)."""
    return fmt.pixels * sum(dtype.itemsize for _, dtype in _PLANES)


def _plane_views(base: np.ndarray, fmt: ImageFormat,
                 skip: Collection[Channel] = ()
                 ) -> Dict[Channel, np.ndarray]:
    """Zero-copy views of each plane in the segment bytes ``base``,
    but the ``skip`` channels'.

    Slices of ``base`` (a uint8 array), so every view -- and every
    view a caller derives from one -- has ``base`` as its ``.base``.
    """
    views: Dict[Channel, np.ndarray] = {}
    shape = (fmt.height, fmt.width)
    offset = 0
    for channel, dtype in _PLANES:
        end = offset + fmt.pixels * dtype.itemsize
        if channel not in skip:
            views[channel] = base[offset:end].view(dtype).reshape(shape)
        offset = end
    return views


def write_frame(base: np.ndarray, frame: Frame) -> None:
    """Copy every plane of ``frame`` into ``base`` at the layout offsets."""
    for channel, view in _plane_views(base, frame.format).items():
        view[:] = frame.read_plane(channel)


def read_frame(fmt: ImageFormat, base: np.ndarray,
               writeable: bool = False) -> Frame:
    """Wrap ``base`` as a frame of zero-copy plane views.

    Input frames attach read-only (workers never mutate their inputs);
    a worker's result slab attaches writeable, for the kernel to write
    its computed planes into.
    """
    planes = _plane_views(base, fmt)
    if not writeable:
        for view in planes.values():
            view.flags.writeable = False
    return Frame.from_plane_views(fmt, planes)


def _segment_bytes(segment: _Segment, nbytes: int) -> np.ndarray:
    """The first ``nbytes`` of ``segment`` as a uint8 array."""
    return np.frombuffer(segment.buf, dtype=np.uint8, count=nbytes)


# ---------------------------------------------------------------------------
# Segment lifecycle helpers
# ---------------------------------------------------------------------------

class _Segment:
    """A segment this module created: its name and read-write mapping.

    ``close()`` unmaps at once, or raises ``BufferError`` while numpy
    arrays still view the mapping; :func:`_disarm` then hands the
    mapping to those arrays, and the last one to die unmaps it.
    """

    __slots__ = ("name", "buf", "__weakref__")

    def __init__(self, name: str, buf: mmap.mmap) -> None:
        self.name = name
        self.buf: Optional[mmap.mmap] = buf

    def close(self) -> None:
        if self.buf is not None:
            self.buf.close()
            self.buf = None


def _new_segment(nbytes: int) -> _Segment:
    """Create and map a segment of ``nbytes`` under a fresh name that
    carries this process's pid namespace and pid (see
    :func:`_sweep_dead_owners`).

    ``O_EXCL`` makes a name collision fail instead of sharing another
    segment; a fresh name is drawn then.  Nothing registers with the
    resource tracker (``SharedMemory(create=True)`` would, before
    3.13, and withdrawing the registration cost more than the rest of
    the creation).
    """
    while True:
        name = (f"{_NAME_PREFIX}{_PID_NAMESPACE}_{os.getpid()}_"
                f"{secrets.token_hex(5)}")
        try:
            fd = _posixshmem.shm_open(
                "/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600)
        except FileExistsError:
            continue
        break
    try:
        os.ftruncate(fd, nbytes)
        return _Segment(name, mmap.mmap(fd, nbytes))
    except BaseException:
        _posixshmem.shm_unlink("/" + name)
        raise
    finally:
        os.close(fd)


def _attach_segment(name: str) -> mmap.mmap:
    """Map an existing segment read-write; returns the mapping.

    The POSIX name is opened and mapped directly, so an attach sends
    the resource tracker nothing.  ``SharedMemory(name=...)`` would
    register the name before 3.13, and withdrawing it again races: two
    workers attaching one segment at once send REGISTER, REGISTER,
    UNREGISTER, UNREGISTER, and the tracker, which keeps a set of
    names, fails the second UNREGISTER with a ``KeyError`` traceback.
    The mapping unmaps itself once the last array over it dies.
    """
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _attach_bytes(name: str, nbytes: int) -> np.ndarray:
    """The first ``nbytes`` of the existing segment ``name``."""
    return np.frombuffer(_attach_segment(name), dtype=np.uint8,
                         count=nbytes)


def _disarm(segment: _Segment) -> None:
    """Hand the mapping's lifetime to the numpy views derived from it.

    Once plane views exist, closing the mapping would raise
    ``BufferError`` for as long as any view is alive.  Dropping the
    segment's reference instead lets the last view drop the mmap,
    which then closes itself silently -- refcounted unmapping, no
    destructor noise.  Unlinking keeps working: it only needs the name.
    """
    segment.buf = None


def _unlink_names(owner: int, names: Set[str]) -> None:
    """Unlink the segments a store still owns when it is collected or
    the interpreter exits unclosed.  Only in the creating process: a
    forked worker holding a copy of the store leaves them alone."""
    if os.getpid() != owner:
        return
    for name in names:
        try:
            _posixshmem.shm_unlink("/" + name)
        except OSError:
            pass
    names.clear()


def _process_exists(pid: int) -> bool:
    """Whether ``pid`` names a live (or unreaped) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # it exists, under another user
    return True


def _sweep_dead_owners() -> None:
    """Unlink every segment of this module whose creating process is
    gone.

    A store releases its segments on ``close()``, on collection and at
    interpreter exit -- but not when its process is killed.  Each name
    carries its creator's pid namespace and pid (:func:`_new_segment`),
    so the next store made in that namespace reclaims them.  A pid
    only names a process inside its own namespace, so names from any
    other namespace (a container sharing the directory) are left alone,
    as is everything when this process cannot tell its namespace.  One
    directory listing per store, and one existence probe per distinct
    pid found; a platform that lists no names sweeps nothing.
    """
    if not _PID_NAMESPACE:
        return
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return
    exists: Dict[int, bool] = {}
    for name in names:
        match = _OWNED_NAME.match(name)
        if match is None or int(match.group(1)) != _PID_NAMESPACE:
            continue
        pid = int(match.group(2))
        if pid not in exists:
            exists[pid] = pid <= 0 or _process_exists(pid)
        if not exists[pid]:
            try:
                _posixshmem.shm_unlink("/" + name)
            except OSError:
                pass


def _release_segment(segment: _Segment) -> None:
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
    try:
        _posixshmem.shm_unlink("/" + segment.name)
    except OSError:
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

def _same_values(plane: np.ndarray, view: np.ndarray) -> bool:
    """Whether a frame plane still holds what its segment view holds.

    Both are integer planes of one shape and dtype, so equal values are
    equal bytes: C-contiguous planes compare as 8-byte words (plus the
    odd tail bytes), eight bytes a step; any other layout compares
    elementwise.
    """
    if not (plane.flags.c_contiguous and view.flags.c_contiguous):
        return bool(np.array_equal(plane, view))
    ours = plane.reshape(-1).view(np.uint8)
    theirs = view.reshape(-1).view(np.uint8)
    if ours.size != theirs.size:
        return False
    words = ours.size - ours.size % 8
    return bool(np.array_equal(ours[:words].view(np.uint64),
                               theirs[:words].view(np.uint64))
                and np.array_equal(ours[words:], theirs[words:]))


class _StoreEntry:
    __slots__ = ("frame_ref", "segment", "handle", "views")

    def __init__(self, frame_ref: "weakref.ref[Frame]", segment: _Segment,
                 handle: FrameHandle,
                 views: Dict[Channel, np.ndarray]) -> None:
        self.frame_ref = frame_ref
        self.segment = segment
        self.handle = handle
        #: Read-only views of the segment's planes: the frame's content
        #: as registered (its snapshot).  The frame holds these views as
        #: the planes it may share, so a plane that is still its view is
        #: unchanged; any other plane is compared against its view to
        #: detect a mutation between waves.
        self.views = views


#: Idle result slabs the store keeps per payload size; a slab returned
#: to a full idle list is unlinked instead.  Covers a CIF wave of the
#: GME slice (48 frame results) with room to spare.
_SLAB_IDLE_CAP: int = 64


class PlaneStore:
    """Parent-side registry mapping live frames to shared segments, and
    owner of the result slabs the workers write into.

    Frames are keyed by object identity; a weakref callback drops the
    segment as soon as the frame is collected, so an input that falls
    out of use never pins its bytes.  Any segment failure flips
    ``broken`` and the store answers ``None`` from then on -- the
    caller's signal to run the wave inline and replace the store.

    A new store first unlinks the segments of stores whose process died
    without closing them (:func:`_sweep_dead_owners`), and a store
    dropped or left open at exit unlinks its own (:func:`_unlink_names`).
    """

    def __init__(self) -> None:
        #: Distinguishes this store's handles from any other store's
        #: (including a parent store a forked worker inherited).
        self.token = uuid.uuid4().hex[:12]
        self.broken = not SHARED_MEMORY_AVAILABLE
        self.closed = False
        self._owner = os.getpid()
        #: Names of every segment the store owns right now.
        self._names: Set[str] = set()
        self._finalizer = weakref.finalize(self, _unlink_names, self._owner,
                                           self._names)
        if SHARED_MEMORY_AVAILABLE:
            _sweep_dead_owners()
        self.segments_created = 0
        self.generation_bumps = 0
        self.bytes_registered = 0
        self.results_adopted = 0
        self.slabs_created = 0
        self.slabs_reused = 0
        self._entries: Dict[int, _StoreEntry] = {}
        self._next_frame_id = 0
        #: Every slab the store owns, leased or idle, by slab id.
        self._slabs: Dict[int, _Segment] = {}
        #: Idle slabs per payload size, most recently returned last.
        self._idle_slabs: Dict[int, List[SlabHandle]] = {}

    # -- registration ------------------------------------------------------

    def register(self, frame: Frame) -> Optional[FrameHandle]:
        """The handle for ``frame``, writing its planes at most once.

        Re-registering an unchanged frame returns the existing handle;
        a mutated frame gets a new segment under a bumped generation.
        A frame takes the registration's snapshot views as the planes
        it may share (the segment's memory is then the frame's), so
        re-registering it reads no pixel while every plane is still
        its view; a plane ``plane()`` copied since, or a plane with an
        outside alias, is compared with the snapshot, and a frame that
        matches shares it again.
        ``None`` means shared memory is unavailable or broke: the frame
        cannot ship.
        """
        if self.broken or self.closed:
            return None
        key = id(frame)
        entry = self._entries.get(key)
        if entry is not None and entry.frame_ref() is frame:
            views = entry.views
            if all(frame.read_plane(channel) is views[channel]
                   for channel in ALL_CHANNELS):
                return self._registered(entry.handle)  # it is its snapshot
            if self._content_matches(entry, frame):
                frame.share_snapshot(views)
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
        """Whether ``frame`` still holds its snapshot: a plane that is
        its snapshot view matches by identity, unread; any other plane
        (copied by ``plane()``, or the frame never shared) is compared."""
        views = entry.views
        return all(frame.read_plane(channel) is views[channel]
                   or _same_values(frame.read_plane(channel),
                                   views[channel])
                   for channel in ALL_CHANNELS)

    @staticmethod
    def _views(segment: _Segment,
               fmt: ImageFormat) -> Dict[Channel, np.ndarray]:
        views = _plane_views(
            _segment_bytes(segment, frame_payload_bytes(fmt)), fmt)
        for view in views.values():
            view.flags.writeable = False
        return views

    def snapshot(self, frame: Frame) -> Optional[Mapping[Channel,
                                                         np.ndarray]]:
        """``frame``'s planes as it was last registered: read-only views
        of its segment, which nothing writes again (a mutated frame
        gets a new segment) -- the planes the frame shares from its
        registration on, and the untouched planes of its scheduled
        results.  ``None`` when ``frame`` is not registered.
        """
        entry = self._entries.get(id(frame))
        if entry is None or entry.frame_ref() is not frame:
            return None
        return entry.views

    def _write_segment(self, frame: Frame) -> Optional[_Segment]:
        """A fresh segment holding ``frame``'s planes, or ``None``."""
        nbytes = frame_payload_bytes(frame.format)
        try:
            segment = self._new_segment(nbytes)
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
        frame.share_snapshot(views)
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
        self._release(entry.segment)
        entry.segment = segment
        entry.handle = FrameHandle(self.token, old.frame_id,
                                   old.generation + 1, segment.name,
                                   fmt.name, fmt.width, fmt.height)
        entry.views = self._views(segment, fmt)
        _disarm(segment)
        frame.share_snapshot(entry.views)
        self.generation_bumps += 1
        return entry.handle

    def _drop(self, key: int) -> None:
        entry = self._entries.pop(key, None)
        if entry is None or self.closed:
            return
        entry.views = {}
        self._release(entry.segment)

    def _new_segment(self, nbytes: int) -> _Segment:
        """A fresh segment the store owns."""
        segment = _new_segment(nbytes)
        self._names.add(segment.name)
        return segment

    def _release(self, segment: _Segment) -> None:
        self._names.discard(segment.name)
        _release_segment(segment)

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
            segment = self._new_segment(nbytes)
        except OSError:
            self.broken = True
            return None
        slab_id = self.slabs_created  # counts creations: never repeats
        self._slabs[slab_id] = segment
        self.slabs_created += 1
        return SlabHandle(self.token, slab_id, segment.name, nbytes)

    def adopt_slab(self, slab: SlabHandle, fmt: ImageFormat,
                   shared: Optional[Mapping[Channel, np.ndarray]] = None
                   ) -> Optional[Frame]:
        """Wrap the result written into ``slab`` as a zero-copy frame,
        with the ``shared`` planes (read-only snapshot views, see
        :meth:`snapshot`) in place of the slab's for their channels.

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
        planes = _plane_views(base, fmt, shared or ())
        if shared:
            planes.update(shared)
        frame = Frame.from_plane_views(fmt, planes, shared or ())
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
            self._release(segment)

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
            self._release(entry.segment)
        for segment in slabs.values():
            self._release(segment)
        self._finalizer()  # nothing is left to unlink; disarms it


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
#: bytes of each, which own the mapping as the input frames' views do,
#: and the writeable frame over them that the worker computes into.
#: Which worker a run lands on is up to the cut, so each worker ends
#: up mapping every slab in circulation; the cap matches the store's
#: idle list (:data:`_SLAB_IDLE_CAP`).
_WORKER_SLABS: "OrderedDict[Tuple[str, int], Tuple[np.ndarray, Frame]]" \
    = OrderedDict()
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


def worker_result_frame(slab: SlabHandle,
                        fmt: ImageFormat) -> Optional[Frame]:
    """The leased ``slab`` as a writeable ``fmt`` frame of plane views,
    for a worker to compute its result straight into; ``None`` means
    the slab cannot take it (a payload of another size, or a slab the
    parent already unlinked): the parent runs the call inline instead.

    The slab is mapped once per worker and kept in an LRU with the
    frame over it, so a recycled slab costs no system call and, leased
    again for the same format, no new frame: the worker only ever
    writes the computed planes of that frame in place.
    """
    if frame_payload_bytes(fmt) != slab.nbytes:
        return None
    key = (slab.token, slab.slab_id)
    cached = _WORKER_SLABS.get(key)
    frame: Optional[Frame] = None
    if cached is None:
        try:
            base = _attach_bytes(slab.segment_name, slab.nbytes)
        except OSError:
            return None
    else:
        _WORKER_SLABS.move_to_end(key)
        base, frame = cached
    if frame is None or frame.format != fmt:
        frame = read_frame(fmt, base, writeable=True)
        _WORKER_SLABS[key] = (base, frame)
        while len(_WORKER_SLABS) > _WORKER_SLAB_CAP:
            _WORKER_SLABS.popitem(last=False)
    return frame
