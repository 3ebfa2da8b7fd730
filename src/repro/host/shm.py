"""Shared-memory transport between the scheduler and its workers.

The paper's host moves each call's input over the PCI bus by DMA into
on-board memory that is built once -- the ZBT banks and the IIM -- and
sends only what the call reads; the board design (strip jobs,
block_A/block_B double buffering, interrupt batching) exists to keep
that bus off the critical path, and section 4.3 observes the penalty
when it is not ("the host accessed the board after every call to the
AddressLib").  The scheduler's parent<->worker boundary has the same
structure: a frame pickled down a worker's pipe would be this model's
PCI transfer, and pickling frames was once the measured wall-clock
limiter.  This module is the DMA engine of that analogy.  A
:class:`PlaneStore` in the parent owns every POSIX shared-memory
segment the workers read or write, of two kinds:

* one *input region* per worker, its input banks.  For each run the
  parent copies every distinct plane the run's calls read -- each
  input's computed channels, nothing else -- into the worker's region,
  64-byte aligned (:meth:`PlaneStore.write_region`), and the job list
  carries the planes' offsets.  The region is reused wave after wave
  and replaced by a larger one only when a run needs more room.  The
  worker maps it read-only, again only when its name changes
  (:func:`worker_region`), and builds each input over the views of the
  planes its call reads (:func:`worker_frame`).  The bytes are the
  input's as they were when the run shipped, so nothing the parent
  does to a frame afterwards reaches a run in flight, and the parent
  rewrites a region only once its worker's reply is read or the worker
  is stopped.
* result *slabs* -- the workers' reused output memory (the engine's
  block_A/block_B OIM).  :meth:`PlaneStore.lease_slab` hands each
  worker call that produces a frame a frame-sized segment from a
  bounded idle list per size; the worker computes the planes its op
  computes straight into the slab's plane views through a mapping it
  keeps (:func:`worker_result_frame`), and :meth:`PlaneStore.adopt_slab`
  hands the parent zero-copy views of those planes.  The result is the
  call's first input passed through with them
  (:meth:`~repro.image.frame.Frame.pass_through`), the one constructor
  of every frame result, serial or scheduled: its untouched planes are
  the input's, lent read-only and copied only if someone asks to write
  them (:meth:`~repro.image.frame.Frame.plane`).  A computed plane is
  written once, as the board writes it once from its OIM into a ZBT
  result bank, and an untouched one is never written into a slab.  The
  slab goes back on the idle list once no view of its planes is left
  -- recycling only ever takes back a slab this store has on lease,
  once -- and the store unlinks every slab when it closes: a worker
  that dies mid-wave orphans nothing.

A region's lifetime is its worker's: the scheduler releases it when it
stops the worker.  Segments are created, mapped and unlinked with the
POSIX primitives ``multiprocessing.shared_memory`` itself uses, so the
resource tracker never hears of them: this module does its own
refcounted cleanup.  A store that is never closed still releases its
segments when it is collected or the interpreter exits (a
``weakref.finalize`` holding only their names), and each segment's name
carries the pid namespace and pid of the process that created it, so a
new store unlinks the segments of any store of its namespace whose
process died without either -- killed by SIGTERM or SIGKILL -- before
it makes its own.

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
from typing import (Any, Collection, Dict, List, Optional, Protocol,
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


#: Where each plane of an input region starts: a multiple of this many
#: bytes (a cache line), so no two planes share a line.
_ALIGN = 64


def _plane_at(base: np.ndarray, offset: int, fmt: ImageFormat,
              channel: Channel) -> np.ndarray:
    """A zero-copy view of the ``channel`` plane of a ``fmt`` frame at
    ``offset`` of the segment bytes ``base`` (a uint8 array), writeable
    where ``base`` is.  Numpy makes ``base`` the ``.base`` of the view
    and of every view a caller derives from it."""
    return np.ndarray((fmt.height, fmt.width), PLANE_DTYPES[channel],
                      base, offset)


def _plane_views(base: np.ndarray, fmt: ImageFormat,
                 channels: Collection[Channel] = ALL_CHANNELS
                 ) -> Dict[Channel, np.ndarray]:
    """Zero-copy views of the ``channels`` planes of the ``fmt`` frame
    a slab's bytes ``base`` hold, the five planes laid out one after
    another."""
    views: Dict[Channel, np.ndarray] = {}
    offset = 0
    for channel, dtype in _PLANES:
        if channel in channels:
            views[channel] = _plane_at(base, offset, fmt, channel)
        offset += fmt.pixels * dtype.itemsize
    return views


def _segment_bytes(segment: _Segment, nbytes: int) -> np.ndarray:
    """The first ``nbytes`` of ``segment`` as a uint8 array."""
    return np.frombuffer(segment.buf, dtype=np.uint8, count=nbytes)


# ---------------------------------------------------------------------------
# Segment lifecycle helpers
# ---------------------------------------------------------------------------

class _Segment:
    """A segment this module created: its name, size and read-write
    mapping.

    ``close()`` unmaps at once, or raises ``BufferError`` while numpy
    arrays still view the mapping; :func:`_disarm` then hands the
    mapping to those arrays, and the last one to die unmaps it.
    """

    __slots__ = ("name", "nbytes", "buf", "__weakref__")

    def __init__(self, name: str, buf: mmap.mmap) -> None:
        self.name = name
        self.nbytes = len(buf)
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


def _attach_segment(name: str,
                    access: int = mmap.ACCESS_DEFAULT) -> mmap.mmap:
    """Map an existing segment, read-write unless ``access`` says
    otherwise; returns the mapping.

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
        return mmap.mmap(fd, os.fstat(fd).st_size, access=access)
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
# Slab handles (what crosses the process boundary for a result)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlabHandle:
    """A parent-owned result slab, leased to one job of a wave.

    The worker writes the job's computed planes into the segment (its
    ``nbytes`` of payload hold a whole frame); the parent then adopts
    them in place.  ``token`` names the owning :class:`PlaneStore` (so
    slabs a forked worker mapped for a *different* store can never
    collide), and ``slab_id`` is never reused within it -- unlike a
    segment name, which the OS may hand out again once unlinked, so a
    worker's cached mapping of a dead slab can never stand in for a new
    one.
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
    this module, the driver's bank model, or the pool; implementations
    must be cheap and must never raise (:mod:`repro.analysis.sanitize`
    is the one implementation).  The hooks are dormant -- a
    module-global ``None`` check -- unless an observer is installed, so
    production runs pay one attribute load per event.
    """

    # store-side segment lifecycle
    def segment_released(self, segment: Any) -> None: ...

    def result_adopted(self, name: str, store_closed: bool) -> None: ...

    # bank residency (the driver's FrameResidencyCache)
    def cache_attach(self, token: str, frame_id: int,
                     resident: bool) -> None: ...

    def cache_evicted(self, token: str, frame_id: int) -> None: ...

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

#: Idle result slabs the store keeps per payload size; a slab returned
#: to a full idle list is unlinked instead.  Covers a CIF wave of the
#: GME slice (48 frame results) with room to spare.
_SLAB_IDLE_CAP: int = 64


class PlaneStore:
    """Parent-side owner of every segment the workers read and write:
    one input region per worker and the result slabs.

    Any segment failure flips ``broken`` and the store answers ``None``
    from then on -- the caller's signal to run the wave inline and
    replace the store.  A new store first unlinks the segments of
    stores whose process died without closing them
    (:func:`_sweep_dead_owners`), and a store dropped or left open at
    exit unlinks its own (:func:`_unlink_names`).
    """

    def __init__(self) -> None:
        #: Distinguishes this store's slabs from any other store's
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
        #: Input regions created (each replacement counts again).
        self.segments_created = 0
        self.results_adopted = 0
        self.slabs_created = 0
        self.slabs_reused = 0
        #: Each worker's input region, by the key the caller names the
        #: worker with.
        self._regions: Dict[int, _Segment] = {}
        #: Every slab the store owns, leased or idle, by slab id.
        self._slabs: Dict[int, _Segment] = {}
        #: The ids of the slabs leased and not yet recycled.
        self._leased: Set[int] = set()
        #: Idle slabs per payload size, most recently returned last.
        self._idle_slabs: Dict[int, List[SlabHandle]] = {}

    def _new_segment(self, nbytes: int) -> _Segment:
        """A fresh segment the store owns."""
        segment = _new_segment(nbytes)
        self._names.add(segment.name)
        return segment

    def _release(self, segment: _Segment) -> None:
        self._names.discard(segment.name)
        _release_segment(segment)

    # -- input regions -----------------------------------------------------

    def write_region(self, key: int, planes: Sequence[np.ndarray]
                     ) -> Optional[Tuple[str, List[int]]]:
        """Copy ``planes`` into the input region of the worker ``key``,
        each at its own 64-byte aligned offset; returns the region's
        name and the offsets, in order.

        The worker keeps its region from one run to the next.  When the
        planes do not fit, a region of twice the old size -- or the
        size they need, if that is more -- replaces it, and the old one
        is unlinked.  ``None`` means shared memory is unavailable or
        broke: the run cannot ship.  The caller writes a region only
        while its worker reads none of it (its last reply is read).
        """
        if self.broken or self.closed:
            return None
        offsets: List[int] = []
        end = 0
        for plane in planes:
            offsets.append(end)
            end += -(-plane.nbytes // _ALIGN) * _ALIGN
        region = self._regions.get(key)
        if region is None or region.nbytes < end:
            try:
                grown = self._new_segment(
                    end if region is None else max(end, 2 * region.nbytes))
            except OSError:
                self.broken = True
                return None
            self.segments_created += 1
            if region is not None:
                self._release(region)
            self._regions[key] = region = grown
        base = _segment_bytes(region, end)
        for plane, offset in zip(planes, offsets):
            np.ndarray(plane.shape, plane.dtype, base, offset)[...] = plane
        return region.name, offsets

    def release_region(self, key: int) -> None:
        """Unlink the input region of the worker ``key``, which is
        stopped (a no-op when it has none)."""
        region = self._regions.pop(key, None)
        if region is not None:
            self._release(region)

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
            slab = idle.pop()
        else:
            try:
                segment = self._new_segment(nbytes)
            except OSError:
                self.broken = True
                return None
            slab_id = self.slabs_created  # counts creations: never repeats
            self._slabs[slab_id] = segment
            self.slabs_created += 1
            slab = SlabHandle(self.token, slab_id, segment.name, nbytes)
        self._leased.add(slab.slab_id)
        return slab

    def adopt_slab(self, slab: SlabHandle, fmt: ImageFormat,
                   channels: Collection[Channel]
                   ) -> Optional[Dict[Channel, np.ndarray]]:
        """The ``channels`` planes of the ``fmt`` result written into
        ``slab``, as zero-copy views: a call's computed planes, which
        its first input's :meth:`~repro.image.frame.Frame.pass_through`
        makes a result.

        Each adoption gets its own base array over the slab, and numpy
        makes that array the ``.base`` of every view derived from the
        planes; the slab goes back on the idle list when the base array
        dies, i.e. once no such view is left.  ``None`` (the store has
        closed and released the slab) tells the caller to recompute
        the call inline.
        """
        observer = _OBSERVER
        if observer is not None:
            observer.result_adopted(slab.segment_name, self.closed)
        segment = self._slabs.get(slab.slab_id)
        if segment is None:
            return None
        base = _segment_bytes(segment, slab.nbytes)
        views = _plane_views(base, fmt, channels)
        weakref.finalize(base, self.recycle_slab, slab)
        self.results_adopted += 1
        return views

    def recycle_slab(self, slab: SlabHandle) -> None:
        """Return a slab this store leased: onto its idle list, or --
        when that list is full -- unlinked.  A no-op for a slab that is
        not on lease from this store: one recycled already, another
        store's, or any once the store has closed."""
        if slab.token != self.token or slab.slab_id not in self._leased:
            return
        self._leased.discard(slab.slab_id)
        idle = self._idle_slabs.setdefault(slab.nbytes, [])
        if len(idle) < _SLAB_IDLE_CAP:
            idle.append(slab)
        else:
            self._release(self._slabs.pop(slab.slab_id))

    # -- books and lifecycle -----------------------------------------------

    def active_segment_names(self) -> List[str]:
        """Every segment the store owns: input regions and slabs."""
        return ([region.name for region in self._regions.values()]
                + [segment.name for segment in self._slabs.values()])

    def stats(self) -> Dict[str, object]:
        return {
            "segments_created": self.segments_created,
            "results_adopted": self.results_adopted,
            "slabs_created": self.slabs_created,
            "slabs_reused": self.slabs_reused,
            "broken": self.broken,
        }

    def close(self) -> None:
        """Release every input region and slab (idempotent, safe at
        exit).  Adopted frames keep their bytes: a slab still viewed
        is unlinked now and unmapped with its last view."""
        if self.closed:
            return
        self.closed = True
        segments = list(self._regions.values()) + list(self._slabs.values())
        self._regions, self._slabs = {}, {}
        self._idle_slabs = {}
        self._leased = set()
        for segment in segments:
            self._release(segment)
        self._finalizer()  # nothing is left to unlink; disarms it


# ---------------------------------------------------------------------------
# Worker side: what a worker maps, kept by its own loop
# ---------------------------------------------------------------------------

#: Result slabs one worker keeps mapped.  Which worker a run lands on is
#: up to the cut, so each worker ends up mapping every slab in
#: circulation; the cap matches the store's idle list
#: (:data:`_SLAB_IDLE_CAP`).
_WORKER_SLAB_CAP: int = 64

#: A worker's mapped result slabs, an LRU keyed by ``(store token,
#: slab id)``: the bytes of each slab, which own its mapping, and the
#: writeable frame over them that the worker computes into.
WorkerSlabs = OrderedDict[Tuple[str, int], Tuple[np.ndarray, Frame]]


def worker_region(name: str) -> np.ndarray:
    """Map the input region ``name`` read-only: its bytes, which own
    the mapping (it unmaps with the last view of them)."""
    return np.frombuffer(_attach_segment(name, mmap.ACCESS_READ),
                         dtype=np.uint8)


def worker_frame(region: np.ndarray, fmt: ImageFormat,
                 channels: Sequence[Channel],
                 offsets: Sequence[int]) -> Frame:
    """A ``fmt`` input over the ``channels`` planes at ``offsets`` of a
    worker's mapped ``region``: read-only views, and the only planes of
    the frame -- the call it is built for reads no other."""
    return Frame.of_planes(fmt, {
        channel: _plane_at(region, offset, fmt, channel)
        for channel, offset in zip(channels, offsets)})


def worker_result_frame(slabs: WorkerSlabs, slab: SlabHandle,
                        fmt: ImageFormat) -> Optional[Frame]:
    """The leased ``slab`` as a writeable ``fmt`` frame of plane views,
    for a worker to compute its result straight into; ``None`` means
    the slab cannot take it (a payload of another size, or a slab the
    parent already unlinked): the parent runs the call inline instead.

    The worker keeps each slab it maps in its ``slabs``, with the
    frame over it, so a recycled slab costs no system call and, leased
    again for the same format, no new frame: the worker only ever
    writes the computed planes of that frame in place.
    """
    if frame_payload_bytes(fmt) != slab.nbytes:
        return None
    key = (slab.token, slab.slab_id)
    cached = slabs.get(key)
    frame: Optional[Frame] = None
    if cached is None:
        try:
            base = _attach_bytes(slab.segment_name, slab.nbytes)
        except OSError:
            return None
    else:
        slabs.move_to_end(key)
        base, frame = cached
    if frame is None or frame.format != fmt:
        frame = Frame.from_plane_views(fmt, _plane_views(base, fmt))
        slabs[key] = (base, frame)
        while len(slabs) > _WORKER_SLAB_CAP:
            slabs.popitem(last=False)
    return frame
