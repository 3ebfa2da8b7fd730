"""Packed frame store: the engine-side view of an image.

A :class:`Frame` holds the five AddressEngine channels at full resolution
(the packed 64-bit-per-pixel layout of the ZBT memory).  This is the
representation the coprocessor works with; the host-side software baseline
uses the planar 4:2:0 layout in :mod:`repro.image.planar` instead.

Coordinates are ``(x, y)`` with ``x`` the column and ``y`` the row, matching
the paper's scan terminology; the backing numpy arrays are indexed
``[row, column]``.

Every call result is built one way, as the Process Unit passes the
channels a call leaves untouched through in the same ZBT word:
:meth:`Frame.pass_through` on the call's first input, with the planes
the call computed -- fresh planes on the serial path, a worker's
result-slab views on the call scheduler's.
"""

from __future__ import annotations

import sys
from typing import (Collection, Dict, FrozenSet, Iterator, List, Mapping,
                    Tuple)

import numpy as np

from .formats import STRIP_LINES, ImageFormat
from .pixel import ALL_CHANNELS, Channel, Pixel

#: The numpy dtype of each channel plane (8-bit colour, 16-bit Alfa/Aux).
PLANE_DTYPES = {
    Channel.Y: np.uint8,
    Channel.U: np.uint8,
    Channel.V: np.uint8,
    Channel.ALFA: np.uint16,
    Channel.AUX: np.uint16,
}


class Frame:
    """A full-resolution five-channel frame in the engine's packed layout.

    A frame may *share* planes: read-only arrays that several frames
    hold and nothing writes again.  A call's result shares the planes
    its op leaves untouched with its first input (:meth:`pass_through`,
    the software form of the Process Unit's channel pass-through), and
    a registered input shares its planes with its plane-store snapshot
    (:meth:`share_snapshot`), its private ones freed.  One rule decides
    which planes a frame may share (:meth:`_sharable`): the planes it
    shares already, and each plane it alone holds -- nothing outside
    the frame could write it behind the frame's back.  The frame
    records which channels it shares, and :meth:`plane` copies a
    shared plane the first time it is asked for -- copy on write -- so
    every public accessor hands out the frame's own plane.  Library
    code that only reads uses :meth:`read_plane`, which never copies.
    """

    #: The channels whose plane is shared: read-only, and copied by
    #: :meth:`plane` before it is handed out (none for a new frame).
    _shared: FrozenSet[Channel] = frozenset()

    def __init__(self, fmt: ImageFormat) -> None:
        self.format = fmt
        self._planes = {
            channel: np.zeros((fmt.height, fmt.width),
                              dtype=PLANE_DTYPES[channel])
            for channel in ALL_CHANNELS
        }

    # -- basic geometry -----------------------------------------------------

    @property
    def width(self) -> int:
        return self.format.width

    @property
    def height(self) -> int:
        return self.format.height

    @property
    def pixels(self) -> int:
        return self.format.pixels

    # -- channel access -----------------------------------------------------

    def plane(self, channel: Channel) -> np.ndarray:
        """The full-resolution plane of ``channel`` (mutable view).

        Always the frame's own array: a shared plane is copied on the
        first request, so writing it reaches no other frame sharing it
        -- an input, its results, a plane-store snapshot -- and the
        next registration of a registered frame sees that the plane is
        no longer its snapshot's, and compares it.  A plane held from
        here is an alias: while it lives, the frame shares it with
        nothing.
        """
        if channel in self._shared:
            self._planes[channel] = self._planes[channel].copy()
            self._shared = self._shared - {channel}
        return self._planes[channel]

    def read_plane(self, channel: Channel) -> np.ndarray:
        """The plane of ``channel`` for reading only: never copied, so a
        shared plane comes back as its read-only snapshot view.  For
        library code that reads a frame; a caller that may write asks
        :meth:`plane`."""
        return self._planes[channel]

    @property
    def shared_channels(self) -> FrozenSet[Channel]:
        """The channels whose plane is still shared."""
        return self._shared

    def pass_through(self, computed: Dict[Channel, np.ndarray]) -> "Frame":
        """The result of a call on this frame that computed the
        ``computed`` planes (each of the format's shape and its
        channel's dtype, taken unchecked and uncopied): those planes,
        plus this frame's other planes.

        Each other plane this frame may share (:meth:`_sharable`) is
        lent: the frame and the result both hold it read-only, marked
        shared, so a write on either side copies it first
        (:meth:`plane`).  A plane the frame shares already is lent as
        it is; a plane something else holds is copied.
        """
        lent = _EVERY_CHANNEL.difference(computed)
        if not lent <= self._shared:
            lent &= self._shared | self._sharable()
            for channel in lent - self._shared:
                self._planes[channel].flags.writeable = False
            self._shared |= lent
        planes = self._planes
        result = Frame.of_planes(self.format, {
            channel: computed[channel] if channel in computed
            else planes[channel] if channel in lent
            else planes[channel].copy()
            for channel in ALL_CHANNELS})
        result._shared = lent
        return result

    def share_snapshot(self, views: Mapping[Channel, np.ndarray]) -> None:
        """Take ``views`` -- read-only snapshot views holding exactly
        this frame's content -- as the planes of every channel the
        frame may share (:meth:`_sharable`), marked shared, and free
        the frame's own planes of those channels.  A plane something
        else holds stays the frame's own, and a registration compares
        it."""
        sharable = self._sharable()
        planes = self._planes
        for channel in sharable:
            planes[channel] = views[channel]
        self._shared |= sharable

    def _sharable(self) -> FrozenSet[Channel]:
        """The channels whose plane the frame may share with another
        holder: none unless the frame alone holds its plane dict, and
        then each channel it shares already and each whose plane that
        dict alone holds and that owns its memory.

        Anything else -- a held ``frame.y``, a row view, a memoryview,
        a plane viewing a larger buffer, a plane dict another frame
        wraps too -- could write the plane behind the frame's back.
        References are counted as ``ndarray.resize`` counts them,
        against the counts of a fresh frame's (calibrated once, as
        interpreters differ in what ``sys.getrefcount`` reports).
        """
        dict_refs, *plane_refs = self._reference_counts()
        if dict_refs != _DICT_ALONE:
            return frozenset()
        return self._shared.union([
            channel for channel, refs in zip(ALL_CHANNELS, plane_refs)
            if refs == _PLANE_ALONE])

    def _reference_counts(self) -> List[int]:
        """``sys.getrefcount`` of the plane dict, then of each plane
        (0 for one the frame shares or one not owning its memory)."""
        planes = self._planes
        counts = [sys.getrefcount(planes)]
        for channel in ALL_CHANNELS:
            plane = planes[channel]
            counts.append(sys.getrefcount(plane)
                          if plane.flags.owndata
                          and channel not in self._shared else 0)
        return counts

    @property
    def y(self) -> np.ndarray:
        return self.plane(Channel.Y)

    @property
    def u(self) -> np.ndarray:
        return self.plane(Channel.U)

    @property
    def v(self) -> np.ndarray:
        return self.plane(Channel.V)

    @property
    def alfa(self) -> np.ndarray:
        return self.plane(Channel.ALFA)

    @property
    def aux(self) -> np.ndarray:
        return self.plane(Channel.AUX)

    # -- pixel access -------------------------------------------------------

    def get_pixel(self, x: int, y: int) -> Pixel:
        """Read the pixel at column ``x``, row ``y``."""
        self._check_coords(x, y)
        return Pixel(*(int(self._planes[c][y, x]) for c in ALL_CHANNELS))

    def set_pixel(self, x: int, y: int, pixel: Pixel) -> None:
        """Write ``pixel`` at column ``x``, row ``y``."""
        self._check_coords(x, y)
        for channel in ALL_CHANNELS:
            self.plane(channel)[y, x] = pixel.get(channel)

    def _check_coords(self, x: int, y: int) -> None:
        if not self.format.contains(x, y):
            raise IndexError(
                f"pixel ({x}, {y}) outside {self.format.name} frame "
                f"{self.width}x{self.height}")

    # -- ZBT word view ------------------------------------------------------

    def to_words(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pack into ``(lower, upper)`` uint32 planes of ZBT words.

        The lower word carries Y|U|V (bits 0-23), the upper word
        Alfa|Aux -- exactly the split the engine stores in sibling ZBT
        banks so one pixel is reachable in a single memory cycle.
        """
        planes = self._planes
        lower = (planes[Channel.Y].astype(np.uint32)
                 | (planes[Channel.U].astype(np.uint32) << 8)
                 | (planes[Channel.V].astype(np.uint32) << 16))
        upper = (planes[Channel.ALFA].astype(np.uint32)
                 | (planes[Channel.AUX].astype(np.uint32) << 16))
        return lower, upper

    @classmethod
    def from_plane_views(cls, fmt: ImageFormat,
                         planes: Mapping[Channel, np.ndarray],
                         shared: Collection[Channel] = ()) -> "Frame":
        """Wrap existing arrays as a frame without copying.

        The arrays become the frame's planes directly -- the caller is
        responsible for keeping their backing buffers alive (this is the
        zero-copy attach path of the shared-memory transport).  Each
        plane must already have the format's shape and the channel's
        canonical dtype.  The planes of the ``shared`` channels are
        read-only planes the frame shares (a luma frame's neutral
        planes): :meth:`plane` copies each before handing it out.
        """
        frame = cls.__new__(cls)
        frame.format = fmt
        expected = (fmt.height, fmt.width)
        views = {}
        for channel in ALL_CHANNELS:
            plane = planes[channel]
            if plane.shape != expected:
                raise ValueError(
                    f"{channel.name} plane must be {expected}, "
                    f"got {plane.shape}")
            if plane.dtype != PLANE_DTYPES[channel]:
                raise ValueError(
                    f"{channel.name} plane must be "
                    f"{np.dtype(PLANE_DTYPES[channel]).name}, "
                    f"got {plane.dtype}")
            views[channel] = plane
        frame._planes = views
        if shared:
            frame._shared = frozenset(shared)
        return frame

    @classmethod
    def of_planes(cls, fmt: ImageFormat,
                  planes: Dict[Channel, np.ndarray]) -> "Frame":
        """Wrap ``planes`` (one per channel, each already of the
        format's shape and the channel's dtype) as a frame, unchecked
        and uncopied: the constructor of code that built the planes
        itself, such as :meth:`pass_through`.
        """
        frame = cls.__new__(cls)
        frame.format = fmt
        frame._planes = planes
        return frame

    @classmethod
    def from_words(cls, fmt: ImageFormat, lower: np.ndarray,
                   upper: np.ndarray) -> "Frame":
        """Rebuild a frame from its lower/upper ZBT word planes."""
        expected = (fmt.height, fmt.width)
        if lower.shape != expected or upper.shape != expected:
            raise ValueError(
                f"word planes must be {expected}, got "
                f"{lower.shape} / {upper.shape}")
        frame = cls(fmt)
        frame.y[:] = lower & 0xFF
        frame.u[:] = (lower >> 8) & 0xFF
        frame.v[:] = (lower >> 16) & 0xFF
        frame.alfa[:] = upper & 0xFFFF
        frame.aux[:] = (upper >> 16) & 0xFFFF
        return frame

    # -- strips (PCI transfer granularity) ----------------------------------

    def strip_bounds(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(first_row, last_row_exclusive)`` for each 16-line strip."""
        for top in range(0, self.height, STRIP_LINES):
            yield top, min(top + STRIP_LINES, self.height)

    def strip(self, index: int) -> "Frame":
        """Extract strip ``index`` as a standalone (copied) frame."""
        bounds = list(self.strip_bounds())
        if not 0 <= index < len(bounds):
            raise IndexError(f"strip {index} outside 0..{len(bounds) - 1}")
        top, bottom = bounds[index]
        sub = Frame(ImageFormat(f"{self.format.name}-strip",
                                self.width, bottom - top))
        for channel in ALL_CHANNELS:
            sub.plane(channel)[:] = self._planes[channel][top:bottom]
        return sub

    # -- utility ------------------------------------------------------------

    def copy(self) -> "Frame":
        """Deep copy of all five planes."""
        duplicate = Frame(self.format)
        for channel in ALL_CHANNELS:
            duplicate.plane(channel)[:] = self._planes[channel]
        return duplicate

    def fill(self, pixel: Pixel) -> None:
        """Set every pixel of the frame to ``pixel``."""
        for channel in ALL_CHANNELS:
            self.plane(channel)[:] = pixel.get(channel)

    def equals(self, other: "Frame") -> bool:
        """Exact equality of all five planes."""
        return (self.format.width == other.format.width
                and self.format.height == other.format.height
                and all(np.array_equal(self._planes[c], other._planes[c])
                        for c in ALL_CHANNELS))

    def __repr__(self) -> str:
        return f"Frame({self.format.name}, {self.width}x{self.height})"


_EVERY_CHANNEL: FrozenSet[Channel] = frozenset(ALL_CHANNELS)

#: What :meth:`Frame._reference_counts` reads for a plane dict and a
#: plane held by their frame alone: a fresh frame's, measured here.
_DICT_ALONE, _PLANE_ALONE = Frame(
    ImageFormat("alone", 1, 1))._reference_counts()[:2]
