"""Packed frame store: the engine-side view of an image.

A :class:`Frame` holds the five AddressEngine channels at full resolution
(the packed 64-bit-per-pixel layout of the ZBT memory).  This is the
representation the coprocessor works with; the host-side software baseline
uses the planar 4:2:0 layout in :mod:`repro.image.planar` instead.

Coordinates are ``(x, y)`` with ``x`` the column and ``y`` the row, matching
the paper's scan terminology; the backing numpy arrays are indexed
``[row, column]``.
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

    A frame may *share* planes: read-only views of a snapshot that
    nothing writes again.  The call scheduler's results share the
    planes their op leaves untouched with their input's plane-store
    snapshot, and a registered input that alone holds its planes shares
    all five with its own snapshot, its private planes freed
    (:meth:`share_snapshot`).  The frame records which channels it
    shares, and :meth:`plane` copies a shared plane the first time it
    is asked for -- copy on write -- so every public accessor hands out
    the frame's own plane.  Library code that only reads uses
    :meth:`read_plane`, which never copies.
    """

    #: The channels whose plane is a shared snapshot view (none unless
    #: the frame was built with some, see :meth:`from_plane_views`).
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
        first request, so writing it reaches neither the snapshot nor
        any other frame sharing it -- and the next registration of a
        registered frame sees that the plane is no longer its
        snapshot's, and compares it.  A plane held from here is an
        alias: while it lives, the frame keeps its planes private.
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
        """The channels whose plane is still a shared snapshot view."""
        return self._shared

    def share_snapshot(self, views: Mapping[Channel, np.ndarray]) -> bool:
        """Take ``views`` -- read-only snapshot views holding exactly
        this frame's content -- as all five planes, shared, and free the
        frame's own; ``True`` when it did.

        Only a frame that alone holds its planes does: its plane dict
        and each plane it does not share are referenced by the frame and
        nothing else, and each such plane owns its memory.  Anything
        else -- a held ``frame.y``, a row view, a memoryview, a plane
        viewing a larger buffer, a plane dict another frame wraps too --
        could write the planes behind the frame's back, so the frame
        keeps them.  References are counted as ``ndarray.resize`` counts
        them, against the counts of a fresh frame's (calibrated once, as
        interpreters differ in what ``sys.getrefcount`` reports).
        """
        dict_refs, *plane_refs = self._reference_counts()
        if dict_refs != _DICT_ALONE or any(refs != _PLANE_ALONE
                                           for refs in plane_refs):
            return False
        self._planes = dict(views)
        self._shared = _EVERY_CHANNEL
        return True

    def _reference_counts(self) -> List[int]:
        """``sys.getrefcount`` of the plane dict, then of each plane
        the frame does not share (0 for one not owning its memory)."""
        planes = self._planes
        counts = [sys.getrefcount(planes)]
        for channel in ALL_CHANNELS:
            if channel not in self._shared:
                plane = planes[channel]
                counts.append(sys.getrefcount(plane)
                              if plane.flags.owndata else 0)
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
        read-only snapshot views the frame shares: :meth:`plane` copies
        each before handing it out.
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
        itself, such as the vector executor's wave results.
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
