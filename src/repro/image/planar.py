"""Planar 4:2:0 frame store: the software baseline's view of an image.

The AddressLib *software* solution that Table 2 compares against stores
frames the way the MPEG-7 XM code does: separate planes per channel, with
U and V subsampled 4:2:0 (quarter resolution).  Every channel element the
software touches is one memory access -- channels are loaded sequentially,
whereas the coprocessor fetches whole neighbourhoods (all channels, all
banks) in parallel.  That asymmetry is exactly what Table 2 measures.

This module provides:

* :class:`AccessCounter` -- read/write tallies per channel,
* :class:`PlanarFrame420` -- the counted planar frame store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .formats import ImageFormat
from .frame import Frame
from .pixel import ALL_CHANNELS, Channel

#: Channels stored at quarter resolution in the 4:2:0 layout.
SUBSAMPLED_CHANNELS = (Channel.U, Channel.V)


@dataclass
class AccessCounter:
    """Tallies of element reads and writes, split by channel."""

    reads: Dict[Channel, int] = field(
        default_factory=lambda: {c: 0 for c in ALL_CHANNELS})
    writes: Dict[Channel, int] = field(
        default_factory=lambda: {c: 0 for c in ALL_CHANNELS})

    def count_read(self, channel: Channel, n: int = 1) -> None:
        self.reads[channel] += n

    def count_write(self, channel: Channel, n: int = 1) -> None:
        self.writes[channel] += n

    # -- bulk (analytic) crediting ------------------------------------------

    def credit_reads(self, channel: Channel, n: int) -> None:
        """Bulk-credit ``n`` element reads in one step.

        The strip-vectorized counted executor computes whole strips with
        numpy and credits the reads the per-pixel walk *would* have made
        analytically (closed-form serpentine counts); crediting is the
        only difference from :meth:`count_read` -- the tallies land in
        the same per-channel buckets.
        """
        if n < 0:
            raise ValueError(f"cannot credit {n} reads")
        self.reads[channel] += n

    def credit_writes(self, channel: Channel, n: int) -> None:
        """Bulk-credit ``n`` element writes in one step."""
        if n < 0:
            raise ValueError(f"cannot credit {n} writes")
        self.writes[channel] += n

    @property
    def total_reads(self) -> int:
        return sum(self.reads.values())

    @property
    def total_writes(self) -> int:
        return sum(self.writes.values())

    @property
    def total(self) -> int:
        """Total memory access operations (reads + writes)."""
        return self.total_reads + self.total_writes

    def reset(self) -> None:
        for channel in ALL_CHANNELS:
            self.reads[channel] = 0
            self.writes[channel] = 0

    def snapshot(self) -> Dict[str, int]:
        """A flat summary suitable for report tables."""
        result = {"total": self.total,
                  "reads": self.total_reads,
                  "writes": self.total_writes}
        for channel in ALL_CHANNELS:
            result[f"reads_{channel.name}"] = self.reads[channel]
            result[f"writes_{channel.name}"] = self.writes[channel]
        return result


class PlanarFrame420:
    """A frame stored as separate planes with 4:2:0 chroma subsampling.

    Y, Alfa and Aux are full resolution; U and V are stored at half
    resolution in both dimensions and addressed through ``(x // 2, y // 2)``.
    All element accesses route through :meth:`read` / :meth:`write` so a
    shared :class:`AccessCounter` can observe the software access pattern.
    """

    def __init__(self, fmt: ImageFormat,
                 counter: Optional[AccessCounter] = None) -> None:
        self.format = fmt
        self.counter = counter if counter is not None else AccessCounter()
        half_w = -(-fmt.width // 2)
        half_h = -(-fmt.height // 2)
        self._planes: Dict[Channel, np.ndarray] = {
            Channel.Y: np.zeros((fmt.height, fmt.width), dtype=np.uint8),
            Channel.U: np.zeros((half_h, half_w), dtype=np.uint8),
            Channel.V: np.zeros((half_h, half_w), dtype=np.uint8),
            Channel.ALFA: np.zeros((fmt.height, fmt.width), dtype=np.uint16),
            Channel.AUX: np.zeros((fmt.height, fmt.width), dtype=np.uint16),
        }

    @property
    def width(self) -> int:
        return self.format.width

    @property
    def height(self) -> int:
        return self.format.height

    def plane(self, channel: Channel) -> np.ndarray:
        """Raw (uncounted) plane access; use for bulk setup only."""
        return self._planes[channel]

    def _coords(self, channel: Channel, x: int, y: int) -> Tuple[int, int]:
        if not self.format.contains(x, y):
            raise IndexError(
                f"pixel ({x}, {y}) outside {self.width}x{self.height}")
        if channel in SUBSAMPLED_CHANNELS:
            return y // 2, x // 2
        return y, x

    # -- counted element access ---------------------------------------------

    def read(self, channel: Channel, x: int, y: int) -> int:
        """Counted read of one channel element at full-resolution
        ``(x, y)``."""
        row, col = self._coords(channel, x, y)
        self.counter.count_read(channel)
        return int(self._planes[channel][row, col])

    def write(self, channel: Channel, x: int, y: int, value: int) -> None:
        """Counted write of one channel element at full-resolution
        ``(x, y)``."""
        row, col = self._coords(channel, x, y)
        self.counter.count_write(channel)
        self._planes[channel][row, col] = value

    def plane_view(self, channel: Channel, *, reads: int = 0,
                   writes: int = 0) -> np.ndarray:
        """Counted bulk access to one plane, at the plane's own resolution.

        Returns the raw plane array after crediting ``reads`` /
        ``writes`` element accesses to the counter.  This is the strip
        executor's doorway: it touches the plane with bulk numpy
        operations while the counter records the accesses the per-pixel
        walk would have performed (credited analytically, per strip).
        """
        self.counter.credit_reads(channel, reads)
        self.counter.credit_writes(channel, writes)
        return self._planes[channel]

    def read_clamped(self, channel: Channel, x: int, y: int) -> int:
        """Counted read with coordinates clamped to the frame border.

        The AddressLib software handles frame borders by clamping (border
        pixels replicate outward); a clamped read still costs one access.
        """
        cx = min(max(x, 0), self.width - 1)
        cy = min(max(y, 0), self.height - 1)
        return self.read(channel, cx, cy)

    # -- conversions ----------------------------------------------------------

    @classmethod
    def from_frame(cls, frame: Frame,
                   counter: Optional[AccessCounter] = None
                   ) -> "PlanarFrame420":
        """Build from a packed :class:`Frame`, decimating chroma 2:1.

        Chroma uses simple top-left-of-quad decimation, matching the way
        MPEG-1 CIF source material (already 4:2:0) round-trips losslessly.
        Conversion is bulk setup and is not counted.
        """
        planar = cls(frame.format, counter)
        read = frame.read_plane
        planar._planes[Channel.Y][:] = read(Channel.Y)
        planar._planes[Channel.U][:] = read(Channel.U)[::2, ::2]
        planar._planes[Channel.V][:] = read(Channel.V)[::2, ::2]
        planar._planes[Channel.ALFA][:] = read(Channel.ALFA)
        planar._planes[Channel.AUX][:] = read(Channel.AUX)
        return planar

    def to_frame(self) -> Frame:
        """Expand back to a packed :class:`Frame` (chroma replicated 2x2)."""
        frame = Frame(self.format)
        frame.y[:] = self._planes[Channel.Y]
        up_u = np.repeat(np.repeat(self._planes[Channel.U], 2, axis=0),
                         2, axis=1)
        up_v = np.repeat(np.repeat(self._planes[Channel.V], 2, axis=0),
                         2, axis=1)
        frame.u[:] = up_u[:self.height, :self.width]
        frame.v[:] = up_v[:self.height, :self.width]
        frame.alfa[:] = self._planes[Channel.ALFA]
        frame.aux[:] = self._planes[Channel.AUX]
        return frame

    def __repr__(self) -> str:
        return (f"PlanarFrame420({self.format.name}, "
                f"{self.width}x{self.height}, accesses={self.counter.total})")
