"""The four AddressLib pixel addressing schemes (paper section 2.1).

* **Inter** addressing: one result per pixel position computed from two
  frames (difference pictures, SAD, ...).
* **Intra** addressing: one result per pixel from the pixel and its
  neighbourhood within the same frame (FIR-like filters, gradients,
  morphology).
* **Segment** addressing: expansion over arbitrarily shaped segments --
  start pixels are processed first, then unprocessed neighbours that meet
  a neighbourhood criterion join, so pixels are visited in order of
  geodesic distance (implemented in :mod:`repro.addresslib.segment`).
* **Segment-indexed** addressing: indexed side-table access used alongside
  one of the other schemes (implemented in :mod:`repro.addresslib.indexed`).

This module defines the vocabulary shared by all of them: addressing-mode
tags, neighbourhood shapes (including the paper's CON_0 / CON_8 names from
Table 2), and the frame scan orders that determine strip orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Tuple

from ..image.formats import ImageFormat

#: The paper's hard limit: "the maximum range of input data required to
#: process one pixel is nine lines" (section 3.1) -- neighbourhoods may not
#: span more than nine lines, which is why the strip/IIM size is sixteen.
MAX_NEIGHBOURHOOD_LINES = 9


class AddressingMode(Enum):
    """The four AddressLib addressing schemes."""

    INTER = "inter"
    INTRA = "intra"
    SEGMENT = "segment"
    SEGMENT_INDEXED = "segment_indexed"

    @property
    def engine_supported_v1(self) -> bool:
        """Whether the first AddressEngine prototype supports this mode.

        Section 3: the v1 hardware implements only the inter and intra
        modes; segment addressing is future work.
        """
        return self in (AddressingMode.INTER, AddressingMode.INTRA)


class ScanOrder(Enum):
    """Frame scan orders; strips are transferred parallel to the scan."""

    HORIZONTAL = "horizontal"   # row-major raster, left-to-right
    VERTICAL = "vertical"       # column-major, top-to-bottom


@dataclass(frozen=True)
class Neighbourhood:
    """A set of pixel offsets around the centre pixel.

    Offsets are ``(dx, dy)`` with ``dy`` down the frame.  The centre
    ``(0, 0)`` is always included.
    """

    name: str
    offsets: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if (0, 0) not in self.offsets:
            raise ValueError(f"neighbourhood {self.name} must contain (0, 0)")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError(
                f"neighbourhood {self.name} has duplicate offsets")
        if self.line_span > MAX_NEIGHBOURHOOD_LINES:
            raise ValueError(
                f"neighbourhood {self.name} spans {self.line_span} lines; "
                f"AddressLib limits input range to "
                f"{MAX_NEIGHBOURHOOD_LINES} lines")

    @property
    def size(self) -> int:
        """Number of pixels in the neighbourhood (centre included)."""
        return len(self.offsets)

    @property
    def line_span(self) -> int:
        """Number of frame lines the neighbourhood touches."""
        dys = [dy for _, dy in self.offsets]
        return max(dys) - min(dys) + 1

    @property
    def column_span(self) -> int:
        """Number of frame columns the neighbourhood touches."""
        dxs = [dx for dx, _ in self.offsets]
        return max(dxs) - min(dxs) + 1

    def span_perpendicular_to(self, scan: ScanOrder) -> int:
        """Extent perpendicular to the scan direction.

        Figure 4's worst case is a neighbourhood whose maximum extent lies
        perpendicular to the scan: those pixels live in *different* IIM
        line stores, which is exactly why the IIM is built from parallel
        line blocks (so even that case loads in one cycle).
        """
        if scan is ScanOrder.HORIZONTAL:
            return self.line_span
        return self.column_span

    def fresh_offsets(self, scan: ScanOrder) -> Tuple[Tuple[int, int], ...]:
        """Offsets *not* reusable from the previous scan position.

        When the window slides one step along the scan, every offset that
        was covered at the previous position can be kept (software keeps
        them in registers, the engine keeps them in the matrix register);
        only the leading edge must be loaded.  This is the software memory
        access model behind Table 2 (3 fresh reads per step for CON_8).
        """
        step = (1, 0) if scan is ScanOrder.HORIZONTAL else (0, 1)
        return self.fresh_offsets_for_step(step)

    def fresh_offsets_for_step(self, step: Tuple[int, int]
                               ) -> Tuple[Tuple[int, int], ...]:
        """Offsets that must be (re)loaded when the window moves by
        ``step``.

        An offset ``o`` of the new window can reuse the old window's
        value at ``o + step`` if that position was itself in the window;
        everything else is fresh.  The serpentine walk only ever moves by
        unit steps, but the rule holds for any displacement.
        """
        kept = {(dx - step[0], dy - step[1]) for dx, dy in self.offsets}
        return tuple(off for off in self.offsets if off not in kept)

    # -- closed-form serpentine access counts -------------------------------
    #
    # After the very first window fill the sliding window always covers
    # the complete offset set, so the fresh-read count of every later
    # step depends only on the step direction.  A serpentine walk uses
    # exactly three directions: forward along the scan, backward along
    # the scan (alternate lines), and one turn step between lines.  That
    # makes the total read count of the per-pixel walk a closed form --
    # which is what lets the strip executor credit access counters
    # without visiting pixels.

    def _serpentine_params(self, width: int, height: int,
                           scan: ScanOrder) -> Tuple[int, int, int, int, int]:
        """``(lines, line_len, f_fwd, f_bwd, f_turn)`` of the walk."""
        if width < 1 or height < 1:
            raise ValueError(f"plane must be at least 1x1, "
                             f"got {width}x{height}")
        if scan is ScanOrder.HORIZONTAL:
            lines, line_len = height, width
            fwd, turn = (1, 0), (0, 1)
        else:
            lines, line_len = width, height
            fwd, turn = (0, 1), (1, 0)
        bwd = (-fwd[0], -fwd[1])
        return (lines, line_len,
                len(self.fresh_offsets_for_step(fwd)),
                len(self.fresh_offsets_for_step(bwd)),
                len(self.fresh_offsets_for_step(turn)))

    def serpentine_reads_in_lines(self, first_line: int, line_count: int,
                                  width: int, height: int,
                                  scan: ScanOrder = ScanOrder.HORIZONTAL
                                  ) -> int:
        """Fresh reads of the serpentine walk over one run of scan lines.

        ``first_line`` / ``line_count`` select whole scan lines (frame
        rows for a horizontal scan, frame columns for a vertical one).
        Line 0 pays the full window fill at its first position; every
        other line pays one line-turn step; within a line the remaining
        ``line_len - 1`` steps pay the forward or backward leading edge
        depending on the line's parity.  Summed over all lines this is
        exactly what the per-pixel walk counts.
        """
        lines, line_len, f_fwd, f_bwd, f_turn = self._serpentine_params(
            width, height, scan)
        last = first_line + line_count
        if not 0 <= first_line <= last <= lines:
            raise ValueError(
                f"lines [{first_line}, {last}) outside [0, {lines})")
        even = (last + 1) // 2 - (first_line + 1) // 2
        odd = line_count - even
        reads = (line_len - 1) * (even * f_fwd + odd * f_bwd)
        if first_line == 0 and line_count > 0:
            reads += self.size + (line_count - 1) * f_turn
        else:
            reads += line_count * f_turn
        return reads

    def serpentine_reads(self, width: int, height: int,
                         scan: ScanOrder = ScanOrder.HORIZONTAL) -> int:
        """Total fresh reads of the full serpentine walk over a plane.

        Closed form: the first position loads the whole window, each of
        the ``lines - 1`` turns loads the turn edge, and each of the
        ``line_len - 1`` in-line steps loads the forward or backward
        edge of its line.  Bit-identical to what
        :class:`~repro.addresslib.executor.CountedExecutor` tallies.
        """
        lines, line_len, f_fwd, f_bwd, f_turn = self._serpentine_params(
            width, height, scan)
        return (self.size + (lines - 1) * f_turn
                + (line_len - 1) * ((lines + 1) // 2 * f_fwd
                                    + lines // 2 * f_bwd))

    def bounding_box(self) -> Tuple[int, int, int, int]:
        """``(min_dx, min_dy, max_dx, max_dy)`` of the offsets."""
        dxs = [dx for dx, _ in self.offsets]
        dys = [dy for _, dy in self.offsets]
        return min(dxs), min(dys), max(dxs), max(dys)


def _rect_offsets(half_w: int, half_h: int) -> Tuple[Tuple[int, int], ...]:
    return tuple((dx, dy)
                 for dy in range(-half_h, half_h + 1)
                 for dx in range(-half_w, half_w + 1))


#: CON_0: the single-pixel neighbourhood of Table 2.
CON_0 = Neighbourhood("CON_0", ((0, 0),))

#: CON_4: the 4-connected cross (centre + N/S/E/W).
CON_4 = Neighbourhood("CON_4", ((0, 0), (0, -1), (-1, 0), (1, 0), (0, 1)))

#: CON_8: the squared 8-pixel neighbourhood of Table 2 / Figure 4 (3x3).
CON_8 = Neighbourhood("CON_8", _rect_offsets(1, 1))

#: CON_24: the 5x5 neighbourhood (larger FIR kernels).
CON_24 = Neighbourhood("CON_24", _rect_offsets(2, 2))

#: The Figure 4 worst case: maximum 9-line extent perpendicular to a
#: horizontal scan -- a 1x9 column of pixels.
COLUMN_9 = Neighbourhood("COLUMN_9",
                         tuple((0, dy) for dy in range(-4, 5)))

#: Named neighbourhoods for lookup.
NAMED_NEIGHBOURHOODS = {
    n.name: n for n in (CON_0, CON_4, CON_8, CON_24, COLUMN_9)
}


def neighbourhood_by_name(name: str) -> Neighbourhood:
    """Look up a named neighbourhood (``CON_0``, ``CON_8``, ...)."""
    try:
        return NAMED_NEIGHBOURHOODS[name.strip().upper()]
    except KeyError:
        raise KeyError(
            f"unknown neighbourhood {name!r}; known: "
            f"{', '.join(sorted(NAMED_NEIGHBOURHOODS))}") from None


def scan_positions(fmt: ImageFormat,
                   order: ScanOrder = ScanOrder.HORIZONTAL
                   ) -> Iterator[Tuple[int, int]]:
    """Yield every ``(x, y)`` of the frame in scan order.

    This is the reference pixel visit order for the inter and intra
    schemes; stage 1 of the engine's Process Unit computes exactly this
    sequence with its position counters.
    """
    if order is ScanOrder.HORIZONTAL:
        for y in range(fmt.height):
            for x in range(fmt.width):
                yield x, y
    else:
        for x in range(fmt.width):
            for y in range(fmt.height):
                yield x, y


def neighbour_positions(x: int, y: int, neighbourhood: Neighbourhood,
                        fmt: ImageFormat, clamp: bool = True
                        ) -> List[Tuple[int, int]]:
    """Absolute positions of a neighbourhood around ``(x, y)``.

    With ``clamp`` (the AddressLib border policy) out-of-frame offsets are
    replicated from the nearest border pixel; otherwise they are dropped.
    """
    positions = []
    for dx, dy in neighbourhood.offsets:
        px, py = x + dx, y + dy
        if clamp:
            px = min(max(px, 0), fmt.width - 1)
            py = min(max(py, 0), fmt.height - 1)
            positions.append((px, py))
        elif fmt.contains(px, py):
            positions.append((px, py))
    return positions
