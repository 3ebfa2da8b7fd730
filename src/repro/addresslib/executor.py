"""Software executors for AddressLib calls.

Three executors implement the same call semantics at different
granularity:

* :class:`VectorExecutor` -- bulk numpy execution on packed
  :class:`~repro.image.frame.Frame` objects.  This is the fast functional
  path used by applications (GME, segmentation) and by the engine model's
  golden reference.
* :class:`CountedExecutor` -- a faithful per-pixel walk over the software
  baseline's planar 4:2:0 store, performing exactly the memory accesses
  the AddressLib C implementation would: serpentine scan with sliding
  neighbourhood reuse, so each step reads only the window's leading edge.
  Its access counts are the *software* column of Table 2.
* :class:`StripCountedExecutor` -- the same counted semantics compiled
  to strip-granular numpy: each output strip is one bulk neighbourhood
  operation and the access counters are credited analytically from the
  closed-form serpentine read counts.  Outputs *and* per-channel tallies
  are bit-identical to the per-pixel walk, which stays the golden
  reference (:func:`counted_executor` selects between them).

:class:`SoftwareCostModel` computes the analytic instruction profile of a
call (validated against :class:`CountedExecutor` by tests); it feeds the
Pentium-M timing model behind Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..image.formats import STRIP_LINES, ImageFormat
from ..image.frame import PLANE_DTYPES, Frame
from ..image.pixel import ALL_CHANNELS, Channel
from ..image.planar import (SUBSAMPLED_CHANNELS, AccessCounter,
                            PlanarFrame420)
from .addressing import CON_0, Neighbourhood, ScanOrder
from .ops import (FRESH_SCRATCH, ChannelSet, FaceScratch, InterOp,
                  IntraOp, item_sums)
from .profiling import (InstructionCost, OpProfile, diff_access_snapshots,
                        format_access_mismatches)

#: Map from channel-set names to packed-frame channels.
_CHANNEL_BY_NAME = {"Y": Channel.Y, "U": Channel.U, "V": Channel.V}


def _zero_snapshot() -> Dict[str, int]:
    """An all-zero counter snapshot (same keys as
    :meth:`~repro.image.planar.AccessCounter.snapshot`)."""
    snapshot = {"total": 0, "reads": 0, "writes": 0}
    for channel in ALL_CHANNELS:
        snapshot[f"reads_{channel.name}"] = 0
        snapshot[f"writes_{channel.name}"] = 0
    return snapshot


def _credit_snapshot(snapshot: Dict[str, int], channel: Channel,
                     reads: int, writes: int) -> None:
    """Accumulate one channel's tallies into a snapshot-shaped dict."""
    snapshot[f"reads_{channel.name}"] += reads
    snapshot[f"writes_{channel.name}"] += writes
    snapshot["reads"] += reads
    snapshot["writes"] += writes
    snapshot["total"] += reads + writes


def channels_of(channel_set: ChannelSet) -> Tuple[Channel, ...]:
    """The packed-frame channels a :class:`ChannelSet` touches."""
    return tuple(_CHANNEL_BY_NAME[name]
                 for name in channel_set.channel_names)


def plane_dims_420(fmt: ImageFormat, channel: Channel) -> Tuple[int, int]:
    """``(width, height)`` of ``channel``'s plane in the 4:2:0 layout."""
    if channel in SUBSAMPLED_CHANNELS:
        return -(-fmt.width // 2), -(-fmt.height // 2)
    return fmt.width, fmt.height


def plane_pixels_420(fmt: ImageFormat, channel: Channel) -> int:
    """Pixels of ``channel``'s plane in the software 4:2:0 layout."""
    width, height = plane_dims_420(fmt, channel)
    return width * height


# ---------------------------------------------------------------------------
# Vectorised functional executor
# ---------------------------------------------------------------------------

def _edge_pad(planes: Sequence[np.ndarray], top: int, bottom: int,
              left: int, right: int,
              scratch: Optional[FaceScratch] = None) -> np.ndarray:
    """Same-shape planes as one ``(B, top + H + bottom, left + W +
    right)`` batch, each with its border rows and columns replicated
    outward by the given margins (the AddressLib clamp policy).

    Each plane is copied once, straight into its item of one buffer --
    the ``"pad"`` array of ``scratch``, or a fresh one; the margins are
    then filled by slice assignment across the whole batch.
    """
    height, width = planes[0].shape
    shape = (len(planes), top + height + bottom, left + width + right)
    padded = (np.empty(shape, planes[0].dtype) if scratch is None
              else scratch.take("pad", shape, planes[0].dtype))
    rows = slice(top, top + height)
    for item, plane in zip(padded, planes):
        item[rows, left:left + width] = plane
    padded[:, rows, :left] = padded[:, rows, left:left + 1]
    padded[:, rows, left + width:] = padded[:, rows,
                                            left + width - 1:left + width]
    padded[:, :top] = padded[:, top:top + 1]
    padded[:, top + height:] = padded[:, top + height - 1:top + height]
    return padded


def _plane_batch(frames: Sequence[Frame], channel: Channel,
                 neighbourhood: Neighbourhood = CON_0,
                 scratch: Optional[FaceScratch] = None) -> np.ndarray:
    """One channel of ``frames`` as a ``(B, H, W)`` batch, edge-padded
    by ``neighbourhood``'s reach: the intra faces' input.  A view of
    the plane for a single frame under CON_0, one copy otherwise (into
    ``scratch`` when one is given)."""
    planes = [frame.read_plane(channel) for frame in frames]
    if len(planes) == 1 and neighbourhood.size == 1:
        return planes[0][np.newaxis]
    min_dx, min_dy, max_dx, max_dy = neighbourhood.bounding_box()
    return _edge_pad(planes, -min_dy, max_dy, -min_dx, max_dx, scratch)


def _owned(values: np.ndarray, source: np.ndarray,
           shape: Tuple[int, ...], dtype: type) -> np.ndarray:
    """A kernel's output as a fresh array of ``shape`` and the plane
    ``dtype``.

    An inter face may return a view of its input ``source`` or a wider
    integer type; either is copied here, so no computed plane shares
    memory with an input (an intra face writes a fresh sink).
    """
    if (values.dtype != dtype or values.shape != shape
            or np.may_share_memory(values, source)):
        owned = np.empty(shape, dtype)
        owned[...] = values
        return owned
    return values


def _check_geometry(inputs: Sequence[Sequence[Frame]]) -> None:
    """Raise unless every frame of a wave has one geometry."""
    fmt = inputs[0][0].format
    for frames in inputs:
        for frame in frames:
            other = frame.format
            if other is not fmt and (other.width != fmt.width
                                     or other.height != fmt.height):
                raise ValueError(
                    f"a wave needs one frame geometry, got "
                    f"{other} vs {fmt}")


def _wave_values(op: Union[InterOp, IntraOp],
                 inputs: Sequence[Sequence[Frame]],
                 channels: ChannelSet
                 ) -> Iterator[Tuple[Channel, np.ndarray, np.ndarray]]:
    """The kernel step of a wave, one computed channel at a time:
    ``(channel, values, batch)`` -- the op's vector face run once over
    every call of the wave, and the face input ``batch`` the values may
    alias.  Leading axes are batch axes to every face, so item ``i`` of
    ``values`` is call ``i``'s one-call result (its shape may need
    broadcasting to ``(B, H, W)``, its dtype a cast to the plane's).
    """
    _check_geometry(inputs)
    sources = [frames[0] for frames in inputs]
    for channel in channels_of(channels):
        if isinstance(op, IntraOp):
            batch = _plane_batch(sources, channel, op.neighbourhood)
            values = op.apply_vector(batch)
        else:
            batch = _plane_batch(sources, channel)
            values = op.apply_vector(
                batch, _plane_batch([frames[1] for frames in inputs],
                                    channel))
        yield channel, values, batch


class VectorExecutor:
    """Bulk numpy execution of inter/intra calls on packed frames."""

    @staticmethod
    def wave(op: Union[InterOp, IntraOp],
             inputs: Sequence[Sequence[Frame]],
             channels: ChannelSet = ChannelSet.Y,
             reduce_to_scalar: bool = False) -> List[Union[Frame, int]]:
        """Run same-configuration calls as one batched numpy pass.

        ``inputs`` holds each call's input frames: ``(frame,)`` for an
        intra ``op``, ``(frame_a, frame_b)`` for an inter one; every
        frame has the same geometry.  Per channel, the op's vector face
        runs once over the whole wave -- on the ``(B, H, W)`` planes
        edge-padded once by the neighbourhood's reach for intra calls,
        on ``(B, H, W)`` plane pairs for inter calls.  Leading axes are
        batch axes to every face, so each call's values equal a
        one-call run's.

        Returns one result per call, in order, or the summed values
        when ``reduce_to_scalar``.  A frame result holds its computed
        planes -- its own item of the wave's batches, sharing memory
        with no input and no other result -- and the untouched planes
        of the call's first input, lent copy on write where the input
        alone holds them or shares them already and copied otherwise
        (:meth:`~repro.image.frame.Frame.pass_through`).  The frames
        are assembled here, from planes of the right shape and dtype
        by construction, so nothing re-checks them.
        """
        fmt = inputs[0][0].format
        shape = (len(inputs), fmt.height, fmt.width)
        batches: Dict[Channel, np.ndarray] = {}
        totals = [0] * len(inputs)
        for channel, values, batch in _wave_values(op, inputs, channels):
            if reduce_to_scalar:
                sums = item_sums(values.reshape(len(inputs), -1))
                totals = [total + int(s) for total, s in zip(totals, sums)]
            else:
                batches[channel] = _owned(values, batch, shape,
                                          PLANE_DTYPES[channel])
        if reduce_to_scalar:
            return list(totals)
        return [frames[0].pass_through(
                    {channel: batch[index]
                     for channel, batch in batches.items()})
                for index, frames in enumerate(inputs)]

    @staticmethod
    def wave_into(op: Union[InterOp, IntraOp],
                  inputs: Sequence[Sequence[Frame]],
                  channels: ChannelSet, outputs: Sequence[Frame],
                  scratch: Optional[FaceScratch] = None) -> None:
        """:meth:`wave`'s computed planes, written in place: call
        ``i``'s values go into the planes of ``outputs[i]`` (a frame of
        the inputs' geometry that shares no memory with them) that the
        op computes -- the ``channels`` -- and nothing else.  The planes
        the op leaves untouched are the caller's to supply: the call
        scheduler's results share them with the first input's
        plane-store snapshot.

        The same values as :meth:`wave`, call by call: an intra face
        reads its input edge-padded into ``scratch`` (the plane itself
        under CON_0) and writes its final values straight into the
        output plane, taking its temporaries from ``scratch`` too; an
        inter face's values are cast into the plane.  ``scratch`` is
        the engine's own (:class:`~repro.addresslib.ops.FaceScratch`),
        reused call after call; without one, every temporary is fresh.
        """
        _check_geometry(inputs)
        if scratch is None:
            scratch = FRESH_SCRATCH
        for channel in channels_of(channels):
            for frames, output in zip(inputs, outputs):
                sink = output.plane(channel)
                if isinstance(op, IntraOp):
                    padded = _plane_batch(frames[:1], channel,
                                          op.neighbourhood, scratch)[0]
                    op.vector(padded, sink, scratch)
                else:
                    sink[...] = op.apply_vector(
                        frames[0].read_plane(channel),
                        frames[1].read_plane(channel))

    @staticmethod
    def inter(op: InterOp, frame_a: Frame, frame_b: Frame,
              channels: ChannelSet = ChannelSet.Y) -> Frame:
        """Elementwise ``op`` over two equal-format frames."""
        result = VectorExecutor.wave(op, [(frame_a, frame_b)], channels)[0]
        assert isinstance(result, Frame)
        return result

    @staticmethod
    def intra(op: IntraOp, frame: Frame,
              channels: ChannelSet = ChannelSet.Y) -> Frame:
        """Neighbourhood ``op`` over one frame, borders clamped."""
        result = VectorExecutor.wave(op, [(frame,)], channels)[0]
        assert isinstance(result, Frame)
        return result

    @staticmethod
    def inter_reduce(op: InterOp, frame_a: Frame, frame_b: Frame,
                     channels: ChannelSet = ChannelSet.Y) -> int:
        """Sum of the elementwise results (e.g. SAD with ``INTER_ABSDIFF``)."""
        result = VectorExecutor.wave(op, [(frame_a, frame_b)], channels,
                                     reduce_to_scalar=True)[0]
        assert isinstance(result, int)
        return result

    @staticmethod
    def histogram(frame: Frame, channel: Channel = Channel.Y) -> np.ndarray:
        """256-bin histogram of one channel (a stage-3 'histogram' op whose
        output goes to an indexed table rather than to pixels)."""
        return np.bincount(
            frame.read_plane(channel).reshape(-1).astype(np.int64),
            minlength=256)[:256]


# ---------------------------------------------------------------------------
# Counted per-pixel executor (the Table 2 software model)
# ---------------------------------------------------------------------------

def serpentine_positions(width: int, height: int,
                         order: ScanOrder = ScanOrder.HORIZONTAL
                         ) -> Iterator[Tuple[int, int]]:
    """Boustrophedon scan: alternate direction each line (or column).

    The sliding window then moves by exactly one pixel at every step, so
    neighbourhood reuse carries across line boundaries -- the steady-state
    access pattern Table 2's software numbers assume.
    """
    if order is ScanOrder.HORIZONTAL:
        for y in range(height):
            xs = range(width) if y % 2 == 0 else range(width - 1, -1, -1)
            for x in xs:
                yield x, y
    else:
        for x in range(width):
            ys = range(height) if x % 2 == 0 else range(height - 1, -1, -1)
            for y in ys:
                yield x, y


class CountedExecutor:
    """Per-pixel software execution with genuine counted memory accesses.

    Operates on :class:`~repro.image.planar.PlanarFrame420` stores.  Each
    channel plane is processed independently at its own resolution (the way
    planar software iterates), with a sliding window that reloads only the
    offsets not covered by the previous window position.
    """

    def __init__(self, scan: ScanOrder = ScanOrder.HORIZONTAL) -> None:
        self.scan = scan

    # -- inter ---------------------------------------------------------------

    def inter(self, op: InterOp, frame_a: PlanarFrame420,
              frame_b: PlanarFrame420, output: PlanarFrame420,
              channels: ChannelSet = ChannelSet.Y) -> None:
        """Counted elementwise op: per plane, read a, read b, write result."""
        for channel in channels_of(channels):
            width, height = self._plane_dims(frame_a, channel)
            for x, y in serpentine_positions(width, height, self.scan):
                fx, fy = self._full_res(channel, x, y)
                a = frame_a.read(channel, fx, fy)
                b = frame_b.read(channel, fx, fy)
                output.write(channel, fx, fy, op.apply_scalar(a, b))

    # -- intra ---------------------------------------------------------------

    def intra(self, op: IntraOp, frame: PlanarFrame420,
              output: PlanarFrame420,
              channels: ChannelSet = ChannelSet.Y) -> None:
        """Counted neighbourhood op with sliding-window reuse per plane."""
        for channel in channels_of(channels):
            self._intra_plane(op, frame, output, channel)

    def _intra_plane(self, op: IntraOp, frame: PlanarFrame420,
                     output: PlanarFrame420, channel: Channel) -> None:
        width, height = self._plane_dims(frame, channel)
        offsets = op.neighbourhood.offsets
        scale = 2 if channel in SUBSAMPLED_CHANNELS else 1
        plans = {step: self._step_plan(op.neighbourhood, step)
                 for step in self._unit_steps()}
        fill_plan = tuple((-1, dx, dy) for dx, dy in offsets)
        read = frame.read
        write = output.write
        apply_scalar = op.apply_scalar
        turn_plan = plans[self._turn_step()]
        window: List[int] = []
        for positions, step in self._serpentine_lines(width, height):
            in_line_plan = plans[step]
            first = positions[0]
            for px, py in positions:
                # The window is a list in ``offsets`` order; each step's
                # precomputed plan says which slot carries over (reads
                # happen only for the leading edge, exactly as before).
                plan = (fill_plan if not window
                        else in_line_plan if (px, py) != first
                        else turn_plan)
                previous = window
                window = [
                    previous[src] if src >= 0 else
                    read(channel,
                         scale * min(max(px + dx, 0), width - 1),
                         scale * min(max(py + dy, 0), height - 1))
                    for src, dx, dy in plan]
                write(channel, scale * px, scale * py,
                      apply_scalar(window))

    def _unit_steps(self) -> Tuple[Tuple[int, int], ...]:
        """The step directions a serpentine walk uses under this scan."""
        if self.scan is ScanOrder.HORIZONTAL:
            return ((1, 0), (-1, 0), (0, 1))
        return ((0, 1), (0, -1), (1, 0))

    def _turn_step(self) -> Tuple[int, int]:
        """The line-turn step of this scan order."""
        return (0, 1) if self.scan is ScanOrder.HORIZONTAL else (1, 0)

    @staticmethod
    def _step_plan(neighbourhood: Neighbourhood, step: Tuple[int, int]
                   ) -> Tuple[Tuple[int, int, int], ...]:
        """Per-offset reuse plan for a window move of ``step``.

        One entry per offset, in offset order: ``(src, dx, dy)`` where
        ``src`` is the previous window slot whose value carries over, or
        ``-1`` when the offset is on the leading edge and must be read
        (at clamped position ``centre + (dx, dy)``).
        """
        index_of = {off: i for i, off in enumerate(neighbourhood.offsets)}
        plan = []
        for dx, dy in neighbourhood.offsets:
            src = index_of.get((dx + step[0], dy + step[1]), -1)
            plan.append((src, dx, dy))
        return tuple(plan)

    def _serpentine_lines(self, width: int, height: int
                          ) -> Iterator[Tuple[List[Tuple[int, int]],
                                              Tuple[int, int]]]:
        """Scan lines of the serpentine walk: ``(positions, step)``.

        ``positions`` are the line's plane coordinates in visit order and
        ``step`` the in-line step direction; the first position of every
        line after the first is reached by the turn step instead.
        """
        if self.scan is ScanOrder.HORIZONTAL:
            for y in range(height):
                xs = (range(width) if y % 2 == 0
                      else range(width - 1, -1, -1))
                step = (1, 0) if y % 2 == 0 else (-1, 0)
                yield [(x, y) for x in xs], step
        else:
            for x in range(width):
                ys = (range(height) if x % 2 == 0
                      else range(height - 1, -1, -1))
                step = (0, 1) if x % 2 == 0 else (0, -1)
                yield [(x, y) for y in ys], step

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _plane_dims(frame: PlanarFrame420,
                    channel: Channel) -> Tuple[int, int]:
        plane = frame.plane(channel)
        return plane.shape[1], plane.shape[0]

    @staticmethod
    def _full_res(channel: Channel, x: int, y: int) -> Tuple[int, int]:
        """Map plane coordinates back to full-resolution coordinates (the
        counted store addresses chroma through full-res coordinates)."""
        if channel in SUBSAMPLED_CHANNELS:
            return x * 2, y * 2
        return x, y


# ---------------------------------------------------------------------------
# Strip-vectorized counted executor
# ---------------------------------------------------------------------------

def _strip_input(plane: np.ndarray, neighbourhood: Neighbourhood,
                 rows: Tuple[int, int], cols: Tuple[int, int]
                 ) -> np.ndarray:
    """The padded face input of output rows ``[y0, y1)`` x columns
    ``[x0, x1)`` of ``plane``, gathered in one copy.

    Element ``(i, j)`` is ``plane[clip(y0 + min_dy + i), clip(x0 +
    min_dx + j)]``: clamped at the *frame* borders, not the strip's --
    the value the per-pixel walk's clamped read returns.
    """
    height, width = plane.shape
    min_dx, min_dy, max_dx, max_dy = neighbourhood.bounding_box()
    ys = np.clip(np.arange(rows[0] + min_dy, rows[1] + max_dy),
                 0, height - 1)
    xs = np.clip(np.arange(cols[0] + min_dx, cols[1] + max_dx),
                 0, width - 1)
    return plane[np.ix_(ys, xs)]


class StripCountedExecutor:
    """Counted execution compiled to numpy strips.

    Same ``inter``/``intra`` surface and same
    :class:`~repro.image.planar.PlanarFrame420` stores as
    :class:`CountedExecutor`, but each output plane is computed strip by
    strip with one bulk ``op.apply_vector`` per strip (on the strip's
    clamp-padded input slab), the way the coprocessor
    streams 16-line strips through its input matrix.  Access counters
    are credited analytically per strip from the closed-form serpentine
    read counts (window fill at the first position, turn edges at line
    turns, leading edges in steady state) -- so outputs *and*
    per-channel read/write tallies are bit-identical to the per-pixel
    walk, which remains the golden reference.

    ``validate=True`` shadow-runs the scalar walk on every call and
    raises :class:`AssertionError` on any output or tally divergence
    (the CI cross-check; costs the full per-pixel price).
    """

    def __init__(self, scan: ScanOrder = ScanOrder.HORIZONTAL,
                 strip_lines: int = STRIP_LINES,
                 validate: bool = False) -> None:
        if strip_lines < 1:
            raise ValueError(f"strip_lines must be positive, "
                             f"got {strip_lines}")
        self.scan = scan
        self.strip_lines = strip_lines
        self.validate = validate

    # -- inter ---------------------------------------------------------------

    def inter(self, op: InterOp, frame_a: PlanarFrame420,
              frame_b: PlanarFrame420, output: PlanarFrame420,
              channels: ChannelSet = ChannelSet.Y) -> None:
        """Counted elementwise op: one bulk operation per plane.

        The walk reads every element of both planes exactly once and
        writes every output element once; there is nothing
        position-dependent to correct, so each plane credits in one
        step.
        """
        before = (_merged_snapshot(frame_a.counter, frame_b.counter,
                                   output.counter)
                  if self.validate else None)
        for channel in channels_of(channels):
            width, height = plane_dims_420(frame_a.format, channel)
            pixels = width * height
            plane_a = frame_a.plane_view(channel, reads=pixels)
            plane_b = frame_b.plane_view(channel, reads=pixels)
            out = output.plane_view(channel, writes=pixels)
            out[:] = op.apply_vector(plane_a, plane_b)
        if before is not None:
            after = _merged_snapshot(frame_a.counter, frame_b.counter,
                                     output.counter)
            self._validate_inter(op, frame_a, frame_b, output, channels,
                                 _snapshot_delta(before, after))

    # -- intra ---------------------------------------------------------------

    def intra(self, op: IntraOp, frame: PlanarFrame420,
              output: PlanarFrame420,
              channels: ChannelSet = ChannelSet.Y) -> None:
        """Counted neighbourhood op, one bulk operation per strip."""
        before = (_merged_snapshot(frame.counter, output.counter)
                  if self.validate else None)
        for channel in channels_of(channels):
            self._intra_plane(op, frame, output, channel)
        if before is not None:
            after = _merged_snapshot(frame.counter, output.counter)
            self._validate_intra(op, frame, output, channels,
                                 _snapshot_delta(before, after))

    def _intra_plane(self, op: IntraOp, frame: PlanarFrame420,
                     output: PlanarFrame420, channel: Channel) -> None:
        width, height = plane_dims_420(frame.format, channel)
        neighbourhood = op.neighbourhood
        # Strips run parallel to the scan: row bands for a horizontal
        # scan, column bands for a vertical one (scan lines = strip
        # lines either way, so per-strip crediting covers whole lines).
        lines = height if self.scan is ScanOrder.HORIZONTAL else width
        for l0 in range(0, lines, self.strip_lines):
            l1 = min(l0 + self.strip_lines, lines)
            reads = neighbourhood.serpentine_reads_in_lines(
                l0, l1 - l0, width, height, self.scan)
            line_len = width if self.scan is ScanOrder.HORIZONTAL \
                else height
            src = frame.plane_view(channel, reads=reads)
            out = output.plane_view(channel,
                                    writes=(l1 - l0) * line_len)
            if self.scan is ScanOrder.HORIZONTAL:
                out[l0:l1, :] = op.apply_vector(_strip_input(
                    src, neighbourhood, (l0, l1), (0, width)))
            else:
                out[:, l0:l1] = op.apply_vector(_strip_input(
                    src, neighbourhood, (0, height), (l0, l1)))

    # -- golden-reference validation -----------------------------------------

    def _validate_inter(self, op: InterOp, frame_a: PlanarFrame420,
                        frame_b: PlanarFrame420, output: PlanarFrame420,
                        channels: ChannelSet,
                        measured_delta: Dict[str, int]) -> None:
        shadow_a = _uncounted_copy(frame_a)
        shadow_b = _uncounted_copy(frame_b, shadow_a.counter)
        shadow_out = PlanarFrame420(output.format, shadow_a.counter)
        CountedExecutor(self.scan).inter(op, shadow_a, shadow_b,
                                         shadow_out, channels)
        self._check_against_shadow(shadow_out, output, shadow_a.counter,
                                   measured_delta, channels, op.name)

    def _validate_intra(self, op: IntraOp, frame: PlanarFrame420,
                        output: PlanarFrame420, channels: ChannelSet,
                        measured_delta: Dict[str, int]) -> None:
        shadow = _uncounted_copy(frame)
        shadow_out = PlanarFrame420(output.format, shadow.counter)
        CountedExecutor(self.scan).intra(op, shadow, shadow_out, channels)
        self._check_against_shadow(shadow_out, output, shadow.counter,
                                   measured_delta, channels, op.name)

    @staticmethod
    def _check_against_shadow(shadow_out: PlanarFrame420,
                              output: PlanarFrame420,
                              shadow_counter: AccessCounter,
                              measured_delta: Dict[str, int],
                              channels: ChannelSet, op_name: str) -> None:
        for channel in channels_of(channels):
            if not np.array_equal(shadow_out.plane(channel),
                                  output.plane(channel)):
                raise AssertionError(
                    f"{op_name}: strip output diverges from the scalar "
                    f"walk on channel {channel.name}")
        # The shadow ran on fresh counters, so its snapshot is this
        # call's delta; the caller measured its own counter delta across
        # the call (the counters may carry earlier history).
        mismatches = diff_access_snapshots(shadow_counter.snapshot(),
                                           measured_delta)
        if mismatches:
            raise AssertionError(
                f"{op_name}: strip access counts diverge from the "
                f"scalar walk: {format_access_mismatches(mismatches)}")


def _uncounted_copy(frame: PlanarFrame420,
                    counter: Optional[AccessCounter] = None
                    ) -> PlanarFrame420:
    """A plane-for-plane copy on a fresh (or given) counter."""
    copy = PlanarFrame420(frame.format, counter)
    for channel in ALL_CHANNELS:
        copy.plane(channel)[:] = frame.plane(channel)
    return copy


def _merged_snapshot(*counters: AccessCounter) -> Dict[str, int]:
    """Summed snapshot over distinct counters (stores may share one)."""
    seen: List[AccessCounter] = []
    for counter in counters:
        if not any(counter is known for known in seen):
            seen.append(counter)
    merged: Dict[str, int] = {}
    for counter in seen:
        for key, value in counter.snapshot().items():
            merged[key] = merged.get(key, 0) + value
    return merged


def _snapshot_delta(before: Dict[str, int],
                    after: Dict[str, int]) -> Dict[str, int]:
    """Per-key difference ``after - before`` of two counter snapshots."""
    return {key: after.get(key, 0) - before.get(key, 0)
            for key in set(before) | set(after)}


#: The counted-executor kinds :func:`counted_executor` accepts.
COUNTED_EXECUTOR_KINDS = ("scalar", "strip")

CountedExecutorLike = Union[CountedExecutor, StripCountedExecutor]


def counted_executor(counted: str = "strip",
                     scan: ScanOrder = ScanOrder.HORIZONTAL,
                     strip_lines: int = STRIP_LINES,
                     validate: bool = False) -> CountedExecutorLike:
    """Build a counted executor by kind: ``"scalar"`` or ``"strip"``.

    The strip path is the default everywhere speed matters (cost-model
    validation, Table 2 emission, benchmarks); the scalar walk is the
    golden reference CI checks the strip path against.  ``strip_lines``
    and ``validate`` only apply to the strip kind.
    """
    if counted == "scalar":
        return CountedExecutor(scan)
    if counted == "strip":
        return StripCountedExecutor(scan, strip_lines=strip_lines,
                                    validate=validate)
    raise ValueError(f"unknown counted executor kind {counted!r}; "
                     f"expected one of {COUNTED_EXECUTOR_KINDS}")


# ---------------------------------------------------------------------------
# Analytic software cost model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SoftwareCostModel:
    """Per-event instruction costs of the software AddressLib inner loops.

    The constants model a scalar C implementation: every fresh element
    read needs index arithmetic and border tests before the load, every
    write one index computation, and every scan step counter maintenance.
    They were chosen so that profiles of representative calls match the
    instruction-mix shape reported by the paper's profiling study
    (addressing classes dominating pixel processing).
    """

    #: Per scan step: advance/compare position counters.
    scan: InstructionCost = InstructionCost(addr=2, branch=1)
    #: Per fresh element read: offset add, clamp tests, index linearise, load.
    read: InstructionCost = InstructionCost(addr=3, branch=2, load=1)
    #: Per element written: index reuse plus the store.
    write: InstructionCost = InstructionCost(addr=1, store=1)
    #: Extra instructions per element access (reads *and* writes) for
    #: framework-heavy software stacks.  The tight AddressLib C library
    #: needs none (the default); the MPEG-7 XM baseline of Table 3
    #: funnels every pixel access through generic multimedia accessors
    #: and virtual dispatch, priced by :func:`xm_cost_model`.
    per_access_overhead: InstructionCost = InstructionCost()

    def inter_profile(self, op: InterOp, fmt: ImageFormat,
                      channels: ChannelSet = ChannelSet.Y,
                      scan: ScanOrder = ScanOrder.HORIZONTAL) -> OpProfile:
        """Analytic profile of one software inter call."""
        del scan  # inter cost is scan-order independent
        profile = OpProfile()
        for channel in channels_of(channels):
            pixels = plane_pixels_420(fmt, channel)
            per_pixel = (self.scan
                         .plus(self.read.scaled(2))
                         .plus(op.cost)
                         .plus(self.write)
                         .plus(self.per_access_overhead.scaled(3)))
            profile.add_cost(per_pixel, pixels)
        profile.add_call()
        return profile

    def intra_profile(self, op: IntraOp, fmt: ImageFormat,
                      channels: ChannelSet = ChannelSet.Y,
                      scan: ScanOrder = ScanOrder.HORIZONTAL) -> OpProfile:
        """Analytic profile of one software intra call (steady state)."""
        fresh = len(op.neighbourhood.fresh_offsets(scan))
        profile = OpProfile()
        for channel in channels_of(channels):
            pixels = plane_pixels_420(fmt, channel)
            per_pixel = (self.scan
                         .plus(self.read.scaled(fresh))
                         .plus(op.cost)
                         .plus(self.write)
                         .plus(self.per_access_overhead.scaled(fresh + 1)))
            profile.add_cost(per_pixel, pixels)
        profile.add_call()
        return profile

    # -- Table 2 access counts (loads + stores only) ------------------------

    def inter_accesses(self, fmt: ImageFormat,
                       channels: ChannelSet = ChannelSet.Y) -> int:
        """Idealised software memory accesses of one inter call."""
        return sum(3 * plane_pixels_420(fmt, c)
                   for c in channels_of(channels))

    def intra_accesses(self, op: IntraOp, fmt: ImageFormat,
                       channels: ChannelSet = ChannelSet.Y,
                       scan: ScanOrder = ScanOrder.HORIZONTAL) -> int:
        """Idealised software memory accesses of one intra call
        (``fresh_reads + 1`` per plane pixel, steady state)."""
        fresh = len(op.neighbourhood.fresh_offsets(scan))
        return sum((fresh + 1) * plane_pixels_420(fmt, c)
                   for c in channels_of(channels))

    # -- exact counted-walk predictions -------------------------------------

    def intra_counts_exact(self, op: IntraOp, fmt: ImageFormat,
                           channels: ChannelSet = ChannelSet.Y,
                           scan: ScanOrder = ScanOrder.HORIZONTAL
                           ) -> Dict[str, int]:
        """Exact per-channel tallies of one counted intra call.

        Unlike :meth:`intra_accesses` (steady state only) this includes
        the first-position window fill and the line-turn edge loads, so
        it equals the measured counter snapshot *exactly* for any plane
        geometry -- the closed form the strip executor credits from.
        """
        snapshot = _zero_snapshot()
        for channel in channels_of(channels):
            width, height = plane_dims_420(fmt, channel)
            _credit_snapshot(
                snapshot, channel,
                reads=op.neighbourhood.serpentine_reads(width, height,
                                                        scan),
                writes=width * height)
        return snapshot
