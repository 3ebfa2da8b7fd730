"""Executors: vector vs counted-scalar equivalence and access counts.

The key consistency contract of the whole reproduction: the fast numpy
executor, the counted per-pixel executor, and the analytic cost model
must agree -- on results where representations allow, and on the memory
access counts that become Table 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (COLUMN_9, CON_0, CON_4, CON_8, CON_24,
                              COUNTED_EXECUTOR_KINDS, KERNEL_FACTORIES,
                              ChannelSet, CountedExecutor, FaceScratch,
                              INTER_ABSDIFF, INTER_ADD, INTER_OPS,
                              INTRA_COPY, INTRA_ERODE, INTRA_GRAD,
                              INTRA_OPS, ScanOrder, SoftwareCostModel,
                              VectorExecutor, channels_of, counted_executor,
                              fir_op, kernel_by_name, scale_offset_op,
                              serpentine_positions, threshold_op)
from repro.addresslib.executor import _edge_pad, _plane_batch
from repro.addresslib.ops import _windows
from repro.image import (ALL_CHANNELS, CIF, Channel, ImageFormat,
                         PlanarFrame420, noise_frame)

FMT = ImageFormat("T12x8", 12, 8)


def planar_pair(frame):
    src = PlanarFrame420.from_frame(frame)
    dst = PlanarFrame420(frame.format, src.counter)
    return src, dst


class TestSerpentine:
    def test_covers_every_pixel_once(self):
        positions = list(serpentine_positions(5, 4))
        assert len(positions) == 20
        assert len(set(positions)) == 20

    def test_adjacent_steps_are_unit_moves(self):
        """The window always slides by exactly one pixel, so reuse holds
        across line turns -- the point of the boustrophedon scan."""
        for order in ScanOrder:
            positions = list(serpentine_positions(6, 5, order))
            for (x0, y0), (x1, y1) in zip(positions, positions[1:]):
                assert abs(x1 - x0) + abs(y1 - y0) == 1

    def test_vertical_orientation(self):
        positions = list(serpentine_positions(3, 4, ScanOrder.VERTICAL))
        assert positions[0] == (0, 0)
        assert positions[1] == (0, 1)


# ---------------------------------------------------------------------------
# Golden copy of the stack faces
#
# The reference the padded faces are held to: every input plane copied
# once per neighbourhood offset (one ``np.pad`` each) into a ``(K, H,
# W)`` stack, and each face reducing that stack over its axis 0.
# ---------------------------------------------------------------------------

def _clamped_shift(plane, dx, dy):
    """The plane shifted so element (y, x) holds plane[y+dy, x+dx], borders
    replicated (the AddressLib clamp policy)."""
    height, width = plane.shape
    pad_y = abs(dy)
    pad_x = abs(dx)
    padded = np.pad(plane, ((pad_y, pad_y), (pad_x, pad_x)), mode="edge")
    return padded[pad_y + dy:pad_y + dy + height,
                  pad_x + dx:pad_x + dx + width]


def neighbourhood_stack_shifted(plane, neighbourhood):
    """Reference implementation: one padded copy per offset."""
    return np.stack([_clamped_shift(plane, dx, dy)
                     for dx, dy in neighbourhood.offsets])


def _stack_sat8(values):
    return np.clip(values, 0, 255, out=values).astype(np.uint8)


def _stack_weighted_sum(weights, dtype):
    taps = tuple((index, int(weight))
                 for index, weight in enumerate(weights) if weight)

    def weighted_sum(stack):
        acc = np.zeros(stack.shape[1:], dtype)
        for index, weight in taps:
            if weight == 1:
                acc += stack[index]
            elif weight == -1:
                acc -= stack[index]
            else:
                acc += np.multiply(stack[index], weight, dtype=dtype)
        return acc

    return weighted_sum


#: Sobel and Laplace weights, in CON_8 offset order.
_SOBEL_X = (-1, 0, 1, -2, 0, 2, -1, 0, 1)
_SOBEL_Y = (-1, -2, -1, 0, 0, 0, 1, 2, 1)
_LAPLACE = (-1, -1, -1, -1, 8, -1, -1, -1, -1)


def _stack_biased(weights):
    weighted_sum = _stack_weighted_sum(weights, np.int16)

    def vector(stack):
        acc = weighted_sum(stack)
        acc >>= 3
        acc += 128
        return _stack_sat8(acc)

    return vector


def _stack_box3(stack):
    total = stack.sum(axis=0, dtype=np.uint16)
    return (np.multiply(total, 57, dtype=np.int32) >> 9).astype(np.uint8)


def _stack_grad(stack):
    gx = np.abs(_stack_weighted_sum(_SOBEL_X, np.int16)(stack))
    gx += np.abs(_stack_weighted_sum(_SOBEL_Y, np.int16)(stack))
    gx >>= 3
    return _stack_sat8(gx)


def _stack_median3(stack):
    middle = len(stack) // 2
    return np.partition(stack, middle, axis=0)[middle]


def _stack_homogeneity(stack):
    centre = stack[CON_8.offsets.index((0, 0))]
    return np.maximum(stack.max(axis=0) - centre,
                      centre - stack.min(axis=0))


#: The stack form of every ``INTRA_OPS`` face, by op name.
STACK_FACES = {
    "intra_copy": lambda s: s[0].astype(np.uint8),
    "intra_box3": _stack_box3,
    "intra_sobel_x": _stack_biased(_SOBEL_X),
    "intra_sobel_y": _stack_biased(_SOBEL_Y),
    "intra_grad": _stack_grad,
    "intra_erode_CON_8": lambda s: s.min(axis=0),
    "intra_dilate_CON_8": lambda s: s.max(axis=0),
    "intra_morph_grad_CON_8": lambda s: s.max(axis=0) - s.min(axis=0),
    "intra_median3": _stack_median3,
    "intra_laplace": _stack_biased(_LAPLACE),
    "intra_homogeneity_CON_8": _stack_homogeneity,
}


def _scalar_stack_face(op):
    """The golden stack face of an op without a stack form (the kernel
    book): its scalar face at every pixel of the stack."""
    def face(stack):
        out = np.empty(stack.shape[1:], np.uint8)
        for index in np.ndindex(out.shape):
            out[index] = op.apply_scalar(
                [int(value) for value in stack[(slice(None),) + index]])
        return out

    return face


def golden_intra(op, frame, channels):
    """``frame`` with ``op`` applied through its golden stack face."""
    expected = frame.copy()
    face = STACK_FACES.get(op.name) or _scalar_stack_face(op)
    for channel in channels_of(channels):
        stack = neighbourhood_stack_shifted(frame.plane(channel),
                                            op.neighbourhood)
        expected.plane(channel)[:] = face(stack)
    return expected


def garbage_sinks(frames, channels, rng):
    """A copy of each frame whose computed planes hold random bytes:
    sinks for ``wave_into`` that a face must overwrite in full."""
    sinks = [frame.copy() for frame in frames]
    for sink in sinks:
        for channel in channels_of(channels):
            plane = sink.plane(channel)
            plane[...] = rng.integers(0, 256, plane.shape, np.uint8)
    return sinks


def sink_planes(sinks, channels):
    """The computed planes of each sink frame: ``wave_into``'s sinks."""
    return [{channel: sink.plane(channel)
             for channel in channels_of(channels)} for sink in sinks]


def padded_input(plane, nb):
    """``plane`` edge-padded by ``nb``'s reach: an intra face's input."""
    min_dx, min_dy, max_dx, max_dy = nb.bounding_box()
    return _edge_pad([plane], -min_dy, max_dy, -min_dx, max_dx)[0]


def np_pad_reference(planes, nb):
    """``np.pad(mode="edge")`` of a plane or batch by ``nb``'s reach."""
    min_dx, min_dy, max_dx, max_dy = nb.bounding_box()
    batch = ((0, 0),) * (planes.ndim - 2)
    return np.pad(planes, batch + ((-min_dy, max_dy), (-min_dx, max_dx)),
                  mode="edge")


def window_stack(plane, nb):
    """The per-offset windows of ``plane``'s padded input, stacked."""
    return np.stack(_windows(nb, padded_input(plane, nb)))


class TestNeighbourhoodStack:
    """The per-offset windows of the padded input are the shifted
    planes the stack used to hold."""

    def test_centre_plane_is_original(self):
        frame = noise_frame(FMT, seed=31)
        windows = _windows(CON_8, padded_input(frame.y, CON_8))
        centre = CON_8.offsets.index((0, 0))
        assert np.array_equal(windows[centre], frame.y)

    def test_shift_semantics(self):
        frame = noise_frame(FMT, seed=32)
        windows = _windows(CON_8, padded_input(frame.y, CON_8))
        right = CON_8.offsets.index((1, 0))
        assert np.array_equal(windows[right][:, :-1], frame.y[:, 1:])

    def test_border_clamping(self):
        frame = noise_frame(FMT, seed=33)
        windows = _windows(CON_8, padded_input(frame.y, CON_8))
        left = CON_8.offsets.index((-1, 0))
        assert np.array_equal(windows[left][:, 0], frame.y[:, 0])


class TestWindowedVsShiftedStack:
    """The one padded input against the shifted-plane reference.

    ``_edge_pad`` must equal ``np.pad(mode="edge")``, and the windows of
    its result must be bit-identical to the per-offset clamped-shift
    stack for every named neighbourhood over the corpus geometries --
    any divergence is a correctness bug, not a tolerance.
    """

    GEOMETRIES = [(4, 8), (5, 33), (12, 8), (24, 48), (176, 144)]
    NEIGHBOURHOODS = [CON_0, CON_4, CON_8, CON_24, COLUMN_9]

    @pytest.mark.parametrize("width,height", GEOMETRIES)
    @pytest.mark.parametrize("nb", NEIGHBOURHOODS,
                             ids=lambda nb: nb.name)
    def test_bit_identical_stacks(self, width, height, nb):
        fmt = ImageFormat(f"W{width}x{height}", width, height)
        plane = noise_frame(fmt, seed=width * 1000 + height).y
        assert np.array_equal(padded_input(plane, nb),
                              np_pad_reference(plane, nb))
        windowed = window_stack(plane, nb)
        reference = neighbourhood_stack_shifted(plane, nb)
        assert windowed.shape == reference.shape
        assert np.array_equal(windowed, reference)

    @pytest.mark.parametrize("nb", NEIGHBOURHOODS, ids=lambda nb: nb.name)
    def test_batched_stack_matches_per_plane_reference(self, nb):
        """A ``(B, H, W)`` batch pads item by item (no value crosses
        items), and its windows stack to ``(K, B, H, W)`` with item
        ``b`` equal to plane ``b``'s reference stack."""
        fmt = ImageFormat("W5x33", 5, 33)
        planes = np.stack([noise_frame(fmt, seed=seed).y
                           for seed in (1, 2, 3)])
        min_dx, min_dy, max_dx, max_dy = nb.bounding_box()
        padded = _edge_pad(planes, -min_dy, max_dy, -min_dx, max_dx)
        assert np.array_equal(padded, np_pad_reference(planes, nb))
        batched = np.stack(_windows(nb, padded))
        assert batched.shape == (nb.size,) + planes.shape
        for index, plane in enumerate(planes):
            assert np.array_equal(batched[:, index],
                                  neighbourhood_stack_shifted(plane, nb))

    def test_intra_ops_unchanged_by_fast_path(self):
        frame = noise_frame(ImageFormat("W24x33", 24, 33), seed=77)
        for op in sorted(INTRA_OPS.values(), key=lambda op: op.name):
            via_fast = VectorExecutor.intra(op, frame)
            assert via_fast.equals(golden_intra(op, frame, ChannelSet.Y))


class TestDegenerateStackGeometries:
    """Single-row, single-column and single-pixel planes: the edge pad
    replicates the one line it has on both sides."""

    @pytest.mark.parametrize("height,width", [(1, 1), (1, 7), (7, 1),
                                              (2, 3)])
    @pytest.mark.parametrize("nb", [CON_0, CON_4, CON_8, CON_24, COLUMN_9],
                             ids=lambda nb: nb.name)
    def test_matches_shifted_reference(self, height, width, nb):
        rng = np.random.default_rng(height * 10 + width)
        plane = rng.integers(0, 256, size=(height, width)).astype(np.uint8)
        assert np.array_equal(padded_input(plane, nb),
                              np_pad_reference(plane, nb))
        assert np.array_equal(window_stack(plane, nb),
                              neighbourhood_stack_shifted(plane, nb))


class TestGoldenStackFaces:
    """``VectorExecutor.wave`` against the golden stack faces: every
    intra op on random planes from 1x1 to 40x40, in waves of one to
    three frames, on the luma or all three colour channels -- values,
    untouched planes and the face's output dtype."""

    OPS = sorted(INTRA_OPS.values(), key=lambda op: op.name)

    @given(op=st.sampled_from(OPS),
           height=st.integers(1, 40), width=st.integers(1, 40),
           size=st.integers(1, 3),
           channels=st.sampled_from([ChannelSet.Y, ChannelSet.YUV]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_wave_matches_golden(self, op, height, width, size, channels,
                                 seed):
        fmt = ImageFormat(f"W{width}x{height}", width, height)
        frames = [noise_frame(fmt, seed=seed + i) for i in range(size)]
        results = VectorExecutor.wave(op, [(f,) for f in frames], channels)
        for frame, result in zip(frames, results):
            assert result.equals(golden_intra(op, frame, channels))
        face = STACK_FACES[op.name]
        for channel in channels_of(channels):
            padded = _plane_batch(frames, channel, op.neighbourhood)
            stack = neighbourhood_stack_shifted(frames[0].plane(channel),
                                                op.neighbourhood)
            assert op.apply_vector(padded).dtype == face(stack).dtype

    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
    def test_cif_frame(self, op):
        frame = noise_frame(CIF, seed=2005)
        result = VectorExecutor.intra(op, frame, ChannelSet.YUV)
        assert result.equals(golden_intra(op, frame, ChannelSet.YUV))

    #: Every parameterless intra op and every kernel of the book.
    INTO_OPS = OPS + [kernel_by_name(name)
                      for name in sorted(KERNEL_FACTORIES)]

    #: One scratch for every example, as an engine keeps one: the
    #: examples alternate geometries and ops, so a temporary or padded
    #: input left by one call must never reach another's result.
    SCRATCH = FaceScratch()

    @given(op=st.sampled_from(INTO_OPS),
           height=st.integers(1, 24), width=st.integers(1, 24),
           size=st.integers(1, 2),
           channels=st.sampled_from([ChannelSet.Y, ChannelSet.YUV]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=120, deadline=None)
    def test_wave_into_garbage_sinks_matches_golden(self, op, height,
                                                    width, size, channels,
                                                    seed):
        """``wave_into`` -- the faces writing straight into their sinks
        -- overwrites every computed plane of sinks pre-filled with
        garbage with the golden result, and leaves the other planes
        as they were."""
        fmt = ImageFormat(f"W{width}x{height}", width, height)
        frames = [noise_frame(fmt, seed=seed + i) for i in range(size)]
        sinks = garbage_sinks(frames, channels,
                              np.random.default_rng(seed))
        VectorExecutor.wave_into(op, [(f,) for f in frames], channels,
                                 sink_planes(sinks, channels), self.SCRATCH)
        for frame, sink in zip(frames, sinks):
            assert sink.equals(golden_intra(op, frame, channels))

    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
    def test_wave_into_cif_frame(self, op):
        frame = noise_frame(CIF, seed=2006)
        [sink] = garbage_sinks([frame], ChannelSet.YUV,
                               np.random.default_rng(3))
        VectorExecutor.wave_into(op, [(frame,)], ChannelSet.YUV,
                                 sink_planes([sink], ChannelSet.YUV),
                                 self.SCRATCH)
        assert sink.equals(golden_intra(op, frame, ChannelSet.YUV))


class TestInputsUntouched:
    """The executor never writes an input plane: faces never write into
    their padded input, and a CON_0 input is the caller's plane itself.
    Inputs are made read-only, so any write raises as well."""

    INTRA_CASES = (list(INTRA_OPS.values())
                   + [threshold_op(100), scale_offset_op(3, 2, -40),
                      fir_op("fir_con4", CON_4, [4, -1, -1, -1, -1])])

    @staticmethod
    def frozen_frame(seed):
        frame = noise_frame(FMT, seed=seed)
        snapshot = frame.copy()
        for channel in ALL_CHANNELS:
            frame.plane(channel).flags.writeable = False
        return frame, snapshot

    def test_con0_input_aliases_the_plane(self):
        frame = noise_frame(FMT, seed=40)
        assert np.shares_memory(_plane_batch([frame], Channel.Y), frame.y)
        assert not np.shares_memory(
            _plane_batch([frame], Channel.Y, CON_8), frame.y)

    @pytest.mark.parametrize("op", INTRA_CASES, ids=lambda op: op.name)
    def test_intra(self, op):
        frame, snapshot = self.frozen_frame(41)
        VectorExecutor.intra(op, frame, ChannelSet.YUV)
        assert frame.equals(snapshot)

    @pytest.mark.parametrize("op", INTRA_CASES, ids=lambda op: op.name)
    def test_intra_into_sinks(self, op):
        """The faces writing into sinks read their (read-only) input
        and write nothing else: the frame and its edge-padded scratch
        copy come out as they went in."""
        frame, snapshot = self.frozen_frame(44)
        [sink] = garbage_sinks([frame], ChannelSet.YUV,
                               np.random.default_rng(44))
        VectorExecutor.wave_into(op, [(frame,)], ChannelSet.YUV,
                                 sink_planes([sink], ChannelSet.YUV),
                                 FaceScratch())
        assert frame.equals(snapshot)
        padded = padded_input(snapshot.plane(Channel.Y), op.neighbourhood)
        padded.flags.writeable = False
        before = padded.copy()
        out = np.empty(snapshot.plane(Channel.Y).shape, np.uint8)
        op.vector(padded, out, FaceScratch())
        assert np.array_equal(padded, before)
        assert np.array_equal(out, op.apply_vector(before))

    @pytest.mark.parametrize("op", list(INTER_OPS.values()),
                             ids=lambda op: op.name)
    def test_inter_and_inter_reduce(self, op):
        frame_a, snapshot_a = self.frozen_frame(42)
        frame_b, snapshot_b = self.frozen_frame(43)
        VectorExecutor.inter(op, frame_a, frame_b, ChannelSet.YUV)
        VectorExecutor.inter_reduce(op, frame_a, frame_b, ChannelSet.YUV)
        assert frame_a.equals(snapshot_a)
        assert frame_b.equals(snapshot_b)


class TestVectorVsCountedResults:
    def test_intra_grad_luma_agrees(self):
        frame = noise_frame(FMT, seed=34)
        vector = VectorExecutor.intra(INTRA_GRAD, frame)
        src, dst = planar_pair(frame)
        CountedExecutor().intra(INTRA_GRAD, src, dst)
        assert np.array_equal(dst.plane(Channel.Y), vector.y)

    def test_inter_add_luma_agrees(self):
        a = noise_frame(FMT, seed=35)
        b = noise_frame(FMT, seed=36)
        vector = VectorExecutor.inter(INTER_ADD, a, b)
        pa = PlanarFrame420.from_frame(a)
        pb = PlanarFrame420.from_frame(b, pa.counter)
        out = PlanarFrame420(FMT, pa.counter)
        CountedExecutor().inter(INTER_ADD, pa, pb, out)
        assert np.array_equal(out.plane(Channel.Y), vector.y)

    def test_intra_erode_vertical_scan_agrees(self):
        frame = noise_frame(FMT, seed=37)
        vector = VectorExecutor.intra(INTRA_ERODE, frame)
        src, dst = planar_pair(frame)
        CountedExecutor(scan=ScanOrder.VERTICAL).intra(INTRA_ERODE, src, dst)
        assert np.array_equal(dst.plane(Channel.Y), vector.y)


@pytest.mark.parametrize("kind", COUNTED_EXECUTOR_KINDS)
class TestAccessCounts:
    """Access-count laws hold for the scalar walk *and* the strip path."""

    def test_inter_y_three_per_pixel(self, kind):
        a = noise_frame(FMT, seed=38)
        pa = PlanarFrame420.from_frame(a)
        pb = PlanarFrame420.from_frame(a, pa.counter)
        out = PlanarFrame420(FMT, pa.counter)
        counted_executor(kind).inter(INTER_ABSDIFF, pa, pb, out)
        assert pa.counter.total == 3 * FMT.pixels

    def test_intra_con0_two_per_pixel(self, kind):
        frame = noise_frame(FMT, seed=39)
        src, dst = planar_pair(frame)
        counted_executor(kind).intra(INTRA_COPY, src, dst)
        assert src.counter.total == 2 * FMT.pixels

    def test_intra_con8_steady_state_four_per_pixel(self, kind):
        """3 fresh reads + 1 write per step; only the very first window
        pays the full 9-pixel fill (+6 accesses overall)."""
        frame = noise_frame(FMT, seed=40)
        src, dst = planar_pair(frame)
        counted_executor(kind).intra(INTRA_GRAD, src, dst)
        assert src.counter.total == 4 * FMT.pixels + 6

    def test_intra_con8_yuv_adds_half(self, kind):
        """4:2:0 chroma planes add a quarter of the luma traffic each."""
        frame = noise_frame(FMT, seed=41)
        src, dst = planar_pair(frame)
        counted_executor(kind).intra(INTRA_GRAD, src, dst, ChannelSet.YUV)
        luma_only = 4 * FMT.pixels + 6
        chroma = 2 * (4 * (FMT.pixels // 4) + 6)
        assert src.counter.total == luma_only + chroma

    def test_counted_matches_analytic_up_to_window_fill(self, kind):
        model = SoftwareCostModel()
        frame = noise_frame(FMT, seed=42)
        src, dst = planar_pair(frame)
        counted_executor(kind).intra(INTRA_GRAD, src, dst)
        ideal = model.intra_accesses(INTRA_GRAD, FMT)
        assert 0 <= src.counter.total - ideal <= 3 * CON_8.size


class TestAnalyticProfiles:
    def test_profile_loads_match_counted_reads(self):
        """The analytic instruction profile's load count equals the
        counted executor's reads (steady state)."""
        model = SoftwareCostModel()
        frame = noise_frame(FMT, seed=43)
        src, dst = planar_pair(frame)
        CountedExecutor().intra(INTRA_GRAD, src, dst)
        profile = model.intra_profile(INTRA_GRAD, FMT)
        assert profile.counts["load"] == pytest.approx(
            src.counter.total_reads, rel=0.03)
        assert profile.counts["store"] == src.counter.total_writes

    def test_inter_profile_loads(self):
        model = SoftwareCostModel()
        profile = model.inter_profile(INTER_ABSDIFF, FMT)
        assert profile.counts["load"] == 2 * FMT.pixels
        assert profile.counts["store"] == FMT.pixels
        assert profile.calls == 1

    def test_per_access_overhead_scales_with_accesses(self):
        from repro.addresslib import InstructionCost
        base = SoftwareCostModel()
        heavy = SoftwareCostModel(
            per_access_overhead=InstructionCost(alu=10))
        delta = (heavy.intra_profile(INTRA_GRAD, FMT).total_instructions
                 - base.intra_profile(INTRA_GRAD, FMT).total_instructions)
        assert delta == 10 * 4 * FMT.pixels  # 4 accesses/pixel x 10


class TestReductions:
    def test_inter_reduce_equals_manual_sum(self):
        a = noise_frame(FMT, seed=44)
        b = noise_frame(FMT, seed=45)
        total = VectorExecutor.inter_reduce(INTER_ABSDIFF, a, b)
        expected = int(np.abs(a.y.astype(int) - b.y.astype(int)).sum())
        assert total == expected

    def test_histogram_counts_every_pixel(self):
        frame = noise_frame(FMT, seed=46)
        hist = VectorExecutor.histogram(frame)
        assert hist.sum() == FMT.pixels
        assert hist[int(frame.y[0, 0])] >= 1


class TestFormatMismatch:
    def test_inter_rejects_size_mismatch(self):
        a = noise_frame(FMT, seed=47)
        b = noise_frame(ImageFormat("T6", 6, 6), seed=48)
        with pytest.raises(ValueError):
            VectorExecutor.inter(INTER_ADD, a, b)
