"""Executors: vector vs counted-scalar equivalence and access counts.

The key consistency contract of the whole reproduction: the fast numpy
executor, the counted per-pixel executor, and the analytic cost model
must agree -- on results where representations allow, and on the memory
access counts that become Table 2.
"""

import numpy as np
import pytest

from repro.addresslib import (COLUMN_9, CON_0, CON_4, CON_8, CON_24,
                              COUNTED_EXECUTOR_KINDS, ChannelSet,
                              CountedExecutor, INTER_ABSDIFF, INTER_ADD,
                              INTER_OPS, INTRA_COPY, INTRA_ERODE,
                              INTRA_GRAD, INTRA_OPS, ScanOrder,
                              SoftwareCostModel, VectorExecutor,
                              counted_executor, fir_op, neighbourhood_stack,
                              neighbourhood_stack_shifted, scale_offset_op,
                              serpentine_positions, threshold_op)
from repro.image import (ALL_CHANNELS, Channel, Frame, ImageFormat,
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


class TestNeighbourhoodStack:
    def test_centre_plane_is_original(self):
        frame = noise_frame(FMT, seed=31)
        stack = neighbourhood_stack(frame.y, CON_8)
        centre = CON_8.offsets.index((0, 0))
        assert np.array_equal(stack[centre], frame.y)

    def test_shift_semantics(self):
        frame = noise_frame(FMT, seed=32)
        stack = neighbourhood_stack(frame.y, CON_8)
        right = CON_8.offsets.index((1, 0))
        assert np.array_equal(stack[right][:, :-1], frame.y[:, 1:])

    def test_border_clamping(self):
        frame = noise_frame(FMT, seed=33)
        stack = neighbourhood_stack(frame.y, CON_8)
        left = CON_8.offsets.index((-1, 0))
        assert np.array_equal(stack[left][:, 0], frame.y[:, 0])


class TestWindowedVsShiftedStack:
    """The sliding-window fast path against the shifted-plane reference.

    The windowed implementation (one edge pad + strided views) must be
    bit-identical to the per-offset clamped-shift reference for every
    named neighbourhood over the corpus geometries -- it replaced the
    reference on the executor's hot path, so any divergence is a
    correctness bug, not a tolerance.
    """

    GEOMETRIES = [(4, 8), (5, 33), (12, 8), (24, 48), (176, 144)]
    NEIGHBOURHOODS = [CON_0, CON_4, CON_8, CON_24, COLUMN_9]

    @pytest.mark.parametrize("width,height", GEOMETRIES)
    @pytest.mark.parametrize("nb", NEIGHBOURHOODS,
                             ids=lambda nb: nb.name)
    def test_bit_identical_stacks(self, width, height, nb):
        fmt = ImageFormat(f"W{width}x{height}", width, height)
        plane = noise_frame(fmt, seed=width * 1000 + height).y
        fast = neighbourhood_stack(plane, nb)
        reference = neighbourhood_stack_shifted(plane, nb)
        assert fast.shape == reference.shape
        assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("nb", NEIGHBOURHOODS, ids=lambda nb: nb.name)
    def test_batched_stack_matches_per_plane_reference(self, nb):
        """A ``(B, H, W)`` batch stacks to ``(K, B, H, W)``: item ``b``
        is plane ``b``'s reference stack (no value crosses items)."""
        fmt = ImageFormat("W5x33", 5, 33)
        planes = np.stack([noise_frame(fmt, seed=seed).y
                           for seed in (1, 2, 3)])
        batched = neighbourhood_stack(planes, nb)
        assert batched.shape == (nb.size,) + planes.shape
        for index, plane in enumerate(planes):
            assert np.array_equal(batched[:, index],
                                  neighbourhood_stack_shifted(plane, nb))

    def test_intra_ops_unchanged_by_fast_path(self):
        frame = noise_frame(ImageFormat("W24x33", 24, 33), seed=77)
        for op in sorted(INTRA_OPS.values(), key=lambda op: op.name):
            via_fast = VectorExecutor.intra(op, frame)
            expected = frame.copy()
            stack = neighbourhood_stack_shifted(frame.y, op.neighbourhood)
            expected.y[:] = op.apply_vector(stack)
            assert via_fast.equals(expected)


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
        assert np.array_equal(neighbourhood_stack(plane, nb),
                              neighbourhood_stack_shifted(plane, nb))


class TestInputsUntouched:
    """The executor never writes an input plane: kernels never write
    into their stack, and a CON_0 stack is the caller's plane itself.
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

    def test_con0_stack_aliases_the_plane(self):
        frame = noise_frame(FMT, seed=40)
        assert np.shares_memory(neighbourhood_stack(frame.y, CON_0),
                                frame.y)

    @pytest.mark.parametrize("op", INTRA_CASES, ids=lambda op: op.name)
    def test_intra(self, op):
        frame, snapshot = self.frozen_frame(41)
        VectorExecutor.intra(op, frame, ChannelSet.YUV)
        assert frame.equals(snapshot)

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
