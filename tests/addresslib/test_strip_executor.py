"""Strip-vectorized counted executor: bit-exactness vs the scalar walk.

The contract under test is total: for every call the strip executor may
ever see, its outputs *and* its per-channel ``AccessCounter`` tallies
must be indistinguishable from the per-pixel serpentine walk -- the
Table 2 golden reference.  The harness drives the same randomized
corpus recipe as the scheduler/fast-path suites (seed family 0xFA57,
8 shards x 26 cases) through both executors under both scan orders,
plus hypothesis-driven degenerate geometries (1-pixel-wide,
1-pixel-tall, odd-dimension 4:2:0 planes) where clamping and line-turn
corrections are most fragile.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (COUNTED_EXECUTOR_KINDS, ChannelSet,
                              CountedExecutor, INTER_OPS, INTRA_GRAD,
                              INTRA_OPS, IntraOp, ScanOrder,
                              SoftwareCostModel, StripCountedExecutor,
                              counted_executor, diff_access_snapshots,
                              threshold_op)
from repro.image import (ALL_CHANNELS, Channel, ImageFormat,
                         PlanarFrame420, noise_frame)

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

SHARDS = 8
CASES_PER_SHARD = 26


def _random_counted_case(rng):
    """One corpus case (the 0xFA57 recipe's geometry) as a counted call."""
    width = rng.randrange(4, 25)
    height = rng.choice([8, 16, 24, 32, 33, 40, 48])
    fmt = ImageFormat(f"P{width}x{height}", width, height)
    frame_a = noise_frame(fmt, seed=rng.randrange(10_000))
    channels = rng.choice([ChannelSet.Y, ChannelSet.YUV])
    if rng.random() < 0.5:
        return ("intra", rng.choice(_INTRA), frame_a, None, channels)
    frame_b = noise_frame(fmt, seed=rng.randrange(10_000))
    return ("inter", rng.choice(_INTER), frame_a, frame_b, channels)


def _run_counted(executor, case):
    """Run one case on counted stores sharing a single counter."""
    kind, op, frame_a, frame_b, channels = case
    src = PlanarFrame420.from_frame(frame_a)
    dst = PlanarFrame420(frame_a.format, src.counter)
    if kind == "intra":
        executor.intra(op, src, dst, channels)
    else:
        src_b = PlanarFrame420.from_frame(frame_b, src.counter)
        executor.inter(op, src, src_b, dst, channels)
    return dst, src.counter.snapshot()


def _assert_case_equivalent(case, scan):
    scalar_out, scalar_counts = _run_counted(CountedExecutor(scan), case)
    strip_out, strip_counts = _run_counted(StripCountedExecutor(scan),
                                           case)
    for channel in ALL_CHANNELS:
        assert np.array_equal(strip_out.plane(channel),
                              scalar_out.plane(channel)), (
            f"{case[0]} {case[1].name} {scan} diverges on "
            f"{channel.name}")
    mismatches = diff_access_snapshots(scalar_counts, strip_counts)
    assert not mismatches, (
        f"{case[0]} {case[1].name} {scan} access counts: {mismatches}")


class TestCorpusEquivalence:
    """208-case corpus, both scan orders: outputs and tallies match."""

    @pytest.mark.parametrize("scan", list(ScanOrder),
                             ids=lambda scan: scan.value)
    @pytest.mark.parametrize("shard", range(SHARDS))
    def test_strip_matches_scalar_walk(self, shard, scan):
        rng = random.Random(0xFA57 + shard)
        for _ in range(CASES_PER_SHARD):
            _assert_case_equivalent(_random_counted_case(rng), scan)


class TestOutOfRangeThreshold:
    """``threshold_op`` levels outside 0..255: both faces write their
    8-bit images (300 -> 44, -3 -> 253), so the two counted executors
    agree on outputs and tallies."""

    @pytest.mark.parametrize("scan", list(ScanOrder),
                             ids=lambda scan: scan.value)
    def test_both_counted_executors_agree(self, scan):
        op = threshold_op(7, low=-3, high=300)
        frame = noise_frame(ImageFormat("T13x9", 13, 9), seed=9)
        case = ("intra", op, frame, None, ChannelSet.YUV)
        _assert_case_equivalent(case, scan)
        out, _ = _run_counted(CountedExecutor(scan), case)
        assert set(np.unique(out.plane(Channel.Y))) == {44, 253}


# Degenerate geometries: single-pixel lines and odd 4:2:0 dimensions,
# where border clamping covers the whole window and the serpentine walk
# degenerates to turn steps only.
degenerate_dims = st.one_of(
    st.tuples(st.just(1), st.integers(1, 40)),        # 1-pixel-wide
    st.tuples(st.integers(1, 40), st.just(1)),        # 1-pixel-tall
    st.tuples(st.integers(1, 12).map(lambda n: 2 * n - 1),
              st.integers(1, 12).map(lambda n: 2 * n - 1)),  # odd 4:2:0
)
intra_ops = st.sampled_from(_INTRA)
inter_ops = st.sampled_from(_INTER)
scans = st.sampled_from(list(ScanOrder))
channel_sets = st.sampled_from([ChannelSet.Y, ChannelSet.YUV])


class TestDegenerateGeometries:
    @given(dims=degenerate_dims, op=intra_ops, scan=scans,
           channels=channel_sets, seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_intra_outputs_and_counts_match(self, dims, op, scan,
                                            channels, seed):
        width, height = dims
        fmt = ImageFormat(f"D{width}x{height}", width, height)
        frame = noise_frame(fmt, seed=seed)
        _assert_case_equivalent(("intra", op, frame, None, channels),
                                scan)

    @given(dims=degenerate_dims, op=inter_ops, scan=scans,
           channels=channel_sets, seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_inter_outputs_and_counts_match(self, dims, op, scan,
                                            channels, seed):
        width, height = dims
        fmt = ImageFormat(f"D{width}x{height}", width, height)
        frame_a = noise_frame(fmt, seed=seed)
        frame_b = noise_frame(fmt, seed=seed + 1)
        _assert_case_equivalent(("inter", op, frame_a, frame_b, channels),
                                scan)

    @given(dims=degenerate_dims, op=intra_ops, scan=scans,
           seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_cost_model_prediction_is_exact(self, dims, op, scan, seed):
        """``intra_counts_exact`` equals the measured snapshot of *both*
        executors, even where every window is fully clamped."""
        width, height = dims
        fmt = ImageFormat(f"D{width}x{height}", width, height)
        frame = noise_frame(fmt, seed=seed)
        expected = SoftwareCostModel().intra_counts_exact(
            op, fmt, ChannelSet.YUV, scan)
        for kind in COUNTED_EXECUTOR_KINDS:
            _, counts = _run_counted(
                counted_executor(kind, scan),
                ("intra", op, frame, None, ChannelSet.YUV))
            assert not diff_access_snapshots(expected, counts), kind


class TestStripGranularity:
    """Strip height must not change results or tallies."""

    @pytest.mark.parametrize("strip_lines", [1, 3, 16, 1000])
    def test_any_strip_height_is_bit_exact(self, strip_lines):
        fmt = ImageFormat("G23x33", 23, 33)
        frame = noise_frame(fmt, seed=7)
        for scan in ScanOrder:
            case = ("intra", INTRA_GRAD, frame, None, ChannelSet.YUV)
            scalar_out, scalar_counts = _run_counted(
                CountedExecutor(scan), case)
            strip_out, strip_counts = _run_counted(
                StripCountedExecutor(scan, strip_lines=strip_lines),
                case)
            assert np.array_equal(strip_out.plane(ALL_CHANNELS[0]),
                                  scalar_out.plane(ALL_CHANNELS[0]))
            assert not diff_access_snapshots(scalar_counts, strip_counts)

    def test_rejects_non_positive_strip_lines(self):
        with pytest.raises(ValueError):
            StripCountedExecutor(strip_lines=0)


class TestFactoryKnob:
    def test_kinds(self):
        assert isinstance(counted_executor("scalar"), CountedExecutor)
        assert isinstance(counted_executor("strip"), StripCountedExecutor)
        assert isinstance(counted_executor(), StripCountedExecutor)

    def test_scan_and_options_thread_through(self):
        strip = counted_executor("strip", ScanOrder.VERTICAL,
                                 strip_lines=4, validate=True)
        assert strip.scan is ScanOrder.VERTICAL
        assert strip.strip_lines == 4
        assert strip.validate is True
        scalar = counted_executor("scalar", ScanOrder.VERTICAL)
        assert scalar.scan is ScanOrder.VERTICAL

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            counted_executor("vector")


class TestValidateMode:
    """``validate=True`` shadow-runs the scalar walk and must catch both
    output and access-count divergence."""

    def _planar_pair(self, fmt, seed):
        frame = noise_frame(fmt, seed=seed)
        src = PlanarFrame420.from_frame(frame)
        dst = PlanarFrame420(fmt, src.counter)
        return src, dst

    def test_clean_call_passes(self):
        fmt = ImageFormat("V13x9", 13, 9)
        src, dst = self._planar_pair(fmt, seed=3)
        StripCountedExecutor(validate=True).intra(
            INTRA_GRAD, src, dst, ChannelSet.YUV)

    def test_output_divergence_raises(self):
        broken = IntraOp(
            name="intra_broken_vector",
            neighbourhood=INTRA_GRAD.neighbourhood,
            scalar=INTRA_GRAD.scalar,
            vector=lambda padded: (INTRA_GRAD.vector(padded) + 1)
            .astype(np.uint8),
            cost=INTRA_GRAD.cost)
        fmt = ImageFormat("V12x8", 12, 8)
        src, dst = self._planar_pair(fmt, seed=4)
        with pytest.raises(AssertionError, match="diverges"):
            StripCountedExecutor(validate=True).intra(broken, src, dst)

    def test_count_divergence_raises(self):
        class Misaccounting(StripCountedExecutor):
            def _intra_plane(self, op, frame, output, channel):
                super()._intra_plane(op, frame, output, channel)
                frame.counter.credit_reads(channel, 1)  # seeded bug

        fmt = ImageFormat("V12x8", 12, 8)
        src, dst = self._planar_pair(fmt, seed=5)
        with pytest.raises(AssertionError, match="access counts"):
            Misaccounting(validate=True).intra(INTRA_GRAD, src, dst)
