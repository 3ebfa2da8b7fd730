"""Serial results share the planes their call leaves untouched.

A frame result of :meth:`VectorExecutor.wave` -- and so of the software
backend, the engine backend's functional branch and every path built on
them -- holds the planes its op computes and its first input's other
planes, *lent*: where the input alone holds a plane (or shares it
already), the input and the result both hold it read-only, marked
shared, and :meth:`Frame.plane` copies it before any write on either
side.  A plane something else holds -- a held plane, a row view, a
memoryview, a plane over a larger buffer, a plane dict two frames wrap
-- is copied instead.  These tests hold lending to behave exactly like
a private copy, against content models made of deep copies.  A luma
frame (``frame_from_luma``) is born sharing: only its Y plane is its
own, and its U, V, Alfa and Aux are the read-only neutral planes every
luma frame of its geometry shares.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (AddressLib, BatchCall, ChannelSet,
                              INTER_ABSDIFF, INTER_AVG, INTRA_BOX3,
                              INTRA_GRAD, INTRA_SOBEL_X, INTRA_SOBEL_Y,
                              SoftwareBackend, VectorExecutor)
from repro.addresslib.segment import (SegmentProcessor,
                                      luma_band_criterion,
                                      luma_delta_criterion,
                                      yuv_delta_criterion)
from repro.core.segment_unit import SegmentCallConfig, SegmentUnit
from repro.gme.estimation import GlobalMotionEstimator
from repro.host import AddressEngineDriver, EngineBackend
from repro.host import SHARED_MEMORY_AVAILABLE, shm
from repro.image import (CIF, Frame, ImageFormat, frame_from_luma,
                         frame_to_rgb, noise_frame, write_yuv420)
from repro.image import synth
from repro.image.pixel import ALL_CHANNELS, Channel, Pixel
from repro.segmentation.region_grow import RegionGrowSegmenter
from repro.segmentation.workload import profile_segmentation_workload

FMT = ImageFormat("S20x18", 20, 18)
EVERY_CHANNEL = frozenset(ALL_CHANNELS)
LUMA = frozenset({Channel.Y})
YUV = frozenset({Channel.Y, Channel.U, Channel.V})

#: Each call kind: how to build it from a first and second input, and
#: the channels it computes (``None`` for a reduce).
CALLS = {
    "intra_y": (lambda a, b: BatchCall.intra(INTRA_BOX3, a), LUMA),
    "intra_yuv": (lambda a, b: BatchCall.intra(INTRA_GRAD, a,
                                               ChannelSet.YUV), YUV),
    "inter_y": (lambda a, b: BatchCall.inter(INTER_ABSDIFF, a, b), LUMA),
    "inter_yuv": (lambda a, b: BatchCall.inter(INTER_AVG, a, b,
                                               ChannelSet.YUV), YUV),
    "reduce": (lambda a, b: BatchCall.inter_reduce(INTER_ABSDIFF, a, b,
                                                   ChannelSet.YUV), None),
}
FRAME_CALLS = sorted(name for name, (_, computed) in CALLS.items()
                     if computed is not None)


def _library(backend):
    return lambda calls: AddressLib(backend()).run_batch(calls)


def _wave(calls):
    head = calls[0]
    return VectorExecutor.wave(head.op, [call.frames for call in calls],
                               head.channels, head.reduce_to_scalar)


#: Every serial path that builds results: a run of same-configuration
#: calls through each backend, and the executor's wave itself.
RUNNERS = {
    "software": _library(SoftwareBackend),
    "engine": _library(lambda: EngineBackend(AddressEngineDriver())),
    "engine_chained": _library(lambda: EngineBackend(
        AddressEngineDriver(), chain_frames=True)),
    "wave": _wave,
}


def _deep(frame):
    """A deep copy of ``frame``'s content, read without copying it."""
    return Frame.of_planes(frame.format, {
        channel: frame.read_plane(channel).copy()
        for channel in ALL_CHANNELS})


def _golden(calls):
    """The calls' results computed on deep copies of their inputs, and
    deep-copied again: content only, sharing nothing with the frames
    under test."""
    copies = {}
    for call in calls:
        for frame in call.frames:
            copies.setdefault(id(frame), _deep(frame))
    results = _wave([dataclasses.replace(
        call, frames=tuple(copies[id(frame)] for frame in call.frames))
        for call in calls])
    return [result if isinstance(result, int) else _deep(result)
            for result in results]


def _wave_of(kind, size, seed=1):
    """``size`` calls of one kind: two first inputs (the first used
    twice in a wave of three) and one second input."""
    build, _ = CALLS[kind]
    firsts = [noise_frame(FMT, seed=seed), noise_frame(FMT, seed=seed + 1)]
    second = noise_frame(FMT, seed=seed + 2)
    pick = [firsts[0], firsts[1], firsts[0]][:size]
    return firsts + [second], [build(first, second) for first in pick]


def _same_planes(frame, model):
    return all(np.array_equal(frame.read_plane(channel),
                              model.read_plane(channel))
               for channel in ALL_CHANNELS)


# ---------------------------------------------------------------------------
# Which planes a result shares
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", (1, 3))
@pytest.mark.parametrize("kind", sorted(CALLS))
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_a_result_shares_exactly_its_untouched_channels(runner, kind, size):
    """Each result shares exactly its untouched channels with its
    first input, and owns each computed plane: an array of its own,
    not an item of the wave's batch, so no result pins its siblings'
    planes, and the result can lend that plane in turn."""
    inputs, calls = _wave_of(kind, size)
    models = [_deep(frame) for frame in inputs]
    want = _golden(calls)
    results = RUNNERS[runner](calls)
    computed = CALLS[kind][1]
    if computed is None:
        assert results == want
        assert not any(frame.shared_channels for frame in inputs)
    else:
        untouched = EVERY_CHANNEL - computed
        for call, result, expected in zip(calls, results, want):
            assert _same_planes(result, expected)
            assert result.shared_channels == untouched
            first = call.frames[0]
            assert first.shared_channels == untouched
            for channel in untouched:
                plane = result.read_plane(channel)
                assert plane is first.read_plane(channel)
                assert not plane.flags.writeable
            for channel in computed:
                plane = result.read_plane(channel)
                assert plane.flags.writeable
                assert plane.flags.owndata and plane.base is None
                assert not any(
                    np.shares_memory(plane, other.read_plane(c))
                    for other in inputs + [r for r in results
                                           if r is not result]
                    for c in ALL_CHANNELS)
        assert not inputs[-1].shared_channels  # a second input lends none
    for frame, model in zip(inputs, models):
        assert _same_planes(frame, model)


# ---------------------------------------------------------------------------
# Writes reach only the frame written
# ---------------------------------------------------------------------------

def _write_plane(frame):
    frame.plane(Channel.U)[...] ^= 0x5A


def _write_u(frame):
    frame.u[1:4, 2:6] ^= 0x0F


def _write_alfa(frame):
    frame.alfa[::2] += 3


def _set_pixel(frame):
    old = frame.get_pixel(2, 1)
    frame.set_pixel(2, 1, Pixel(old.y ^ 1, old.u ^ 1, old.v, old.alfa ^ 1,
                                old.aux ^ 1))


def _fill(frame):
    frame.fill(Pixel(7, 8, 9, 10, 11))


WRITES = {"plane": _write_plane, "u": _write_u, "alfa": _write_alfa,
          "set_pixel": _set_pixel, "fill": _fill}


def _written(frame, write):
    """A deep copy of ``frame`` with ``write`` applied: what the frame
    must read after the same write."""
    model = _deep(frame)
    write(model)
    return model


@pytest.mark.parametrize("write", sorted(WRITES))
@pytest.mark.parametrize("kind", FRAME_CALLS)
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_a_write_on_the_input_reaches_no_result(runner, kind, write):
    inputs, calls = _wave_of(kind, 3)
    results = RUNNERS[runner](calls)
    kept = [_deep(result) for result in results]
    source = inputs[0]
    want = _written(source, WRITES[write])

    WRITES[write](source)

    assert _same_planes(source, want)
    for result, model in zip(results, kept):
        assert _same_planes(result, model)


@pytest.mark.parametrize("write", sorted(WRITES))
@pytest.mark.parametrize("kind", FRAME_CALLS)
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_a_write_on_a_result_reaches_nothing_it_shares(runner, kind, write):
    """A result written is seen from nothing else: not its input, not
    its siblings of the wave, not a later result of the same input, nor
    a result computed from it."""
    inputs, calls = _wave_of(kind, 3)
    results = RUNNERS[runner](calls)
    build, _ = CALLS[kind]
    later = RUNNERS[runner]([build(inputs[0], inputs[-1])])
    derived = RUNNERS[runner]([build(results[0], inputs[-1])])
    others = inputs + results[1:] + later + derived
    kept = [_deep(frame) for frame in others]
    want = _written(results[0], WRITES[write])

    WRITES[write](results[0])

    assert _same_planes(results[0], want)
    for frame, model in zip(others, kept):
        assert _same_planes(frame, model)


# ---------------------------------------------------------------------------
# Aliases: just the aliased plane is copied
# ---------------------------------------------------------------------------

def _held_plane(frame):
    alias = frame.u

    def write():
        alias[2:5, 1:4] ^= 0x5A
    return frame, write, {Channel.U}


def _row_view(frame):
    row = frame.plane(Channel.V)[3]

    def write():
        row[:] ^= 0x0F
    return frame, write, {Channel.V}


def _memoryview(frame):
    view = memoryview(frame.alfa)

    def write():
        np.asarray(view)[::2] += 7
    return frame, write, {Channel.ALFA}


def _larger_buffer(frame):
    big = np.zeros((FMT.height + 4, FMT.width), dtype=np.uint16)
    big[2:-2] = frame.read_plane(Channel.AUX)
    planes = {channel: frame.read_plane(channel).copy()
              for channel in ALL_CHANNELS}
    planes[Channel.AUX] = big[2:-2]

    def write():
        big[4:7] ^= 0x3333
    return Frame.of_planes(FMT, planes), write, {Channel.AUX}


def _shared_dict(frame):
    planes = {channel: frame.read_plane(channel).copy()
              for channel in ALL_CHANNELS}
    twin = Frame.of_planes(FMT, planes)

    def write():
        twin.plane(Channel.U)[...] ^= 0x21
    return Frame.of_planes(FMT, planes), write, EVERY_CHANNEL


ALIASES = {"held_plane": _held_plane, "row_view": _row_view,
           "memoryview": _memoryview, "larger_buffer": _larger_buffer,
           "shared_dict": _shared_dict}


@pytest.mark.parametrize("kind", FRAME_CALLS)
@pytest.mark.parametrize("alias", sorted(ALIASES))
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_an_alias_makes_just_its_plane_a_copy(runner, alias, kind):
    frame, write_through_alias, aliased = ALIASES[alias](
        noise_frame(FMT, seed=61))
    other = noise_frame(FMT, seed=62)
    build, computed = CALLS[kind]
    call = build(frame, other)
    want = _golden([call])[0]
    result = RUNNERS[runner]([call])[0]
    untouched = EVERY_CHANNEL - computed

    assert result.shared_channels == untouched - aliased
    assert frame.shared_channels == untouched - aliased
    for channel in untouched & aliased:
        assert not np.shares_memory(result.read_plane(channel),
                                    frame.read_plane(channel))
    model = _deep(frame)
    write_through_alias()
    assert not _same_planes(frame, model)
    assert _same_planes(result, want)


# ---------------------------------------------------------------------------
# Property: calls, writes, aliases and registrations against a model
# ---------------------------------------------------------------------------

SMALL = ImageFormat("S7x5", 7, 5)
POOL = 6

_indices = st.integers(0, POOL - 1)
_pixels = st.tuples(st.integers(0, SMALL.height - 1),
                    st.integers(0, SMALL.width - 1), st.integers(0, 255))
_steps = st.one_of(
    st.tuples(st.just("call"), st.sampled_from(sorted(CALLS)), _indices,
              _indices),
    st.tuples(st.just("write"), _indices, st.sampled_from(ALL_CHANNELS),
              _pixels),
    st.tuples(st.just("alias"), _indices,
              st.sampled_from(["plane", "row", "memoryview"]),
              st.sampled_from(ALL_CHANNELS)),
    st.tuples(st.just("alias_write"), st.integers(0, 7), _pixels),
    st.tuples(st.just("drop_alias"), st.integers(0, 7)),
    st.tuples(st.just("ship"), _indices),
)


def _take_alias(frame, kind, channel, row):
    plane = frame.plane(channel)
    if kind == "row":
        return plane[row]
    return memoryview(plane) if kind == "memoryview" else plane


def _alias_write(held, row, column, value):
    """Write through one held alias and into its frame's model.
    (Helpers keep the test's own frames free of references.)"""
    _, model, kind, channel, alias_row, alias = held
    if kind == "plane":
        alias[row, column] = value
    elif kind == "row":
        alias[column] = value
        row = alias_row
    else:
        np.asarray(alias)[row, column] = value
    model.plane(channel)[row, column] = value


def _run_step_call(lib, kind, first, second):
    build, _ = CALLS[kind]
    call = build(first, second)
    if call.reduce_to_scalar:
        return lib.inter_reduce(call.op, first, second, call.channels)
    if len(call.frames) == 1:
        return lib.intra(call.op, first, call.channels)
    return lib.inter(call.op, first, second, call.channels)


@settings(max_examples=150, deadline=None)
@given(st.lists(_steps, min_size=1, max_size=25))
def test_lent_planes_track_every_frames_content(steps):
    """Whatever is called, written, aliased and shipped, every frame
    -- inputs and results -- reads as its model of deep copies, every
    reduce equals the model's, each ship puts the model's content where
    a worker reads it, and a plane an alias reaches is never shared."""
    frames = [noise_frame(SMALL, seed=70 + i) for i in range(2)]
    models = [_deep(frame) for frame in frames]
    aliases = []  # (frame, its model, kind, channel, row, alias)
    lib = AddressLib(SoftwareBackend())
    store = shm.PlaneStore()
    try:
        for step in steps:
            if step[0] == "call":
                _, kind, i, j = step
                first = frames[i % len(frames)]
                second = frames[j % len(frames)]
                want = _golden([CALLS[kind][0](first, second)])[0]
                got = _run_step_call(lib, kind, first, second)
                if isinstance(want, int):
                    assert got == want
                elif len(frames) < POOL:
                    frames.append(got)
                    models.append(want)
                else:  # the oldest result leaves the pool
                    frames[2:] = frames[3:] + [got]
                    models[2:] = models[3:] + [want]
            elif step[0] == "write":
                _, i, channel, (row, column, value) = step
                i %= len(frames)
                frames[i].plane(channel)[row, column] = value
                models[i].plane(channel)[row, column] = value
            elif step[0] == "alias":
                _, i, kind, channel = step
                i %= len(frames)
                row = len(aliases) % SMALL.height
                aliases.append((frames[i], models[i], kind, channel, row,
                                _take_alias(frames[i], kind, channel, row)))
            elif step[0] == "alias_write" and aliases:
                _, index, (row, column, value) = step
                _alias_write(aliases[index % len(aliases)], row, column,
                             value)
            elif step[0] == "drop_alias" and aliases:
                del aliases[step[1] % len(aliases)]
            elif step[0] == "ship" and SHARED_MEMORY_AVAILABLE:
                i = step[1] % len(frames)
                assert _same_planes(_shipped(store, frames[i]), models[i])
            for frame, model in zip(frames, models):
                assert _same_planes(frame, model)
            # A frame out of the pool may live on in an alias.  (No
            # loop variable may outlive these checks: it would hold an
            # alias of its own.)
            assert all(_same_planes(held[0], held[1]) for held in aliases)
            assert not any(held[3] in held[0].shared_channels
                           for held in aliases)
    finally:
        aliases.clear()
        store.close()


def _shipped(store, frame):
    """``frame`` as a scheduler worker reads it: all five planes copied
    into an input region and viewed through a mapping of its own."""
    name, offsets = store.write_region(
        0, [frame.read_plane(channel) for channel in ALL_CHANNELS])
    return shm.worker_frame(shm.worker_region(name), frame.format,
                            ALL_CHANNELS, offsets)


# ---------------------------------------------------------------------------
# Memory: untouched planes are not copied
# ---------------------------------------------------------------------------

def test_a_batch_of_luma_results_holds_only_its_luma():
    """48 Y-only intra calls over 12 CIF frames, every result kept: no
    U, V, Alfa or Aux plane is allocated -- each result holds its
    input's -- and the traced heap grows by the 48 computed Y planes
    and a tenth more, not by 48 copies of U, V, Alfa and Aux (about 7x
    as much)."""
    frames = [noise_frame(CIF, seed=seed) for seed in range(12)]
    calls = [BatchCall.intra(op, frames[index % len(frames)])
             for op in (INTRA_BOX3, INTRA_GRAD, INTRA_SOBEL_X, INTRA_SOBEL_Y)
             for index in range(12)]
    lib = AddressLib(SoftwareBackend())
    lib.run_batch(calls[:1])  # the op's first run builds its books
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = lib.run_batch(calls)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results) == 48
    for call, result in zip(calls, results):
        assert result.shared_channels == EVERY_CHANNEL - LUMA
        assert all(result.read_plane(channel)
                   is call.frames[0].read_plane(channel)
                   for channel in EVERY_CHANNEL - LUMA)
    assert grown <= 1.1 * 48 * CIF.pixels


# ---------------------------------------------------------------------------
# Readers copy no shared plane
# ---------------------------------------------------------------------------

READER_FMT = ImageFormat("S40x32", 40, 32)
SEEDS = [(3, 4), (30, 20)]


def _pairs(frame):
    return [((x, y), (x + 1, y)) for y in range(0, frame.height, 5)
            for x in range(0, frame.width - 1, 3)]


def _criteria(frame, tmp_path):
    tests = (luma_delta_criterion(40), yuv_delta_criterion(40, 60),
             luma_band_criterion(128, 50))
    return [np.array([criterion(frame, centre, neighbour)
                      for centre, neighbour in _pairs(frame)])
            for criterion in tests]


def _segment_statistics(frame, tmp_path):
    result = SegmentProcessor().expand(frame, SEEDS,
                                       luma_delta_criterion(40))
    return [result.labels, np.array([
        result.statistics.mean_luma(i) for i in range(len(SEEDS))])]


def _segment_unit(frame, tmp_path):
    return [SegmentUnit().run_call(
        SegmentCallConfig(frame.format, 40), frame, SEEDS).labels]


def _pyramid(frame, tmp_path):
    estimator = GlobalMotionEstimator(AddressLib())
    return [level.luma for level in estimator.build_pyramid(frame)]


def _gme_pair(frame, tmp_path):
    estimator = GlobalMotionEstimator(AddressLib())
    estimate = estimator.estimate_pair(estimator.build_pyramid(frame),
                                       estimator.build_pyramid(frame))
    return [estimate.blend_mask, estimate.model.parameters]


def _segmentation(frame, tmp_path):
    return [RegionGrowSegmenter(AddressLib()).segment_frame(frame).labels]


def _segmentation_workload(frame, tmp_path):
    profile = profile_segmentation_workload(frame)
    return [profile.segmentation.labels,
            np.array([profile.total_instructions])]


def _yuv420(frame, tmp_path):
    path = tmp_path / "clip.yuv"
    write_yuv420(path, [frame])
    return [np.frombuffer(path.read_bytes(), dtype=np.uint8)]


def _rgb(frame, tmp_path):
    return [frame_to_rgb(frame)]


READERS = {"criteria": _criteria, "segment_statistics": _segment_statistics,
           "segment_unit": _segment_unit, "pyramid": _pyramid,
           "gme_pair": _gme_pair, "segmentation": _segmentation,
           "segmentation_workload": _segmentation_workload,
           "yuv420": _yuv420, "rgb": _rgb}


def _smooth_frame(seed):
    """Noise smoothed enough for the segmenters to grow regions."""
    frame = noise_frame(READER_FMT, seed=seed)
    for channel in ALL_CHANNELS:
        plane = frame.plane(channel)
        plane[...] = (plane // 32) * 32
    return frame


@pytest.mark.parametrize("holder", ["lent", "result", "luma"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_reader_copies_no_shared_plane(reader, holder, tmp_path):
    """Each library reader returns on a frame sharing planes the same
    bits as on a private copy, and leaves every shared plane shared."""
    frame = _smooth_frame(81)
    if holder == "result":
        frame = VectorExecutor.intra(INTRA_BOX3, frame)
    elif holder == "luma":
        frame = frame_from_luma(READER_FMT, frame.read_plane(Channel.Y))
    else:
        VectorExecutor.intra(INTRA_BOX3, frame)
    shared = frame.shared_channels
    assert shared
    planes = {channel: frame.read_plane(channel) for channel in shared}
    want = READERS[reader](_deep(frame), tmp_path)
    got = READERS[reader](frame, tmp_path)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert frame.shared_channels == shared
    assert all(frame.read_plane(channel) is plane
               for channel, plane in planes.items())


# ---------------------------------------------------------------------------
# Luma frames share their neutral planes
# ---------------------------------------------------------------------------

NEUTRAL = {Channel.U: 128, Channel.V: 128, Channel.ALFA: 0, Channel.AUX: 0}


def _luma_frame(seed, fmt=FMT):
    return frame_from_luma(
        fmt, noise_frame(fmt, seed=seed).read_plane(Channel.Y))


def test_a_luma_frame_allocates_only_its_luma():
    first, second = _luma_frame(1), _luma_frame(2)
    twin = frame_from_luma(ImageFormat("twin", FMT.width, FMT.height),
                           first.read_plane(Channel.Y))
    for frame in (first, second, twin):
        assert frame.shared_channels == EVERY_CHANNEL - LUMA
        assert frame.read_plane(Channel.Y).flags.writeable
        for channel, value in NEUTRAL.items():
            plane = frame.read_plane(channel)
            assert not plane.flags.writeable
            assert (plane == value).all()
            # Shared by geometry, whatever the format object.
            assert plane is first.read_plane(channel)
    assert not np.shares_memory(first.read_plane(Channel.Y),
                                twin.read_plane(Channel.Y))


@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_write_on_a_luma_frame_reaches_no_other(write):
    """``.u``, ``.alfa``, ``plane()``, ``set_pixel`` and ``fill`` copy
    a neutral plane before writing it: no other luma frame of the
    geometry, old or new, sees the write."""
    frame, other = _luma_frame(1), _luma_frame(2)
    kept = _deep(other)
    want = _written(frame, WRITES[write])

    WRITES[write](frame)

    assert _same_planes(frame, want)
    assert _same_planes(other, kept)
    assert _same_planes(_luma_frame(2), kept)
    assert all((other.read_plane(channel) == value).all()
               for channel, value in NEUTRAL.items())


@pytest.mark.parametrize("kind", sorted(CALLS))
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_calls_on_luma_frames_equal_calls_on_their_copies(runner, kind):
    build, _ = CALLS[kind]
    first, second = _luma_frame(4), _luma_frame(5)
    copies = first.copy(), second.copy()
    got = RUNNERS[runner]([build(first, second), build(second, first)])
    want = RUNNERS[runner]([build(*copies), build(*reversed(copies))])
    for result, expected in zip(got, want):
        if isinstance(expected, int):
            assert result == expected
        else:
            assert _same_planes(result, expected)


def test_the_neutral_plane_cache_is_bounded():
    """Frames of more geometries than the cache holds leave it at its
    bound, and a frame of an evicted geometry keeps its planes."""
    bound = synth._neutral_planes.cache_info().maxsize
    frames = [frame_from_luma(ImageFormat(f"N{width}", width, 3),
                              np.full((3, width), 9.0))
              for width in range(1, bound + 4)]
    assert synth._neutral_planes.cache_info().currsize <= bound
    for frame in frames:
        assert (frame.read_plane(Channel.Y) == 9).all()
        assert all((frame.read_plane(channel) == value).all()
                   for channel, value in NEUTRAL.items())
