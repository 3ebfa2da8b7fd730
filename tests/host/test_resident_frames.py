"""Inputs ship to the workers by value, and keep their own planes.

The scheduler copies the planes a worker's run reads into that
worker's input region each wave, as the board's host ships each
call's input into its banks: shipping swaps none of a frame's planes,
so a frame shares memory only with the results it lends its untouched
planes to (:meth:`~repro.image.frame.Frame.pass_through`).  Whatever
writes a frame between batches -- any public accessor, or an outside
alias: a held plane, a row view, a memoryview, a plane over a larger
buffer, a plane dict two frames wrap -- the next batch's worker reads
the new content, and earlier results keep the old.
"""

import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (AddressLib, BatchCall, ChannelSet,
                              INTER_ABSDIFF, INTRA_BOX3, INTRA_GRAD,
                              INTRA_SOBEL_X, SoftwareBackend)
from repro.host import CallScheduler, SHARED_MEMORY_AVAILABLE
from repro.host import shm
from repro.image import Frame, ImageFormat, noise_frame
from repro.image.pixel import ALL_CHANNELS, Channel, Pixel

pytestmark = pytest.mark.skipif(not SHARED_MEMORY_AVAILABLE,
                                reason="no POSIX shared memory")

FMT = ImageFormat("S20x18", 20, 18)
EVERY_CHANNEL = frozenset(ALL_CHANNELS)


@pytest.fixture(scope="module")
def two_or_more_cpus():
    """At least two engines, so the scheduler ships to a worker."""
    cpus = os.cpu_count() or 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.host.scheduler.os.cpu_count",
                      lambda: max(2, cpus))
        yield


@pytest.fixture(scope="module")
def module_scheduler(two_or_more_cpus):
    with CallScheduler(max_workers=2) as sched:
        yield sched


@pytest.fixture
def sched(module_scheduler, monkeypatch):
    """The module's scheduler with a fixed two-engine cut: the first
    half of each wave on the worker, the rest in the parent."""
    def halves(calls, indices, overlapped):
        half = max(1, len(indices) // 2)
        runs = [[] for _ in range(module_scheduler._engines)]
        runs[0], runs[-1] = list(indices[:half]), list(indices[half:])
        return runs

    monkeypatch.setattr(module_scheduler, "_engine_runs", halves)
    return module_scheduler


def _fan_out(frame, other):
    """Four frame results of ``frame``: the worker computes the first
    two, the parent the last two."""
    return [BatchCall.intra(INTRA_BOX3, frame),
            BatchCall.intra(INTRA_GRAD, frame, ChannelSet.YUV),
            BatchCall.inter(INTER_ABSDIFF, frame, other),
            BatchCall.intra(INTRA_SOBEL_X, frame, ChannelSet.YUV)]


def _scheduled(sched, calls):
    results = AddressLib(SoftwareBackend()).run_batch(calls, scheduler=sched)
    report = sched.last_report
    assert report.pool_calls > 0 and report.bypass_calls > 0
    assert report.inline_calls == 0
    return results


def _serial(calls):
    """The serial results of ``calls``, deep-copied: they share their
    inputs' untouched planes, and a reference must not follow a later
    write to an input."""
    return [result.copy()
            for result in AddressLib(SoftwareBackend()).run_batch(calls)]


def _planes(frame):
    """Copies of every plane of ``frame``, read without copying it."""
    return {channel: frame.read_plane(channel).copy()
            for channel in ALL_CHANNELS}


def _same_planes(frame, planes):
    return all(np.array_equal(frame.read_plane(channel), planes[channel])
               for channel in ALL_CHANNELS)


def _all_equal(got, want):
    return len(got) == len(want) and all(
        g.equals(w) for g, w in zip(got, want))


def _held_planes(frame):
    """Weak references to the arrays ``frame`` holds: they neither copy
    a plane nor alias one (an alias would keep the frame from lending
    it)."""
    return {channel: weakref.ref(frame.read_plane(channel))
            for channel in ALL_CHANNELS}


def _holds(frame, held):
    """Whether ``frame`` still holds the arrays of :func:`_held_planes`."""
    return all(frame.read_plane(channel) is held[channel]()
               for channel in ALL_CHANNELS)


def _write_plane(frame):
    frame.plane(Channel.U)[...] ^= 0x5A


def _write_property(frame):
    frame.y[1:4, 2:6] ^= 0x0F


def _set_pixel(frame):
    old = frame.get_pixel(2, 1)
    frame.set_pixel(2, 1, Pixel(old.y ^ 1, old.u, old.v, old.alfa ^ 1,
                                old.aux))


def _fill(frame):
    frame.fill(Pixel(7, 8, 9, 10, 11))


WRITES = {"plane": _write_plane, "y": _write_property,
          "set_pixel": _set_pixel, "fill": _fill}


@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_write_between_batches_reaches_the_next_batch(sched, write):
    """The write copies the plane it writes where the frame lent it,
    and the next batch ships the new content to the worker; the first
    batch's results keep the old content."""
    frame = noise_frame(FMT, seed=4)
    other = noise_frame(FMT, seed=5)
    calls = _fan_out(frame, other)
    first_want = _serial(calls)
    first = _scheduled(sched, calls)
    lent = frame.shared_channels
    assert lent == EVERY_CHANNEL - {Channel.Y}

    WRITES[write](frame)
    second_want = _serial(calls)
    second = _scheduled(sched, calls)

    assert not _all_equal(first_want, second_want)
    assert _all_equal(first, first_want)
    assert _all_equal(second, second_want)
    assert frame.shared_channels == lent  # lent again by the second batch


# ---------------------------------------------------------------------------
# Aliases: the frame keeps its planes, and lends none an alias reaches
# ---------------------------------------------------------------------------

def _held_plane():
    frame = noise_frame(FMT, seed=11)
    alias = frame.y

    def write():
        alias[2:5, 1:4] ^= 0x5A
    return frame, write, {Channel.Y}


def _row_view():
    frame = noise_frame(FMT, seed=12)
    row = frame.plane(Channel.U)[3]

    def write():
        row[:] ^= 0x0F
    return frame, write, {Channel.U}


def _memoryview():
    frame = noise_frame(FMT, seed=13)
    view = memoryview(frame.alfa)

    def write():
        np.asarray(view)[::2] += 7
    return frame, write, {Channel.ALFA}


def _larger_buffer():
    source = noise_frame(FMT, seed=14)
    big = np.zeros((FMT.height + 4, FMT.width), dtype=np.uint8)
    big[2:-2] = source.read_plane(Channel.Y)
    frame = Frame.of_planes(FMT, {
        channel: big[2:-2] if channel is Channel.Y
        else source.read_plane(channel).copy()
        for channel in ALL_CHANNELS})

    def write():
        big[4:7] ^= 0x33
    return frame, write, {Channel.Y}


def _shared_dict():
    planes = _planes(noise_frame(FMT, seed=15))
    frame = Frame.of_planes(FMT, planes)
    twin = Frame.of_planes(FMT, planes)
    del planes

    def write():
        twin.plane(Channel.V)[...] ^= 0x21
    return frame, write, EVERY_CHANNEL


ALIASES = {"held_plane": _held_plane, "row_view": _row_view,
           "memoryview": _memoryview, "larger_buffer": _larger_buffer,
           "shared_dict": _shared_dict}


@pytest.mark.parametrize("alias", sorted(ALIASES))
def test_an_alias_keeps_the_frames_planes(sched, alias):
    """Shipping swaps none of the frame's planes, so the alias still
    reaches the frame: a write through it reaches the next batch, the
    worker's run included.  The frame lends its results every plane
    but the aliased ones, which each result holds a copy of."""
    frame, write_through_alias, aliased = ALIASES[alias]()
    other = noise_frame(FMT, seed=16)
    held = _held_planes(frame)
    calls = _fan_out(frame, other)
    first_want = _serial(calls)
    first = _scheduled(sched, calls)
    assert _holds(frame, held)
    untouched = EVERY_CHANNEL - {Channel.Y}
    assert frame.shared_channels == untouched - aliased

    write_through_alias()
    second_want = _serial(calls)
    second = _scheduled(sched, calls)

    assert not _all_equal(first_want, second_want)
    assert _all_equal(first, first_want)
    assert _all_equal(second, second_want)
    assert _holds(frame, held)
    assert frame.shared_channels == untouched - aliased


def test_dropping_the_alias_lets_the_frame_share(sched):
    """While ``frame.aux`` is held, the worker's result holds a copy of
    AUX; once it is dropped, the next result shares the frame's."""
    frame = noise_frame(FMT, seed=17)
    other = noise_frame(FMT, seed=18)
    alias = frame.aux
    worker = _scheduled(sched, _fan_out(frame, other))[0]
    assert Channel.AUX not in worker.shared_channels
    assert not np.shares_memory(worker.read_plane(Channel.AUX), alias)
    del alias
    worker = _scheduled(sched, _fan_out(frame, other))[0]
    assert Channel.AUX in worker.shared_channels
    assert worker.read_plane(Channel.AUX) is frame.read_plane(Channel.AUX)


def test_a_worker_result_copies_its_inputs_aliased_plane(sched):
    """A worker's result is its first input passed through, as a serial
    result is: the plane a held ``frame.u`` aliases is a private copy
    in the result, equal to the input's, so a write through the alias
    after the batch does not reach it."""
    frame = noise_frame(FMT, seed=90)
    other = noise_frame(FMT, seed=91)
    alias = frame.u
    calls = _fan_out(frame, other)
    want = _serial(calls)
    results = _scheduled(sched, calls)
    assert _all_equal(results, want)
    worker = results[0]  # the worker's intra Y call: U is untouched
    assert Channel.U not in worker.shared_channels
    assert Channel.V in worker.shared_channels
    plane = worker.read_plane(Channel.U)
    assert plane.flags.owndata
    assert np.array_equal(plane, alias)
    assert not np.shares_memory(plane, alias)
    alias[2:5, 1:4] ^= 0x5A
    assert np.array_equal(worker.read_plane(Channel.U),
                          want[0].read_plane(Channel.U))


# ---------------------------------------------------------------------------
# Property: any sequence of writes and aliases, checked against a model
# ---------------------------------------------------------------------------

SMALL = ImageFormat("S7x5", 7, 5)

_channels = st.sampled_from(ALL_CHANNELS)
_pixels = st.tuples(st.integers(0, SMALL.height - 1),
                    st.integers(0, SMALL.width - 1), st.integers(0, 255))
_steps = st.one_of(
    st.tuples(st.just("ship"), st.sampled_from(ALL_CHANNELS)),
    st.tuples(st.just("write"), _channels, _pixels),
    st.tuples(st.just("alias"), st.sampled_from(["plane", "row",
                                                 "memoryview"]),
              _channels),
    st.tuples(st.just("alias_write"), st.integers(0, 7), _pixels),
    st.tuples(st.just("drop_alias"), st.integers(0, 7)),
)


def _take_alias(frame, kind, channel, row):
    plane = frame.plane(channel)
    if kind == "row":
        return plane[row]
    return memoryview(plane) if kind == "memoryview" else plane


def _alias_write(held, row, column, value):
    """Write through one held alias; returns the channel and row it
    reached.  (Helpers keep the test's own frame free of references.)"""
    kind, channel, alias_row, alias = held
    if kind == "plane":
        alias[row, column] = value
    elif kind == "row":
        alias[column] = value
        row = alias_row
    else:
        np.asarray(alias)[row, column] = value
    return channel, row


@settings(max_examples=60, deadline=None)
@given(st.lists(_steps, min_size=1, max_size=25))
def test_shipping_tracks_the_frames_content(steps):
    """Whatever is written and aliased, the frame reads as the model,
    each ship puts the model's content where the worker reads it, and
    shipping never swaps, lends or copies a plane of the frame."""
    frame = noise_frame(SMALL, seed=51)
    model = _planes(frame)
    aliases = []  # (kind, channel, row, alias)
    store = shm.PlaneStore()
    try:
        for step in steps:
            if step[0] == "ship":
                held = _held_planes(frame)
                shared = frame.shared_channels
                channels = sorted({Channel.Y, step[1]},
                                  key=ALL_CHANNELS.index)
                name, offsets = store.write_region(
                    0, [frame.read_plane(c) for c in channels])
                shipped = shm.worker_frame(shm.worker_region(name),
                                           SMALL, channels, offsets)
                assert all(np.array_equal(shipped.read_plane(c), model[c])
                           for c in channels)
                assert _holds(frame, held)
                assert frame.shared_channels == shared
                del held, shipped
            elif step[0] == "write":
                _, channel, (row, column, value) = step
                frame.plane(channel)[row, column] = value
                model[channel][row, column] = value
            elif step[0] == "alias":
                _, kind, channel = step
                row = len(aliases) % SMALL.height
                aliases.append((kind, channel, row,
                                _take_alias(frame, kind, channel, row)))
            elif step[0] == "alias_write" and aliases:
                _, index, (row, column, value) = step
                channel, row = _alias_write(aliases[index % len(aliases)],
                                            row, column, value)
                model[channel][row, column] = value
            elif step[0] == "drop_alias" and aliases:
                del aliases[step[1] % len(aliases)]
            assert _same_planes(frame, model)
    finally:
        aliases.clear()
        store.close()
