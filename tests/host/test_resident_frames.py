"""Registered frames live in their plane-store segment.

A frame takes its registration's read-only segment views as the planes
it alone holds, shared copy on write, and frees its own, as the board
keeps a frame in its ZBT banks across calls.  Re-registering a frame
that shares all five is an identity check that reads no pixel.  A
write through any public accessor copies a plane first, so the next
registration compares that plane and, when it changed, bumps the
generation.  A plane with an outside alias -- a held plane, a row
view, a memoryview, a plane over a larger buffer, or every plane of a
plane dict two frames wrap -- stays the frame's own and is compared,
so a write through the alias still reaches the next batch.
"""

import gc
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (AddressLib, BatchCall, ChannelSet,
                              INTER_ABSDIFF, INTRA_BOX3, INTRA_GRAD,
                              INTRA_SOBEL_X, SoftwareBackend)
from repro.host import CallScheduler, SHARED_MEMORY_AVAILABLE
from repro.host import shm
from repro.image import CIF, Frame, ImageFormat, noise_frame
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
    inputs' untouched planes, which a registered input shares with its
    segment, and a reference must not follow them."""
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


def _segment_frame(handle):
    """The frame in ``handle``'s segment, through a mapping of its own."""
    fmt = handle.fmt
    return shm.read_frame(fmt, shm._attach_bytes(
        handle.segment_name, shm.frame_payload_bytes(fmt)))


def _snapshot(store, frame):
    """The read-only segment views of ``frame``'s last registration in
    ``store``: the planes the frame shares from then on."""
    return store._entries[id(frame)].views


def _psm_names():
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _counting_compares(monkeypatch):
    """Count every plane compare the store makes from here on."""
    compares = []
    real = shm._same_values

    def spy(plane, view):
        compares.append(plane.shape)
        return real(plane, view)

    monkeypatch.setattr(shm, "_same_values", spy)
    return compares


# ---------------------------------------------------------------------------
# Unaliased frames: shared after registration, re-registered unread
# ---------------------------------------------------------------------------

def test_an_unaliased_frame_is_reregistered_without_a_read(sched,
                                                           monkeypatch):
    frame = noise_frame(FMT, seed=1)
    other = noise_frame(FMT, seed=2)
    content = _planes(frame)
    calls = _fan_out(frame, other)
    want = _serial(calls)
    first = _scheduled(sched, calls)
    store = sched._resources.store
    handle = store.register(frame)
    views = _snapshot(store, frame)
    assert frame.shared_channels == EVERY_CHANNEL
    assert all(frame.read_plane(c) is views[c] for c in ALL_CHANNELS)

    compares = _counting_compares(monkeypatch)
    second = _scheduled(sched, calls)
    assert store.register(frame) is handle
    assert compares == []
    assert _all_equal(first, want) and _all_equal(second, want)
    assert _same_planes(frame, content)


def test_a_frame_shares_its_snapshot_from_its_first_registration():
    store = shm.PlaneStore()
    frame = noise_frame(FMT, seed=3)
    content = _planes(frame)
    try:
        handle = store.register(frame)
        assert frame.shared_channels == EVERY_CHANNEL
        assert not any(frame.read_plane(c).flags.writeable
                       for c in ALL_CHANNELS)
        assert _same_planes(frame, content)
        assert _same_planes(_segment_frame(handle), content)
        # Every public accessor still hands out a private plane.
        plane = frame.plane(Channel.V)
        assert plane.flags.writeable
        assert not np.shares_memory(plane,
                                    _snapshot(store, frame)[Channel.V])
    finally:
        store.close()


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
def test_a_write_after_registration_reaches_the_next_batch(sched, write):
    """The write copies the plane it writes, so the next wave compares
    it, bumps the generation and ships the new content; the first
    batch's results keep the old content."""
    frame = noise_frame(FMT, seed=4)
    other = noise_frame(FMT, seed=5)
    calls = _fan_out(frame, other)
    first_want = _serial(calls)
    first = _scheduled(sched, calls)
    store = sched._resources.store
    handle = store.register(frame)
    assert frame.shared_channels == EVERY_CHANNEL

    WRITES[write](frame)
    second_want = _serial(calls)
    second = _scheduled(sched, calls)
    fresh = store.register(frame)

    assert fresh.frame_id == handle.frame_id
    assert fresh.generation == handle.generation + 1
    assert not _all_equal(first_want, second_want)
    assert _all_equal(first, first_want)
    assert _all_equal(second, second_want)
    assert frame.shared_channels == EVERY_CHANNEL  # shared again


def test_a_read_through_plane_keeps_the_handle(monkeypatch):
    """``plane()`` without a write: the next registration compares the
    copied plane alone, keeps the handle and shares the frame again."""
    frame = noise_frame(FMT, seed=6)
    store = shm.PlaneStore()
    try:
        handle = store.register(frame)
        frame.plane(Channel.AUX)
        assert frame.shared_channels == EVERY_CHANNEL - {Channel.AUX}
        compares = _counting_compares(monkeypatch)
        assert store.register(frame) is handle
        assert len(compares) == 1
        assert frame.shared_channels == EVERY_CHANNEL
        assert store.register(frame) is handle
        assert len(compares) == 1
    finally:
        store.close()


# ---------------------------------------------------------------------------
# Aliases: the frame keeps its planes and the compare
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
    """The aliased planes alone stay the frame's own; every other plane
    shares the snapshot."""
    frame, write_through_alias, aliased = ALIASES[alias]()
    other = noise_frame(FMT, seed=16)
    calls = _fan_out(frame, other)
    first_want = _serial(calls)
    first = _scheduled(sched, calls)
    store = sched._resources.store
    handle = store.register(frame)
    assert frame.shared_channels == EVERY_CHANNEL - aliased

    write_through_alias()
    second_want = _serial(calls)
    second = _scheduled(sched, calls)
    fresh = store.register(frame)

    assert fresh.generation == handle.generation + 1
    assert not _all_equal(first_want, second_want)
    assert _all_equal(first, first_want)
    assert _all_equal(second, second_want)
    assert _same_planes(_segment_frame(fresh), _planes(frame))
    assert frame.shared_channels == EVERY_CHANNEL - aliased


def test_dropping_the_alias_lets_the_frame_share():
    frame = noise_frame(FMT, seed=17)
    store = shm.PlaneStore()
    try:
        alias = frame.aux
        handle = store.register(frame)
        assert frame.shared_channels == EVERY_CHANNEL - {Channel.AUX}
        del alias
        assert store.register(frame) is handle
        assert frame.shared_channels == EVERY_CHANNEL
    finally:
        store.close()


def test_a_worker_result_copies_its_inputs_aliased_plane(sched):
    """A worker's result is its first input passed through, as a serial
    result is: the plane a held ``frame.u`` aliases is a private copy
    in the result, equal to the input's and viewing no segment, so a
    write through the alias after the batch does not reach it."""
    frame = noise_frame(FMT, seed=90)
    other = noise_frame(FMT, seed=91)
    alias = frame.u
    calls = _fan_out(frame, other)
    want = _serial(calls)
    results = _scheduled(sched, calls)
    assert _all_equal(results, want)
    store = sched._resources.store
    worker = results[0]  # the worker's intra Y call: U is untouched
    assert Channel.U not in worker.shared_channels
    assert Channel.V in worker.shared_channels
    plane = worker.read_plane(Channel.U)
    assert plane.flags.owndata
    assert np.array_equal(plane, alias)
    assert not np.shares_memory(plane, alias)
    assert not np.shares_memory(plane, _snapshot(store, frame)[Channel.U])
    alias[2:5, 1:4] ^= 0x5A
    assert np.array_equal(worker.read_plane(Channel.U),
                          want[0].read_plane(Channel.U))


def test_a_rewrite_shares_every_plane_but_the_aliased_one(monkeypatch):
    """After a write through a held plane bumps the generation, the
    frame's four other planes share the new segment and none views the
    superseded one, so each later registration compares the aliased
    plane alone."""
    frame = noise_frame(CIF, seed=18)
    store = shm.PlaneStore()
    try:
        store.register(frame)
        superseded = _snapshot(store, frame)
        alias = frame.y
        alias[5:9] ^= 0x3C
        handle = store.register(frame)
        assert handle.generation == 1
        assert frame.shared_channels == EVERY_CHANNEL - {Channel.Y}
        assert not any(np.shares_memory(frame.read_plane(c), superseded[c])
                       for c in ALL_CHANNELS)
        compares = _counting_compares(monkeypatch)
        for registration in range(1, 4):
            assert store.register(frame) is handle
            assert compares == [alias.shape] * registration
        assert frame.read_plane(Channel.Y) is alias
    finally:
        store.close()


# ---------------------------------------------------------------------------
# Lifetimes: two stores, a closed store, a collected frame
# ---------------------------------------------------------------------------

def test_a_frame_registered_in_two_stores():
    frame = noise_frame(FMT, seed=21)
    stores = [shm.PlaneStore(), shm.PlaneStore()]
    try:
        handles = [store.register(frame) for store in stores]
        for _ in range(2):
            for store, handle in zip(stores, handles):
                assert store.register(frame) is handle
        content = _planes(frame)
        for handle in handles:
            assert _same_planes(_segment_frame(handle), content)

        frame.plane(Channel.Y)[0] ^= 0xFF
        content = _planes(frame)
        fresh = [store.register(frame) for store in stores]
        for old, new in zip(handles, fresh):
            assert new.generation == old.generation + 1
            assert _same_planes(_segment_frame(new), content)
        stores[0].close()
        assert _same_planes(frame, content)
        assert stores[1].register(frame) is fresh[1]
    finally:
        for store in stores:
            store.close()


def test_closing_a_store_keeps_the_frames_sharing_its_views():
    store = shm.PlaneStore()
    frames = [noise_frame(FMT, seed=seed) for seed in (31, 32)]
    contents = [_planes(frame) for frame in frames]
    for frame in frames:
        store.register(frame)
    names = set(store.active_segment_names())
    assert len(names) == 2 and names <= _psm_names()
    assert all(frame.shared_channels == EVERY_CHANNEL for frame in frames)

    store.close()

    assert not names & _psm_names()
    for frame, content in zip(frames, contents):
        assert _same_planes(frame, content)
    frames[0].plane(Channel.Y)[...] = 3  # still a frame like any other
    assert (frames[0].read_plane(Channel.Y) == 3).all()


def test_a_collected_frame_unlinks_its_segment():
    store = shm.PlaneStore()
    frame = noise_frame(FMT, seed=41)
    try:
        name = store.register(frame).segment_name
        assert frame.shared_channels == EVERY_CHANNEL
        assert name in _psm_names()
        del frame
        gc.collect()
        assert store.segments_active == 0
        assert name not in _psm_names()
    finally:
        store.close()


# ---------------------------------------------------------------------------
# Property: any sequence of writes and aliases, checked against a model
# ---------------------------------------------------------------------------

SMALL = ImageFormat("S7x5", 7, 5)

_channels = st.sampled_from(ALL_CHANNELS)
_pixels = st.tuples(st.integers(0, SMALL.height - 1),
                    st.integers(0, SMALL.width - 1), st.integers(0, 255))
_steps = st.one_of(
    st.tuples(st.just("register")),
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
def test_registration_tracks_the_frames_content(steps):
    """Whatever is written and aliased, the frame reads as the model,
    each registration's segment holds the model's content, the
    generation moves exactly when the content changed, and a plane an
    alias reaches is never swapped out from under it."""
    frame = noise_frame(SMALL, seed=51)
    model = _planes(frame)
    aliases = []  # (kind, channel, row, alias)
    store = shm.PlaneStore()
    registered = None  # (handle, content at registration)
    try:
        for step in steps:
            if step[0] == "register":
                handle = store.register(frame)
                if registered is None:
                    assert handle.generation == 0
                elif _same_content(registered[1], model):
                    assert handle is registered[0]
                else:
                    assert handle.generation == registered[0].generation + 1
                assert _same_planes(_segment_frame(handle), model)
                registered = (handle, {c: p.copy() for c, p in model.items()})
                if not aliases:
                    assert frame.shared_channels == EVERY_CHANNEL
                # (No loop variable may outlive this check: it would
                # hold an alias of its own.)
                assert not any(held[1] in frame.shared_channels
                               for held in aliases)
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


def _same_content(a, b):
    return all(np.array_equal(a[c], b[c]) for c in ALL_CHANNELS)
