"""Scheduled results share the planes their op leaves untouched.

A frame result a :class:`CallScheduler` computes over shared memory
holds only the planes its op computes in its result slab; every other
plane is a read-only view of its first input's plane-store snapshot,
which nothing writes again.  These tests hold that sharing to behave
exactly like a private copy: a write through any public accessor
copies the plane first (copy on write), an input mutated between
batches gets a new snapshot while earlier results keep theirs, and
library code that only reads never copies.
"""

import os

import numpy as np
import pytest

from repro.addresslib import (AddressLib, BatchCall, ChannelSet,
                              INTER_ABSDIFF, INTRA_BOX3, INTRA_GRAD,
                              INTRA_SOBEL_X, SoftwareBackend,
                              VectorExecutor)
from repro.host import CallScheduler, SHARED_MEMORY_AVAILABLE
from repro.host import shm
from repro.image import Frame, ImageFormat, noise_frame
from repro.image.pixel import ALL_CHANNELS, Channel, Pixel
from repro.image.planar import PlanarFrame420

pytestmark = pytest.mark.skipif(not SHARED_MEMORY_AVAILABLE,
                                reason="no POSIX shared memory")

FMT = ImageFormat("S20x18", 20, 18)
YUV = (Channel.Y, Channel.U, Channel.V)


@pytest.fixture(scope="module", autouse=True)
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


def _fan_out(frame, other):
    """Four frame results of one input: two computed by the worker,
    two by the parent, with Y-only and YUV channel sets."""
    return [BatchCall.intra(INTRA_BOX3, frame),
            BatchCall.intra(INTRA_GRAD, frame, ChannelSet.YUV),
            BatchCall.inter(INTER_ABSDIFF, frame, other),
            BatchCall.intra(INTRA_SOBEL_X, frame, ChannelSet.YUV)]


def _planes(frame):
    """Copies of every plane of ``frame``, read without copying it."""
    return {channel: frame.read_plane(channel).copy()
            for channel in ALL_CHANNELS}


def _same_planes(frame, planes):
    return all(np.array_equal(frame.read_plane(channel), planes[channel])
               for channel in ALL_CHANNELS)


def _store(sched):
    return sched._resources.store


def _snapshot(store, frame):
    """The read-only segment views of ``frame``'s last registration in
    ``store``: the planes the frame shares from then on."""
    return store._entries[id(frame)].views


def _write_plane(frame, channel):
    frame.plane(channel)[...] = 42


def _write_property(frame, channel):
    getattr(frame, channel.name.lower())[1:, :3] = 42


def _set_pixel(frame, channel):
    frame.set_pixel(2, 1, Pixel(42, 42, 42, 42, 42))


def _fill(frame, channel):
    frame.fill(Pixel(42, 42, 42, 42, 42))


WRITES = [("plane", _write_plane, channel) for channel in ALL_CHANNELS] + [
    ("u", _write_property, Channel.U),
    ("alfa", _write_property, Channel.ALFA),
    ("set_pixel", _set_pixel, Channel.V),
    ("fill", _fill, Channel.AUX),
]


@pytest.mark.parametrize("target", [0, 3], ids=["worker", "parent"])
@pytest.mark.parametrize("name, write, channel", WRITES,
                         ids=[f"{name}-{channel.name}"
                              for name, _, channel in WRITES])
def test_writing_a_result_reaches_nothing_it_shares(sched, target, name,
                                                    write, channel):
    frame = noise_frame(FMT, seed=11)
    other = noise_frame(FMT, seed=12)
    calls = _fan_out(frame, other)
    results = _scheduled(sched, calls)
    for result, call in zip(results, calls):
        computed = {Channel.Y} if call.channels is ChannelSet.Y else {
            Channel.Y, Channel.U, Channel.V}
        assert result.shared_channels == set(ALL_CHANNELS) - computed
    snapshot = _snapshot(_store(sched), frame)
    before = {"input": _planes(frame),
              "snapshot": {c: np.array(p) for c, p in snapshot.items()},
              "siblings": [_planes(result) for result in results]}

    result = results[target]
    write(result, channel)

    assert result.plane(channel).flags.writeable
    assert (result.read_plane(channel) == 42).any()
    assert _same_planes(frame, before["input"])
    assert all(np.array_equal(snapshot[c], before["snapshot"][c])
               for c in ALL_CHANNELS)
    for index, sibling in enumerate(results):
        if index != target:
            assert _same_planes(sibling, before["siblings"][index])
    for c in ALL_CHANNELS:
        assert not np.shares_memory(result.plane(c), frame.plane(c))
        assert not np.shares_memory(result.plane(c), snapshot[c])


@pytest.mark.parametrize("source", ["frame", "result"])
def test_an_input_mutated_between_batches_gets_a_new_snapshot(sched,
                                                              source):
    """The second batch's results carry the input's new content; the
    first batch's keep the old.  A ``result`` input is itself a
    scheduled result, sharing planes with its own input's snapshot,
    which its mutation must not reach either."""
    base = noise_frame(FMT, seed=21)
    other = noise_frame(FMT, seed=22)
    earlier = _scheduled(sched, _fan_out(base, other))
    source_frame = base if source == "frame" else earlier[0]
    kept = {"base": _planes(base),
            "earlier": [_planes(result) for result in earlier[1:]]}

    first_want = _serial(_fan_out(source_frame, other))
    first = _scheduled(sched, _fan_out(source_frame, other))
    source_frame.plane(Channel.U)[...] ^= 0x5A
    source_frame.alfa[::2] += 3
    source_frame.y[1] ^= 0x0F
    second_want = _serial(_fan_out(source_frame, other))
    second = _scheduled(sched, _fan_out(source_frame, other))

    assert not first_want[0].equals(second_want[0])
    for got, want in zip(first, first_want):
        assert got.equals(want)
    for got, want in zip(second, second_want):
        assert got.equals(want)
        for channel in got.shared_channels:
            assert np.array_equal(got.read_plane(channel),
                                  source_frame.read_plane(channel))
    if source == "result":
        assert _same_planes(base, kept["base"])
        for result, planes in zip(earlier[1:], kept["earlier"]):
            assert _same_planes(result, planes)


def _register(frame):
    store = shm.PlaneStore()
    try:
        assert store.register(frame) is not None
    finally:
        store.close()


def _executor_inputs(frame):
    VectorExecutor.wave(INTRA_BOX3, [(frame,)], ChannelSet.YUV)
    VectorExecutor.inter_reduce(INTER_ABSDIFF, frame, frame, ChannelSet.YUV)
    sink = Frame(frame.format)
    VectorExecutor.wave_into(INTRA_GRAD, [(frame,)], ChannelSet.YUV,
                             [{channel: sink.plane(channel)
                               for channel in YUV}])


READS = {
    "equals": lambda frame, sched: frame.equals(frame.copy()),
    "copy": lambda frame, sched: frame.copy(),
    "strip": lambda frame, sched: frame.strip(0),
    "get_pixel": lambda frame, sched: frame.get_pixel(3, 2),
    "to_words": lambda frame, sched: frame.to_words(),
    "histogram": lambda frame, sched: [VectorExecutor.histogram(frame, c)
                                       for c in ALL_CHANNELS],
    "planar_420": lambda frame, sched: PlanarFrame420.from_frame(frame),
    "register": lambda frame, sched: _register(frame),
    "executor_inputs": lambda frame, sched: _executor_inputs(frame),
    "scheduled_inputs": lambda frame, sched: _scheduled(
        sched, _fan_out(frame, frame)),
}

#: The reads that register the result: it then shares its own
#: registration's snapshot views in place of its input's, and in place
#: of each computed plane it owns -- the parent's result, computed as
#: the serial path computes, owns them; the worker's views its slab.
REGISTERING = {"register", "scheduled_inputs"}


@pytest.mark.parametrize("read", sorted(READS))
def test_reading_a_result_copies_nothing(sched, read):
    """Each library read path leaves a result's shared planes shared,
    with no copy made; the first ``plane()`` afterwards still copies."""
    results = _scheduled(sched, _fan_out(noise_frame(FMT, seed=31),
                                         noise_frame(FMT, seed=32)))
    worker, parent = results[0], results[-1]
    for result in (worker, parent):
        shared = result.shared_channels
        views = {channel: result.read_plane(channel) for channel in shared}
        assert views and not any(view.flags.writeable
                                 for view in views.values())
        READS[read](result, sched)
        owned = (frozenset(ALL_CHANNELS) - shared
                 if read in REGISTERING and result is parent
                 else frozenset())
        assert result.shared_channels == shared | owned
        for channel, view in views.items():
            plane = result.read_plane(channel)
            if read in REGISTERING:
                assert not plane.flags.writeable
                assert not plane.flags.owndata
                assert np.array_equal(plane, view)
            else:
                assert plane is view
        for channel, view in views.items():
            plane = result.plane(channel)
            assert plane.flags.writeable
            assert not np.shares_memory(plane, view)
            assert np.array_equal(plane, view)
        assert result.shared_channels == owned
