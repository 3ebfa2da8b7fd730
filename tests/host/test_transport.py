"""Shared-memory transport: input regions, result slabs, fallbacks.

The scheduler must hand back *indistinguishable* results wherever a
call ran: in a worker over shared memory, in the parent's own run of a
wave, or in the inline fallback after shared memory, the store or a
worker failed.  This harness drives the 0xFA57 corpus recipe down each
of those paths and pins down the segment lifecycle -- each worker's
input region (reused, grown, released with its worker), inputs shipped
by value, result-slab recycling, in-place result writes, and leak-free
teardown.
"""

import gc
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.addresslib import (AddressLib, BatchCall, ChannelSet,
                              FaceScratch, INTER_OPS, INTRA_BOX3,
                              INTRA_GRAD, INTRA_OPS,
                              KERNEL_FACTORIES, SoftwareBackend,
                              VectorExecutor, channels_of, kernel_by_name)
from repro.host import CallScheduler, SHARED_MEMORY_AVAILABLE
from repro.host import scheduler as scheduler_module
from repro.host import shm
from repro.image import Frame, ImageFormat, noise_frame
from repro.image.pixel import ALL_CHANNELS, Channel

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

SHARDS = 8
CASES_PER_SHARD = 26

QCIF = ImageFormat("QCIF", 176, 144)

needs_shm = pytest.mark.skipif(not SHARED_MEMORY_AVAILABLE,
                               reason="no multiprocessing.shared_memory")


@pytest.fixture(scope="module", autouse=True)
def two_or_more_cpus():
    """At least two CPUs, so schedulers built here run the parent and
    at least one worker process, and ship over shared memory even on a
    one-CPU host."""
    cpus = os.cpu_count() or 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.host.scheduler.os.cpu_count",
                      lambda: max(2, cpus))
        yield


def _random_batch_call(rng):
    """One corpus case as a batch call (the 0xFA57 recipe's geometry)."""
    width = rng.randrange(4, 25)
    height = rng.choice([8, 16, 24, 32, 33, 40, 48])
    fmt = ImageFormat(f"P{width}x{height}", width, height)
    frame_a = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.5:
        return BatchCall.intra(rng.choice(_INTRA), frame_a)
    frame_b = noise_frame(fmt, seed=rng.randrange(10_000))
    if rng.random() < 0.3:
        return BatchCall.inter_reduce(rng.choice(_INTER), frame_a,
                                      frame_b)
    return BatchCall.inter(rng.choice(_INTER), frame_a, frame_b)


def _serial_reference(call):
    """The serial result of ``call``, deep-copied: the serial path lends
    the result its input's untouched planes, and a reference must not
    follow a later write to the input."""
    if call.reduce_to_scalar:
        return VectorExecutor.inter_reduce(call.op, call.frames[0],
                                           call.frames[1], call.channels)
    if len(call.frames) == 2:
        return VectorExecutor.inter(call.op, call.frames[0],
                                    call.frames[1], call.channels).copy()
    return VectorExecutor.intra(call.op, call.frames[0],
                                call.channels).copy()


def _assert_same(got, want):
    if isinstance(want, int):
        assert got == want
    else:
        assert got.equals(want)


def _psm_names():
    """POSIX shared-memory names the transport (or ``multiprocessing``)
    created."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _write_result(slab, frame):
    """Copy ``frame`` into ``slab`` through a worker's result view."""
    result = shm.worker_result_frame(OrderedDict(), slab, frame.format)
    assert result is not None
    for channel in ALL_CHANNELS:
        result.plane(channel)[...] = frame.plane(channel)


def _adopt_whole(store, slab, fmt):
    """Every plane of the result in ``slab``, adopted, as a frame."""
    return Frame.from_plane_views(fmt, store.adopt_slab(slab, fmt,
                                                        ALL_CHANNELS))


def _shipped(store, key, frame, channels=ALL_CHANNELS):
    """Ship the ``channels`` planes of ``frame`` through the input
    region of worker ``key`` as the scheduler does; returns the frame a
    worker builds over them (its own mapping) and the region's name."""
    name, offsets = store.write_region(
        key, [frame.read_plane(channel) for channel in channels])
    return shm.worker_frame(shm.worker_region(name), frame.format,
                            channels, offsets), name


def _same_read_planes(got, want, channels=ALL_CHANNELS):
    return all(np.array_equal(got.read_plane(channel),
                              want.read_plane(channel))
               for channel in channels)


def _tracker_messages(monkeypatch):
    """Record every register/unregister sent to the resource tracker."""
    from multiprocessing import resource_tracker
    messages = []
    for name in ("register", "unregister"):
        monkeypatch.setattr(
            resource_tracker, name,
            lambda *args, name=name: messages.append((name, args)))
    return messages


# ---------------------------------------------------------------------------
# Parent-side plane store
# ---------------------------------------------------------------------------

@needs_shm
class TestPlaneStore:
    def test_a_region_is_reused_while_its_planes_fit(self):
        """One region per worker: each plane 64-byte aligned, written
        in place wave after wave while they fit, and read back by the
        worker exactly."""
        store = shm.PlaneStore()
        frames = [noise_frame(QCIF, seed=s) for s in (3, 4)]
        try:
            names = set()
            for frame in frames:
                got, name = _shipped(store, 0, frame)
                names.add(name)
                assert _same_read_planes(got, frame)
                assert not any(got.read_plane(c).flags.writeable
                               for c in ALL_CHANNELS)
            _, offsets = store.write_region(
                0, [frames[0].read_plane(c) for c in ALL_CHANNELS])
            assert all(offset % 64 == 0 for offset in offsets)
            assert len(names) == 1 and store.segments_created == 1
            assert store.active_segment_names() == list(names)
        finally:
            store.close()

    def test_a_region_grows_for_larger_planes_and_unlinks_the_old(self):
        small = ImageFormat("S8x8", 8, 8)
        store = shm.PlaneStore()
        try:
            _, first = _shipped(store, 0, noise_frame(small, seed=5))
            frame = noise_frame(QCIF, seed=6)
            got, grown = _shipped(store, 0, frame)
            assert grown != first
            assert _same_read_planes(got, frame)
            assert store.segments_created == 2
            assert store.active_segment_names() == [grown]
            with pytest.raises(FileNotFoundError):
                shm._attach_segment(first)
            # What the planes need, as that is more than twice the old
            # size (five 8x8 planes, 64-byte aligned: 448 bytes).
            assert store._regions[0].nbytes == shm.frame_payload_bytes(QCIF)
            _, again = _shipped(store, 0, noise_frame(small, seed=7))
            assert again == grown
        finally:
            store.close()

    def test_a_grown_region_at_least_doubles(self):
        """A region that must grow takes ``max(need, 2 x old)`` bytes, so
        a run that needs a little more each wave replaces it rarely."""
        fmt = ImageFormat("S8x8", 8, 8)  # 64-byte Y planes
        planes = [noise_frame(fmt, seed=s).read_plane(Channel.Y)
                  for s in range(3)]
        store = shm.PlaneStore()
        try:
            sizes = []
            for count in (1, 2, 3, 2):
                store.write_region(0, planes[:count])
                sizes.append(store._regions[0].nbytes)
            assert sizes == [64, 128, 256, 256]
            assert store.segments_created == 3
        finally:
            store.close()

    def test_releasing_a_region_unlinks_it(self):
        store = shm.PlaneStore()
        try:
            _, name = _shipped(store, 1, noise_frame(QCIF, seed=8))
            _, other = _shipped(store, 2, noise_frame(QCIF, seed=9))
            store.release_region(1)
            store.release_region(1)  # none left: a no-op
            with pytest.raises(FileNotFoundError):
                shm._attach_segment(name)
            assert store.active_segment_names() == [other]
        finally:
            store.close()

    def test_close_releases_everything_and_is_idempotent(self):
        store = shm.PlaneStore()
        frames = [noise_frame(QCIF, seed=s) for s in (6, 7)]
        for key, frame in enumerate(frames):
            _shipped(store, key, frame)
        store.lease_slab(QCIF)
        names = store.active_segment_names()
        assert len(names) == 3
        store.close()
        store.close()
        assert store.active_segment_names() == []
        for name in names:
            with pytest.raises(Exception):
                shm._attach_segment(name)
        # A closed store declines new regions and slabs.
        assert store.write_region(0, [frames[0].read_plane(Channel.Y)]) \
            is None
        assert store.lease_slab(QCIF) is None

    def test_broken_store_answers_none(self):
        store = shm.PlaneStore()
        try:
            store.broken = True
            plane = noise_frame(QCIF, seed=8).read_plane(Channel.Y)
            assert store.write_region(0, [plane]) is None
            assert store.lease_slab(QCIF) is None
            assert store.active_segment_names() == []
        finally:
            store.close()

    @pytest.mark.parametrize("width, height", [(5, 5), (8, 3), (7, 9)])
    @pytest.mark.parametrize("channel", ALL_CHANNELS)
    def test_any_changed_pixel_reaches_the_worker(self, width, height,
                                                  channel):
        """Each ship copies the whole plane: a change to any one pixel
        -- the first, one in the middle, the last -- is what the worker
        reads next, in a region it keeps."""
        fmt = ImageFormat(f"G{width}x{height}", width, height)
        store = shm.PlaneStore()
        frame = noise_frame(fmt, seed=width * height)
        try:
            _, name = _shipped(store, 0, frame, [channel])
            plane = frame.plane(channel).reshape(-1)
            for index in (0, plane.size // 2, plane.size - 1):
                plane[index] ^= 1
                got, again = _shipped(store, 0, frame, [channel])
                assert again == name
                assert _same_read_planes(got, frame, [channel])
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Result slabs (exercised in-process)
# ---------------------------------------------------------------------------

@needs_shm
class TestResultSlabs:
    @staticmethod
    def _deliver(store, frame):
        """Lease a slab, write ``frame`` into it as a worker would, and
        adopt it; returns ``(slab, adopted frame)``."""
        slab = store.lease_slab(frame.format)
        _write_result(slab, frame)
        return slab, _adopt_whole(store, slab, frame.format)

    def test_slab_recycles_only_after_last_view_dies(self):
        store = shm.PlaneStore()
        source = noise_frame(QCIF, seed=30)
        try:
            slab, adopted = self._deliver(store, source)
            assert adopted.equals(source)
            corner = adopted.aux[1:, ::2]  # a view of a plane view
            del adopted
            assert store.lease_slab(QCIF) != slab  # still viewed
            del corner
            assert store.lease_slab(QCIF) == slab
            assert store.stats()["slabs_reused"] == 1
        finally:
            store.close()

    def test_close_unlinks_every_slab_and_keeps_adopted_bytes(self):
        store = shm.PlaneStore()
        source = noise_frame(QCIF, seed=31)
        _, adopted = self._deliver(store, source)
        store.recycle_slab(store.lease_slab(QCIF))  # an idle one
        names = store.active_segment_names()
        assert len(names) == 2
        store.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shm._attach_segment(name)
        assert adopted.equals(source)  # mapped until its last view
        assert store.lease_slab(QCIF) is None

    def test_a_second_recycle_of_one_lease_is_ignored(self):
        """Recycling one lease twice puts its slab on the idle list
        once, so two later leases never name one segment."""
        store = shm.PlaneStore()
        try:
            slab = store.lease_slab(QCIF)
            store.recycle_slab(slab)
            store.recycle_slab(slab)
            first, second = store.lease_slab(QCIF), store.lease_slab(QCIF)
            assert first.segment_name != second.segment_name
            assert store.slabs_created == 2 and store.slabs_reused == 1
        finally:
            store.close()

    def test_another_stores_slab_is_never_recycled_here(self):
        """A handle of another store whose slab id collides with a lease
        of this one is ignored: this store's next lease is its own."""
        store, other = shm.PlaneStore(), shm.PlaneStore()
        try:
            mine, theirs = store.lease_slab(QCIF), other.lease_slab(QCIF)
            assert theirs.slab_id == mine.slab_id
            store.recycle_slab(theirs)
            again = store.lease_slab(QCIF)
            assert again.token == store.token
            assert again.segment_name not in (mine.segment_name,
                                              theirs.segment_name)
            store.recycle_slab(mine)
            assert store.lease_slab(QCIF) == mine
        finally:
            store.close()
            other.close()

    def test_idle_list_is_bounded_per_size(self):
        store = shm.PlaneStore()
        fmt = ImageFormat("S8x8", 8, 8)
        try:
            slabs = [store.lease_slab(fmt)
                     for _ in range(shm._SLAB_IDLE_CAP + 1)]
            for slab in slabs:
                store.recycle_slab(slab)
            assert len(store.active_segment_names()) == shm._SLAB_IDLE_CAP
            with pytest.raises(FileNotFoundError):
                shm._attach_segment(slabs[-1].segment_name)
        finally:
            store.close()


# ---------------------------------------------------------------------------
# What a worker maps: its region, mapped again only for a new one
# ---------------------------------------------------------------------------

@needs_shm
class TestWorkerCache:
    def test_attach_caches_and_hits(self, monkeypatch):
        """A worker maps its input region once: each run on the same
        region is a hit, and a run on a grown region attaches it."""
        small = ImageFormat("S8x8", 8, 8)
        with CallScheduler(max_workers=2) as sched:
            _pin(monkeypatch, sched, "worker")
            lib = AddressLib(SoftwareBackend())
            books = []
            for fmt, seed in ((small, 1), (small, 2), (QCIF, 3), (QCIF, 4)):
                frame = noise_frame(fmt, seed=seed)
                calls = [BatchCall.intra(op, frame)
                         for op in (INTRA_BOX3, INTRA_GRAD)]
                got = lib.run_batch(calls, scheduler=sched)
                for call, result in zip(calls, got):
                    _assert_same(result, _serial_reference(call))
                report = sched.last_report
                assert report.pool_calls == 2
                books.append((report.worker_cache_hits,
                              report.worker_cache_attaches))
            assert books == [(0, 1), (1, 0), (0, 1), (1, 0)]
            assert sched.transport_stats()["store"]["segments_created"] == 2

    def test_tokens_isolate_stores(self):
        """Two stores' slabs share slab ids but never a worker mapping:
        each result lands in its own store's segment."""
        store_a, store_b = shm.PlaneStore(), shm.PlaneStore()
        frames = [noise_frame(QCIF, seed=s) for s in (11, 12)]
        slabs = OrderedDict()
        try:
            leases = [store.lease_slab(QCIF) for store in (store_a, store_b)]
            assert leases[0].slab_id == leases[1].slab_id
            for lease, frame in zip(leases, frames):
                result = shm.worker_result_frame(slabs, lease, QCIF)
                for channel in ALL_CHANNELS:
                    result.plane(channel)[...] = frame.read_plane(channel)
            assert len(slabs) == 2
            for store, lease, frame in zip((store_a, store_b), leases,
                                           frames):
                assert _adopt_whole(store, lease, QCIF).equals(frame)
        finally:
            store_a.close()
            store_b.close()

    def test_attaches_send_the_resource_tracker_nothing(self, monkeypatch):
        """Workers share one resource tracker, which keeps a set of
        names: two workers each registering and withdrawing one segment
        make it fail the second withdrawal with a KeyError traceback.
        A worker's attaches (its region and result slabs) must not
        message it at all."""
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=13)
        try:
            slab = store.lease_slab(QCIF)
            messages = _tracker_messages(monkeypatch)
            attached, _ = _shipped(store, 0, frame)
            _write_result(slab, frame)
            assert messages == []
            assert _same_read_planes(attached, frame)
            assert _adopt_whole(store, slab, QCIF).equals(frame)
        finally:
            store.close()

    def test_creations_send_the_resource_tracker_nothing(self,
                                                         monkeypatch):
        """The store creates, replaces and unlinks its segments itself:
        writing a region, growing it, leasing and recycling slabs and
        closing the store never message the tracker either."""
        messages = _tracker_messages(monkeypatch)
        before = _psm_names()
        store = shm.PlaneStore()
        try:
            _shipped(store, 0, noise_frame(ImageFormat("S8x8", 8, 8),
                                           seed=14))
            _shipped(store, 0, noise_frame(QCIF, seed=14))  # grows
            slabs = [store.lease_slab(QCIF) for _ in range(2)]
            assert None not in slabs
            store.recycle_slab(slabs[0])
            assert len(_psm_names() - before) == 3
        finally:
            store.close()
        assert messages == []
        assert _psm_names() - before == set()


# ---------------------------------------------------------------------------
# Corpus bit-exactness over shared memory and every inline path
# ---------------------------------------------------------------------------

def _corpus_shard(shard):
    rng = random.Random(0xFA57 + shard)
    return [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]


def _pin(patch, scheduler, engine):
    """Place every shippable call of ``scheduler``'s waves on one
    engine -- the first worker process (``"worker"``) or the parent
    (``"parent"``) -- instead of the balanced cut, which the scheduler
    suite's ``TestEngineRuns`` covers."""
    def runs(calls, indices, overlapped):
        placed = [[] for _ in range(scheduler._engines)]
        placed[0 if engine == "worker" else -1] = list(indices)
        return placed

    patch.setattr(scheduler, "_engine_runs", runs)


def _run_shard(scheduler, shard):
    """Run one shard bit-exactly; returns its calls."""
    calls = _corpus_shard(shard)
    results = AddressLib(SoftwareBackend()).run_batch(calls,
                                                      scheduler=scheduler)
    assert len(results) == len(calls)
    for call, got in zip(calls, results):
        _assert_same(got, _serial_reference(call))
    return calls


def _run_corpus(scheduler):
    """Every shard twice: handed whole to the worker, then kept whole
    in the parent, so every case crosses to a worker once."""
    for shard in range(SHARDS):
        for engine in ("worker", "parent"):
            with pytest.MonkeyPatch.context() as patch:
                _pin(patch, scheduler, engine)
                _run_shard(scheduler, shard)


class TestCorpusAcrossTransports:
    @needs_shm
    def test_shared_memory_transport(self):
        with CallScheduler(max_workers=2) as sched:
            _run_corpus(sched)
            stats = sched.transport_stats()
        assert stats["pool_calls"] == SHARDS * CASES_PER_SHARD
        assert stats["bypass_calls"] == SHARDS * CASES_PER_SHARD
        assert stats["inline_calls"] == 0

    def test_without_shared_memory_every_call_runs_inline(self,
                                                          monkeypatch):
        """The workers' runs come back to the parent: every call runs
        there, nothing ships and no segment is made."""
        before = _psm_names()
        monkeypatch.setattr(shm, "SHARED_MEMORY_AVAILABLE", False)
        with CallScheduler(max_workers=2) as sched:
            calls = _run_shard(sched, 0)
            report = sched.last_report
            assert report.inline_calls > 0 and report.bypass_calls > 0
            assert report.inline_calls + report.bypass_calls == len(calls)
            with pytest.MonkeyPatch.context() as patch:
                _pin(patch, sched, "worker")
                _run_shard(sched, 0)
            assert sched.last_report.inline_calls == len(calls)
            _run_corpus(sched)
            stats = sched.transport_stats()
        assert stats["pool_calls"] == 0
        assert stats["round_trips"] == 0
        assert (stats["inline_calls"] + stats["bypass_calls"]
                == (2 * SHARDS + 2) * CASES_PER_SHARD)
        assert stats["store"] == {}  # no store, so no slab was leased
        assert _psm_names() - before == set()

    @needs_shm
    @pytest.mark.parametrize("failing", ["region", "lease"])
    def test_store_failure_mid_ship_runs_the_wave_inline(self, monkeypatch,
                                                         failing):
        """A segment creation fails while the first shard ships --
        making the worker's input region, or leasing the first slab
        after it.  Those calls run inline, the broken store is closed
        with every segment it made, and the next shard ships over a
        fresh store."""
        before = _psm_names()
        new_segment = shm._new_segment
        made = []

        def fails_once(nbytes):
            if len(made) + 1 == fail_at:
                made.append(None)
                raise OSError("injected segment failure")
            segment = new_segment(nbytes)
            made.append(segment.name)
            return segment

        monkeypatch.setattr(shm, "_new_segment", fails_once)
        with CallScheduler(max_workers=2) as sched:
            _pin(monkeypatch, sched, "worker")
            first = _corpus_shard(0)
            fail_at = 1 if failing == "region" else 2
            _run_shard(sched, 0)
            assert sched.last_report.pool_calls == 0
            assert sched.last_report.inline_calls == len(first)
            assert sched.last_report.bypass_calls == 0
            assert len(made) == fail_at
            assert sched._resources.store is None
            assert set(made[:-1]) & _psm_names() == set()
            for shard in range(1, SHARDS):
                calls = _run_shard(sched, shard)
                assert sched.last_report.pool_calls == len(calls)
        assert _psm_names() - before == set()

    @needs_shm
    def test_unwritable_slab_runs_its_call_inline(self, monkeypatch):
        """A worker that cannot write a result slab sends those calls
        back: the parent runs them inline and recycles their slabs,
        while the reduces' scalars still come back from the pool."""
        # The pool forks on the first wave, so the workers inherit this.
        monkeypatch.setattr(shm, "worker_result_frame",
                            lambda slabs, slab, fmt: None)
        with CallScheduler(max_workers=2) as sched:
            _pin(monkeypatch, sched, "worker")
            calls = _run_shard(sched, 0)
            frame_jobs = sum(not call.reduce_to_scalar for call in calls)
            assert 0 < frame_jobs < len(calls)
            assert sched.last_report.inline_calls == frame_jobs
            assert sched.last_report.pool_calls == len(calls) - frame_jobs
            assert sched.last_report.bypass_calls == 0
            # Every slab the worker could not write is idle again.
            store = sched._resources.store
            idle = sum(len(slabs) for slabs in store._idle_slabs.values())
            assert idle == store.slabs_created == frame_jobs

    def test_inline_bypass(self, monkeypatch):
        # One CPU, so one engine: every call stays in the parent.
        monkeypatch.setattr("repro.host.scheduler.os.cpu_count",
                            lambda: 1)
        with CallScheduler(max_workers=2) as sched:
            _run_corpus(sched)
            stats = sched.transport_stats()
        assert stats["pool_calls"] == 0
        assert stats["bypass_calls"] == 2 * SHARDS * CASES_PER_SHARD


# ---------------------------------------------------------------------------
# In-place result writes (the worker's sink, exercised in-process)
# ---------------------------------------------------------------------------

#: Every registry op: ``(mode token, op, reduces)``.
_REGISTRY = ([("intra", name, op, False)
              for name, op in sorted(INTRA_OPS.items())]
             + [("intra", "kernel_" + name, kernel_by_name(name), False)
                for name in sorted(KERNEL_FACTORIES)]
             + [("inter", name, op, reduce_to_scalar)
                for name, op in sorted(INTER_OPS.items())
                for reduce_to_scalar in (False, True)])


#: One kernel scratch for every example, as an engine keeps one: the
#: examples draw their geometries at random, so it serves alternating
#: geometries, and nothing a call leaves in it may reach a later result.
_ENGINE_SCRATCH = FaceScratch()


@needs_shm
@settings(max_examples=60, deadline=None)
@given(entry=st.sampled_from(_REGISTRY),
       channels=st.sampled_from((ChannelSet.Y, ChannelSet.YUV)),
       width=st.integers(1, 23), height=st.integers(1, 37),
       seeds=st.tuples(st.integers(0, 999), st.integers(0, 999)))
def test_slab_written_results_equal_the_executor(entry, channels, width,
                                                  height, seeds):
    """A worker's run of a scheduled call, in-process: the planes its
    inputs' computed channels hold, shipped by value through an input
    region, its computed planes written straight into a leased slab.
    The result the parent builds from it -- its first input passed
    through, the slab's views as its computed planes -- equals
    ``VectorExecutor``'s result bit for bit, whatever the op, channel
    set and geometry, and every plane is writable through
    ``plane()``."""
    mode, token, op, reduce_to_scalar = entry
    fmt = ImageFormat(f"O{width}x{height}", width, height)
    frames = [noise_frame(fmt, seed=seed) for seed in seeds]
    frames = frames[:1] if mode == "intra" else frames
    want = VectorExecutor.wave(op, [frames], channels, reduce_to_scalar)[0]
    computed = channels_of(channels)
    store = shm.PlaneStore()
    try:
        name, offsets = store.write_region(
            0, [frame.read_plane(channel) for frame in frames
                for channel in computed])
        inputs = tuple(tuple(offsets[i:i + len(computed)])
                       for i in range(0, len(offsets), len(computed)))
        slab = None if reduce_to_scalar else store.lease_slab(fmt)
        items, seconds = scheduler_module._execute_wave(
            [(mode, token, channels, fmt, inputs, slab)],
            shm.worker_region(name), OrderedDict(), _ENGINE_SCRATCH)
        assert len(seconds) == 1
        if reduce_to_scalar:
            assert items == [want]
        else:
            assert items == [True]
            got = frames[0].pass_through(store.adopt_slab(
                slab, fmt, channels_of(channels)))
            assert got.equals(want)
            assert all(got.plane(c).flags.writeable for c in ALL_CHANNELS)
            assert got.equals(want)
            assert store.stats()["slabs_created"] == 1
    finally:
        store.close()


# ---------------------------------------------------------------------------
# Slab lifetime and reuse under live waves
# ---------------------------------------------------------------------------

#: Two geometries of one payload size (so slabs cross between them)
#: and one of another.
_SLAB_FORMATS = (ImageFormat("A8x24", 8, 24), ImageFormat("B12x16", 12, 16),
                 ImageFormat("C16x24", 16, 24))
_SLAB_FRAMES = {fmt: [noise_frame(fmt, seed=40 + 3 * i + k)
                      for k in range(3)]
                for i, fmt in enumerate(_SLAB_FORMATS)}

_slab_call = st.tuples(
    st.sampled_from(("intra", "inter", "reduce")),
    st.integers(0, 10_000),                      # op pick
    st.sampled_from(_SLAB_FORMATS),
    st.integers(0, 2), st.integers(0, 2),        # frame picks
    st.sampled_from(("drop", "frame", "plane")),  # what to keep
    st.sampled_from(ALL_CHANNELS))


def _slab_batch_call(spec):
    kind, op_pick, fmt, pick_a, pick_b = spec[:5]
    frame_a, frame_b = _SLAB_FRAMES[fmt][pick_a], _SLAB_FRAMES[fmt][pick_b]
    if kind == "intra":
        return BatchCall.intra(_INTRA[op_pick % len(_INTRA)], frame_a)
    op = _INTER[op_pick % len(_INTER)]
    if kind == "reduce":
        return BatchCall.inter_reduce(op, frame_a, frame_b)
    return BatchCall.inter(op, frame_a, frame_b)


def _run_wave(sched, wave, kept):
    """Run one wave; append the results ``wave`` says to keep (a whole
    frame, or one plane with its frame dropped) to ``kept`` beside the
    serial reference."""
    calls = [_slab_batch_call(spec) for spec in wave]
    results = AddressLib(SoftwareBackend()).run_batch(calls, scheduler=sched)
    # Both engines took a run.
    report = sched.last_report
    assert report.pool_calls > 0 and report.bypass_calls > 0
    assert report.pool_calls + report.bypass_calls == len(calls)
    for spec, call, got in zip(wave, calls, results):
        want = _serial_reference(call)
        keep, channel = spec[5], spec[6]
        if keep == "frame":
            kept.append((got, want))
        elif keep == "plane" and not isinstance(want, int):
            kept.append((got.plane(channel), want.plane(channel)))


def _halves(calls, indices, overlapped):
    """A two-engine cut: the first half of the wave on the worker, the
    rest in the parent."""
    half = max(1, len(indices) // 2)
    return [list(indices[:half]), list(indices[half:])]


@pytest.fixture(scope="module")
def slab_scheduler():
    with CallScheduler(max_workers=2) as sched:
        yield sched


@needs_shm
@settings(max_examples=15, deadline=None)
@given(waves=st.lists(st.lists(_slab_call, min_size=2, max_size=6),
                      min_size=1, max_size=3))
def test_slabs_outlive_their_views_and_recycle_in_steady_state(
        slab_scheduler, waves):
    kept = []
    for wave in waves:
        _run_wave(slab_scheduler, wave, kept)
        for got, want in kept:
            if isinstance(want, int):
                assert got == want
            elif hasattr(want, "equals"):
                assert got.equals(want)
            else:
                assert (got == want).all()
    # Steady state: once a wave's results are dropped, running it again
    # on the same engines leases only recycled slabs and reuses the
    # worker's input region.  (The balanced cut may move calls between
    # the engines from one wave to the next, so the placement is pinned
    # here.)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slab_scheduler, "_engine_runs", _halves)
        _run_wave(slab_scheduler, waves[-1], [])
        before = slab_scheduler.transport_stats()["store"]
        _run_wave(slab_scheduler, waves[-1], [])
        after = slab_scheduler.transport_stats()["store"]
    # Every frame result of the worker's run came back in a recycled
    # slab; the parent's own run leases none.
    half = max(1, len(waves[-1]) // 2)
    frame_jobs = sum(spec[0] != "reduce" for spec in waves[-1][:half])
    assert after["slabs_created"] == before["slabs_created"]
    assert after["segments_created"] == before["segments_created"]
    assert after["slabs_reused"] - before["slabs_reused"] == frame_jobs


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------

@needs_shm
class TestWorkerDeath:
    def test_dead_workers_fall_back_inline_without_leaks(self):
        frame_a = noise_frame(QCIF, seed=20)
        frame_b = noise_frame(QCIF, seed=21)
        calls = [BatchCall.intra(INTRA_BOX3, frame_a),
                 BatchCall.intra(INTRA_GRAD, frame_b)]
        lib = AddressLib(SoftwareBackend())
        before = _psm_names()
        sched = CallScheduler(max_workers=2)
        try:
            # A worker runs the first call, the parent the second.
            # One healthy wave to spawn the worker and map segments.
            lib.run_batch(calls, scheduler=sched)
            assert sched.total.pool_calls == 1
            store = sched._resources.store
            assert store is not None
            names = store.active_segment_names()
            assert names
            # Kill every worker process out from under the scheduler.
            dead = list(sched._resources.workers)
            assert len(dead) == 1
            for worker in dead:
                worker.process.terminate()
            for worker in dead:
                worker.process.join(timeout=30)
                assert worker.process.exitcode is not None
            results = lib.run_batch(calls, scheduler=sched)
            assert sched.last_report.pool_calls == 0
            assert sched.last_report.inline_calls == 1
            assert sched.last_report.bypass_calls == 1
            # The fallen-back run's slab went back to the idle list
            # (the parent's own run leases none).
            idle = sum(len(slabs) for slabs in store._idle_slabs.values())
            assert idle == 1 and store.slabs_created == 1
            assert results[0].equals(
                VectorExecutor.intra(INTRA_BOX3, frame_a))
            assert results[1].equals(
                VectorExecutor.intra(INTRA_GRAD, frame_b))
            # The dead worker was dropped: the next batch forks a fresh
            # one and ships again.
            assert sched._resources.workers == []
            results = lib.run_batch(calls, scheduler=sched)
            assert len(sched._resources.workers) == 1
            assert sched._resources.workers[0] not in dead
            assert sched.last_report.pool_calls == 1
            assert results[0].equals(
                VectorExecutor.intra(INTRA_BOX3, frame_a))
            assert results[1].equals(
                VectorExecutor.intra(INTRA_GRAD, frame_b))
        finally:
            sched.close()
        # Teardown left no named segments behind.
        for name in names:
            with pytest.raises(Exception):
                shm._attach_segment(name)
        assert _psm_names() - before == set()

    def test_death_after_first_result_leaks_no_segments(self,
                                                        monkeypatch):
        """The worker writes one result, then dies on its second job;
        the result it wrote lives in the parent's slab, so closing the
        scheduler leaves nothing behind in /dev/shm."""
        before = _psm_names()
        result_frame = shm.worker_result_frame
        jobs_run = [0]

        def dies_on_second_job(slabs, slab, fmt):
            # Only the workers write into slabs.
            jobs_run[0] += 1
            if jobs_run[0] == 2:
                os._exit(1)
            return result_frame(slabs, slab, fmt)

        # The pool forks on the first wave, so the worker inherits this.
        monkeypatch.setattr(shm, "worker_result_frame", dies_on_second_job)
        frames = [noise_frame(QCIF, seed=s) for s in (25, 26, 27, 28)]
        calls = [BatchCall.intra(INTRA_BOX3, frame) for frame in frames]
        lib = AddressLib(SoftwareBackend())
        sched = CallScheduler(max_workers=2)
        _pin(monkeypatch, sched, "worker")
        try:
            results = lib.run_batch(calls, scheduler=sched)
            assert jobs_run == [0]  # the parent never wrote a slab
            assert sched.last_report.pool_calls == 0
            assert sched.last_report.inline_calls == 4
            assert sched.last_report.bypass_calls == 0
            for frame, got in zip(frames, results):
                assert got.equals(VectorExecutor.intra(INTRA_BOX3, frame))
        finally:
            sched.close()
        assert _psm_names() - before == set()

    @staticmethod
    def _split(patch, scheduler, worker_calls):
        """Cut every wave into the first ``worker_calls`` calls for the
        worker process and the rest for the parent."""
        def runs(calls, indices, overlapped):
            return [list(indices[:worker_calls]),
                    list(indices[worker_calls:])]

        patch.setattr(scheduler, "_engine_runs", runs)

    def test_stale_reply_is_never_read(self, monkeypatch):
        """The parent's own run raises once, after its wave shipped and
        while the worker is still computing: that worker's reply is
        never read, so every later batch -- on other inputs -- stays
        bit-exact and ships again, and the interrupted run's slabs go
        back once its worker is stopped.  The worker is stopped, and
        its input region unlinked, before any region is written again:
        the next wave's inputs go into a fresh worker's region."""
        execute_wave = scheduler_module._execute_wave

        def slow(*args):
            time.sleep(0.3)
            return execute_wave(*args)

        # The worker forks on the first wave, so it inherits this.
        monkeypatch.setattr(scheduler_module, "_execute_wave", slow)
        execute_inline = CallScheduler._execute_inline
        raised = []

        def raises_once(call):
            # The first call the parent runs is its own run's first.
            if not raised:
                raised.append(call)
                raise RuntimeError("injected failure in the parent's run")
            return execute_inline(call)

        monkeypatch.setattr(CallScheduler, "_execute_inline",
                            staticmethod(raises_once))
        before = _psm_names()
        lib = AddressLib(SoftwareBackend())

        def batch(seed):
            frames = [noise_frame(QCIF, seed=seed + i) for i in range(4)]
            return [BatchCall.intra(op, frame) for frame in frames
                    for op in (INTRA_BOX3, INTRA_GRAD)]

        write_region = shm.PlaneStore.write_region
        writes = []

        def recorded(store, key, planes):
            # Which worker's region is written, and whether the stale
            # worker had exited by then.
            writes.append((key, stale_pid is not None
                           and _exited(stale_pid)))
            return write_region(store, key, planes)

        monkeypatch.setattr(shm.PlaneStore, "write_region", recorded)
        stale_pid = None
        sched = CallScheduler(max_workers=2)
        self._split(monkeypatch, sched, 4)
        # Held to the end, so the worker can finish the interrupted
        # wave on its region and write a reply nobody may read.
        interrupted = batch(100)
        try:
            with pytest.raises(RuntimeError, match="injected"):
                lib.run_batch(interrupted, scheduler=sched)
            [stale] = sched._resources.workers
            assert stale.pending
            stale_pid = stale.process.pid
            store = sched._resources.store
            stale_region = store._regions[stale_pid].name
            assert writes == [(stale_pid, False)]
            for seed in (200, 300, 400):
                calls = batch(seed)
                results = lib.run_batch(calls, scheduler=sched)
                for call, got in zip(calls, results):
                    _assert_same(got, _serial_reference(call))
                report = sched.last_report
                assert report.pool_calls == 4
                assert report.bypass_calls == 4
                assert report.inline_calls == 0
                if seed == 200:
                    # The stopped worker's four slabs were idle again
                    # for this wave's worker run.
                    assert store.slabs_reused == 4
            # The stale worker was stopped, and a fresh one took over,
            # with a region of its own.
            fresh = sched._resources.workers[0]
            assert fresh is not stale
            assert stale.process not in multiprocessing.active_children()
            assert writes[1:] == [(fresh.process.pid, True)] * 3
            assert stale_region not in _psm_names()
        finally:
            sched.close()
        assert _psm_names() - before == set()

    def test_death_inside_a_run_fails_only_its_group(self, monkeypatch):
        """A worker exits inside its run: its group runs inline, still
        bit-exact, and its slabs go back; every call is booked once;
        the next batch starts a fresh worker and ships again; and no
        segment or worker process outlives ``close()``."""
        execute_wave = scheduler_module._execute_wave

        def dies(*args):
            os._exit(3)

        # The worker forks on the first wave, so it inherits this.
        monkeypatch.setattr(scheduler_module, "_execute_wave", dies)
        before = _psm_names()
        frames = [noise_frame(QCIF, seed=s) for s in (70, 71, 72)]
        calls = [BatchCall.intra(INTRA_BOX3, frames[0]),
                 BatchCall.intra(INTRA_GRAD, frames[1]),
                 BatchCall.inter_reduce(INTER_OPS["inter_absdiff"],
                                        frames[1], frames[2]),
                 BatchCall.intra(INTRA_GRAD, frames[2])]
        lib = AddressLib(SoftwareBackend())
        sched = CallScheduler(max_workers=2)
        self._split(monkeypatch, sched, 3)
        try:
            results = lib.run_batch(calls, scheduler=sched)
            for call, got in zip(calls, results):
                _assert_same(got, _serial_reference(call))
            report = sched.last_report
            assert report.pool_calls == 0
            assert report.inline_calls == 3
            assert report.bypass_calls == 1
            assert (report.pool_calls + report.inline_calls
                    + report.bypass_calls == report.calls == len(calls))
            # The dead worker's two slabs are idle again (the parent's
            # own run leases none).
            store = sched._resources.store
            idle = sum(len(slabs) for slabs in store._idle_slabs.values())
            assert idle == 2 and store.slabs_created == 2
            assert sched._resources.workers == []
            # A healthy fork ships the next batch.
            monkeypatch.setattr(scheduler_module, "_execute_wave",
                                execute_wave)
            results = lib.run_batch(calls, scheduler=sched)
            for call, got in zip(calls, results):
                _assert_same(got, _serial_reference(call))
            assert sched.last_report.pool_calls == 3
            assert sched.last_report.inline_calls == 0
            processes = [worker.process
                         for worker in sched._resources.workers]
            assert len(processes) == 1
        finally:
            sched.close()
        assert not set(processes) & set(multiprocessing.active_children())
        assert _psm_names() - before == set()


@needs_shm
class TestInputsByValue:
    """A worker reads its inputs as they were when its run shipped:
    copied into its region each wave, whatever wrote them since."""

    @staticmethod
    def _pinned(monkeypatch, sched):
        """Every wave's first call on the worker, the rest in the
        parent."""
        def runs(calls, indices, overlapped):
            return [list(indices[:1]), list(indices[1:])]

        monkeypatch.setattr(sched, "_engine_runs", runs)

    def test_a_write_through_plane_between_batches_reaches_the_worker(
            self, monkeypatch):
        frame = noise_frame(QCIF, seed=22)
        calls = [BatchCall.intra(INTRA_BOX3, frame),
                 BatchCall.intra(INTRA_GRAD, frame)]
        lib = AddressLib(SoftwareBackend())
        with CallScheduler(max_workers=2) as sched:
            self._pinned(monkeypatch, sched)
            first = lib.run_batch(calls, scheduler=sched)
            first_want = _serial_reference(calls[0])
            frame.plane(Channel.Y)[:] ^= 5
            results = lib.run_batch(calls, scheduler=sched)
            # The worker's run (the first call) read the new content.
            assert sched.last_report.pool_calls == 1
        assert first[0].equals(first_want)
        assert not results[0].equals(first_want)
        assert results[0].equals(VectorExecutor.intra(INTRA_BOX3, frame))
        assert results[1].equals(VectorExecutor.intra(INTRA_GRAD, frame))

    def test_a_write_through_a_held_alias_between_batches_reaches_the_worker(
            self, monkeypatch):
        """``frame.u`` held from before the first batch: a write through
        it after the batch, which no accessor sees, still reaches the
        worker's next run, while the first batch's results keep the
        content they were computed from."""
        frame = noise_frame(QCIF, seed=23)
        alias = frame.u
        calls = [BatchCall.intra(INTRA_GRAD, frame, ChannelSet.YUV),
                 BatchCall.intra(INTRA_BOX3, frame, ChannelSet.YUV)]
        first_want = [_serial_reference(call) for call in calls]
        lib = AddressLib(SoftwareBackend())
        with CallScheduler(max_workers=2) as sched:
            self._pinned(monkeypatch, sched)
            first = lib.run_batch(calls, scheduler=sched)
            alias[3:9, 5:40] ^= 0x5A
            second_want = [_serial_reference(call) for call in calls]
            second = lib.run_batch(calls, scheduler=sched)
            assert sched.last_report.pool_calls == 1
        assert not first_want[0].equals(second_want[0])
        for got, want in zip(first, first_want):
            assert got.equals(want)
        for got, want in zip(second, second_want):
            assert got.equals(want)

    def test_each_worker_reads_its_own_region(self, monkeypatch):
        """Three engines, so two workers: every run's planes go into its
        own worker's region before anything is sent, and neither run's
        copy overwrites the other's."""
        monkeypatch.setattr("repro.host.scheduler.os.cpu_count", lambda: 3)
        frames = [noise_frame(QCIF, seed=30 + i) for i in range(6)]
        calls = [BatchCall.intra(INTRA_BOX3, frame) for frame in frames]
        with CallScheduler(max_workers=3) as sched:
            def runs(calls, indices, overlapped):
                return [list(indices[:3]), list(indices[3:5]),
                        list(indices[5:])]

            monkeypatch.setattr(sched, "_engine_runs", runs)
            results = AddressLib(SoftwareBackend()).run_batch(
                calls, scheduler=sched)
            for call, got in zip(calls, results):
                _assert_same(got, _serial_reference(call))
            assert sched.last_report.pool_calls == 5
            workers = sched._resources.workers
            regions = sched._resources.store._regions
            assert len(workers) == 2
            assert len({regions[w.process.pid].name for w in workers}) == 2

    def test_a_region_is_reused_then_grown_and_released_with_its_worker(
            self, monkeypatch):
        """The worker's region holds across waves of one geometry, is
        replaced (the old one unlinked) for a larger geometry, and goes
        when its worker is stopped; ``close()`` leaves no name behind."""
        before = _psm_names()
        lib = AddressLib(SoftwareBackend())
        small = ImageFormat("S16x16", 16, 16)
        with CallScheduler(max_workers=2) as sched:
            self._pinned(monkeypatch, sched)

            def region_after(fmt, seed):
                frame = noise_frame(fmt, seed=seed)
                calls = [BatchCall.intra(INTRA_BOX3, frame),
                         BatchCall.intra(INTRA_GRAD, frame)]
                for call, got in zip(calls, lib.run_batch(
                        calls, scheduler=sched)):
                    _assert_same(got, _serial_reference(call))
                [worker] = sched._resources.workers
                return sched._resources.store._regions[
                    worker.process.pid].name

            first = region_after(small, 1)
            assert region_after(small, 2) == first
            grown = region_after(QCIF, 3)
            assert grown != first
            assert first not in _psm_names() and grown in _psm_names()
            assert region_after(small, 4) == grown
            # A stopped worker's region goes with it.
            sched._resources.drop_workers(list(sched._resources.workers))
            assert grown not in _psm_names()
            fresh = region_after(small, 5)
            assert fresh not in (first, grown)
        assert _psm_names() - before == set()


@needs_shm
class TestTeardown:
    def test_abandoned_scheduler_releases_segments(self):
        frame_a = noise_frame(QCIF, seed=23)
        frame_b = noise_frame(QCIF, seed=24)
        lib = AddressLib(SoftwareBackend())
        sched = CallScheduler(max_workers=2)
        lib.run_batch([BatchCall.intra(INTRA_BOX3, frame_a),
                       BatchCall.intra(INTRA_GRAD, frame_b)],
                      scheduler=sched)
        store = sched._resources.store
        names = store.active_segment_names()
        assert names
        del sched
        gc.collect()
        assert store.closed
        for name in names:
            with pytest.raises(Exception):
                shm._attach_segment(name)

    def test_close_is_reentrant(self):
        sched = CallScheduler(max_workers=2)
        sched.close()
        sched.close()
        assert sched.compute_batch([]) == []

    def test_close_waits_for_the_workers_to_exit(self):
        """No worker process outlives ``close()``: every worker is
        stopped and joined, so nothing of it is left running at
        interpreter exit."""
        frame = noise_frame(QCIF, seed=25)
        sched = CallScheduler(max_workers=2)
        AddressLib(SoftwareBackend()).run_batch(
            [BatchCall.intra(INTRA_BOX3, frame),
             BatchCall.intra(INTRA_GRAD, frame)], scheduler=sched)
        assert sched.last_report.pool_calls == 1
        workers = {worker.process for worker in sched._resources.workers}
        assert workers
        assert workers <= set(multiprocessing.active_children())
        pids = [process.pid for process in workers]
        sched.close()
        assert not workers & set(multiprocessing.active_children())
        assert sched._resources.workers == []
        for pid in pids:  # joined, so reaped: the pid names nothing
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


#: A process that runs one batch on a two-engine scheduler, writes the
#: pids of its worker processes to the file named by its argument, then
#: kills itself with SIGKILL: nothing of its own gets to stop a worker.
_KILLED_PARENT = """
import multiprocessing, os, signal, sys
os.cpu_count = lambda: 2
from repro.addresslib import (AddressLib, BatchCall, INTRA_BOX3, INTRA_GRAD,
                              SoftwareBackend)
from repro.host import CallScheduler
from repro.image import ImageFormat, noise_frame
frame = noise_frame(ImageFormat("S", 32, 32), seed=1)
sched = CallScheduler(max_workers=2)
AddressLib(SoftwareBackend()).run_batch(
    [BatchCall.intra(INTRA_BOX3, frame), BatchCall.intra(INTRA_GRAD, frame)],
    scheduler=sched)
assert sched.last_report.pool_calls == 1, sched.last_report
pids = [process.pid for process in multiprocessing.active_children()]
with open(sys.argv[1], "w") as out:
    out.write(" ".join(str(pid) for pid in pids))
os.kill(os.getpid(), signal.SIGKILL)
"""


def _exited(pid):
    """Whether ``pid`` has exited: no such process, or a zombie that
    waits for its new parent to reap it."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (OSError, IndexError):
        return True


@needs_shm
class TestWorkerLifetime:
    def test_workers_die_with_a_killed_parent(self, tmp_path):
        """A parent killed by SIGKILL leaves no worker running: each
        worker's receive sees end of file (it holds no parent end of
        any pipe) and it exits, within a bounded time.  The child's
        output goes to files, never to a pipe an orphan could hold."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        pid_file = tmp_path / "workers"
        with open(tmp_path / "stderr", "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", _KILLED_PARENT, str(pid_file)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=stderr, env=env)
            returncode = proc.wait(timeout=120)
        assert returncode == -signal.SIGKILL, (
            (tmp_path / "stderr").read_text())
        pids = [int(pid) for pid in pid_file.read_text().split()]
        assert pids
        try:
            deadline = time.monotonic() + 10.0
            while (not all(_exited(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert [pid for pid in pids if not _exited(pid)] == []
        finally:
            for pid in pids:
                if not _exited(pid):
                    os.kill(pid, signal.SIGKILL)
            # A new store unlinks the killed parent's segments.
            shm.PlaneStore().close()


#: A process that makes a store, writes one input region, leases one
#: slab, prints both segment names, then exits without closing the store
#: ("exit") or waits to be killed ("wait").
_STORE_OWNER = """
import sys, time
from repro.host.shm import PlaneStore
from repro.image import ImageFormat, noise_frame
from repro.image.pixel import Channel
store = PlaneStore()
frame = noise_frame(ImageFormat("S", 8, 8), seed=1)
region, _ = store.write_region(0, [frame.read_plane(Channel.Y)])
slab = store.lease_slab(frame.format)
print(region, slab.segment_name, flush=True)
if sys.argv[1] == "wait":
    time.sleep(120)
"""


def _store_owner(mode):
    """Start :data:`_STORE_OWNER`; returns the process and the names of
    the segments its store made."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", _STORE_OWNER, mode],
                            stdout=subprocess.PIPE, env=env, text=True)
    names = set(proc.stdout.readline().split())
    assert len(names) == 2
    return proc, names


@needs_shm
@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="no /dev/shm listing of segment names")
class TestSegmentLifetime:
    """No segment outlives its store's process, however it ends."""

    def test_exit_without_close_releases_the_store(self):
        proc, names = _store_owner("exit")
        assert proc.wait(timeout=60) == 0
        proc.stdout.close()
        assert names & _psm_names() == set()

    def test_collected_store_releases_its_segments(self):
        store = shm.PlaneStore()
        frame = noise_frame(ImageFormat("S", 8, 8), seed=2)
        store.write_region(0, [frame.read_plane(Channel.Y)])
        store.lease_slab(frame.format)
        names = set(store.active_segment_names())
        assert names <= _psm_names()
        del store
        gc.collect()
        assert names & _psm_names() == set()

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL],
                             ids=["SIGTERM", "SIGKILL"])
    def test_killed_owner_is_swept_by_the_next_store(self, signum):
        proc, names = _store_owner("wait")
        assert names <= _psm_names()
        proc.send_signal(signum)
        assert proc.wait(timeout=60) == -signum
        proc.stdout.close()
        # The killed process cleaned nothing up; the next store does.
        shm.PlaneStore().close()
        assert names & _psm_names() == set()

    @pytest.mark.skipif(not shm._PID_NAMESPACE,
                        reason="the platform names no pid namespace")
    def test_sweep_leaves_names_it_cannot_attribute(self):
        # A pid no process here has: dead in this namespace, possibly
        # live in another one sharing /dev/shm.
        pid = 999_999_999
        ours = f"psm_{shm._PID_NAMESPACE}_{pid}_{'a' * 10}"
        foreign = f"psm_{shm._PID_NAMESPACE + 1}_{pid}_{'b' * 10}"
        unnamespaced = f"psm_{pid}_{'c' * 10}"
        made = (ours, foreign, unnamespaced)
        for name in made:
            os.close(shm._posixshmem.shm_open(
                "/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600))
        try:
            shm.PlaneStore().close()
            assert ours not in _psm_names()
            assert {foreign, unnamespaced} <= _psm_names()
        finally:
            for name in made:
                try:
                    shm._posixshmem.shm_unlink("/" + name)
                except OSError:
                    pass

