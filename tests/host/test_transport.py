"""Zero-copy transport: plane store, worker cache, and fallbacks.

The scheduler must hand back *indistinguishable* results wherever a
call ran: in a worker over shared memory, in the parent of a
one-process host, or in the inline fallback after shared memory, the
store or a worker failed.  This harness drives the 0xFA57 corpus
recipe down each of those paths and pins down the segment lifecycle
-- registration dedupe, generation bumps on mutation, weakref release,
result-slab recycling, and leak-free teardown.
"""

import gc
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (AddressLib, BatchCall, INTER_OPS, INTRA_BOX3,
                              INTRA_GRAD, INTRA_OPS, SoftwareBackend,
                              VectorExecutor)
from repro.host import CallScheduler, SHARED_MEMORY_AVAILABLE
from repro.host import scheduler as scheduler_module
from repro.host import shm
from repro.image import ImageFormat, noise_frame
from repro.image.pixel import ALL_CHANNELS

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

SHARDS = 8
CASES_PER_SHARD = 26

QCIF = ImageFormat("QCIF", 176, 144)

needs_shm = pytest.mark.skipif(not SHARED_MEMORY_AVAILABLE,
                               reason="no multiprocessing.shared_memory")


@pytest.fixture(scope="module", autouse=True)
def two_or_more_cpus():
    """At least two CPUs, so schedulers built here run two worker
    processes and ship over shared memory even on a one-CPU host."""
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
    if call.reduce_to_scalar:
        return VectorExecutor.inter_reduce(call.op, call.frames[0],
                                           call.frames[1], call.channels)
    if len(call.frames) == 2:
        return VectorExecutor.inter(call.op, call.frames[0],
                                    call.frames[1], call.channels)
    return VectorExecutor.intra(call.op, call.frames[0], call.channels)


def _assert_same(got, want):
    if isinstance(want, int):
        assert got == want
    else:
        assert got.equals(want)


def _psm_names():
    """POSIX shared-memory names ``multiprocessing`` created."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


# ---------------------------------------------------------------------------
# Parent-side plane store
# ---------------------------------------------------------------------------

@needs_shm
class TestPlaneStore:
    def test_register_dedupes_unchanged_frame(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=3)
        try:
            first = store.register(frame)
            second = store.register(frame)
            assert first is second
            assert first.generation == 0
            assert store.segments_created == 1
            assert store.segments_active == 1
        finally:
            store.close()

    def test_mutation_bumps_generation_into_fresh_segment(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=4)
        try:
            first = store.register(frame)
            frame.y[:] ^= 1
            second = store.register(frame)
            assert second.frame_id == first.frame_id
            assert second.generation == first.generation + 1
            assert second.segment_name != first.segment_name
            assert store.generation_bumps == 1
            assert store.segments_created == 2
            assert store.segments_active == 1
            # The stale segment's name is gone.
            with pytest.raises(Exception):
                shm._attach_segment(first.segment_name)
        finally:
            store.close()

    def test_frame_gc_releases_segment(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=5)
        try:
            handle = store.register(frame)
            assert store.segments_active == 1
            del frame
            gc.collect()
            assert store.segments_active == 0
            with pytest.raises(Exception):
                shm._attach_segment(handle.segment_name)
        finally:
            store.close()

    def test_close_releases_everything_and_is_idempotent(self):
        store = shm.PlaneStore()
        frames = [noise_frame(QCIF, seed=s) for s in (6, 7)]
        handles = [store.register(f) for f in frames]
        store.close()
        store.close()
        assert store.segments_active == 0
        for handle in handles:
            with pytest.raises(Exception):
                shm._attach_segment(handle.segment_name)
        # A closed store declines new registrations.
        assert store.register(frames[0]) is None

    def test_broken_store_answers_none(self):
        store = shm.PlaneStore()
        store.broken = True
        assert store.register(noise_frame(QCIF, seed=8)) is None


# ---------------------------------------------------------------------------
# Result slabs (exercised in-process)
# ---------------------------------------------------------------------------

@needs_shm
class TestResultSlabs:
    def teardown_method(self):
        shm.reset_worker_cache()

    @staticmethod
    def _deliver(store, frame):
        """Lease a slab, write ``frame`` into it as a worker would, and
        adopt it; returns ``(slab, adopted frame)``."""
        slab = store.lease_slab(frame.format)
        assert shm.worker_write_slab(slab, frame)
        return slab, store.adopt_slab(slab, frame.format)

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
# Worker-resident cache (exercised in-process)
# ---------------------------------------------------------------------------

@needs_shm
class TestWorkerCache:
    def teardown_method(self):
        shm.reset_worker_cache()

    def test_attach_caches_and_hits(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=9)
        try:
            handle = store.register(frame)
            first, hit_first = shm.worker_attach(handle)
            again, hit_again = shm.worker_attach(handle)
            assert not hit_first and hit_again
            assert again is first
            assert first.equals(frame)
            assert shm.worker_cache_size() == 1
        finally:
            store.close()

    def test_generation_bump_invalidates_cached_mapping(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=10)
        try:
            old = store.register(frame)
            cached, _ = shm.worker_attach(old)
            before = cached.y.copy()
            frame.y[:] ^= 3
            new = store.register(frame)
            assert new.generation == old.generation + 1
            fresh, hit = shm.worker_attach(new)
            assert not hit
            assert fresh is not cached
            assert fresh.equals(frame)
            # The stale view still reads the *old* content: its mapping
            # survives the unlink until the last view drops.
            assert (cached.y == before).all()
        finally:
            store.close()

    def test_tokens_isolate_stores(self):
        store_a, store_b = shm.PlaneStore(), shm.PlaneStore()
        frame = noise_frame(QCIF, seed=11)
        try:
            handle_a = store_a.register(frame)
            handle_b = store_b.register(frame)
            _, hit_a = shm.worker_attach(handle_a)
            _, hit_b = shm.worker_attach(handle_b)
            assert not hit_a and not hit_b
            assert shm.worker_cache_size() == 2
        finally:
            store_a.close()
            store_b.close()

    def test_reset_clears_cache(self):
        store = shm.PlaneStore()
        frame = noise_frame(QCIF, seed=12)  # held: GC would drop the segment
        try:
            handle = store.register(frame)
            shm.worker_attach(handle)
            shm.reset_worker_cache()
            assert shm.worker_cache_size() == 0
            _, hit = shm.worker_attach(handle)
            assert not hit
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Corpus bit-exactness over shared memory and every inline path
# ---------------------------------------------------------------------------

def _corpus_shard(shard):
    rng = random.Random(0xFA57 + shard)
    return [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]


def _run_shard(scheduler, shard):
    calls = _corpus_shard(shard)
    results = AddressLib(SoftwareBackend()).run_batch(calls,
                                                      scheduler=scheduler)
    assert len(results) == len(calls)
    for call, got in zip(calls, results):
        _assert_same(got, _serial_reference(call))
    return len(calls)


def _run_corpus(scheduler):
    for shard in range(SHARDS):
        _run_shard(scheduler, shard)


class TestCorpusAcrossTransports:
    @needs_shm
    def test_shared_memory_transport(self):
        with CallScheduler(max_workers=2) as sched:
            _run_corpus(sched)
            stats = sched.transport_stats()
        assert stats["pool_calls"] == SHARDS * CASES_PER_SHARD

    def test_without_shared_memory_every_call_runs_inline(self,
                                                          monkeypatch):
        before = _psm_names()
        monkeypatch.setattr(shm, "SHARED_MEMORY_AVAILABLE", False)
        with CallScheduler(max_workers=2) as sched:
            _run_corpus(sched)
            stats = sched.transport_stats()
        assert stats["pool_calls"] == 0
        assert stats["round_trips"] == 0
        assert stats["inline_calls"] == SHARDS * CASES_PER_SHARD
        assert stats["store"] == {}  # no store, so no slab was leased
        assert _psm_names() - before == set()

    @needs_shm
    @pytest.mark.parametrize("failing", ["register", "lease"])
    def test_store_failure_mid_ship_runs_the_wave_inline(self, monkeypatch,
                                                         failing):
        """A segment creation fails while the first shard ships --
        registering its third frame, or leasing its first slab (the
        store registers every distinct frame before leasing).  That
        wave runs inline, the broken store is closed with every segment
        it made, and the next shard ships over a fresh store."""
        before = _psm_names()
        first = _corpus_shard(0)
        frames = len({id(f) for call in first for f in call.frames})
        fail_at = 3 if failing == "register" else frames + 1
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
            calls = _run_shard(sched, 0)
            assert sched.last_report.pool_calls == 0
            assert sched.last_report.inline_calls == calls
            assert len(made) == fail_at
            assert sched._resources.store is None
            assert set(made[:-1]) & _psm_names() == set()
            for shard in range(1, SHARDS):
                calls = _run_shard(sched, shard)
                assert sched.last_report.pool_calls == calls
        assert _psm_names() - before == set()

    @needs_shm
    def test_unwritable_slab_runs_its_call_inline(self, monkeypatch):
        """Workers that cannot write a result slab send those calls
        back: the parent runs them inline and recycles their slabs,
        while the reduces' scalars still come back from the pool."""
        # The pool forks on the first wave, so the workers inherit this.
        monkeypatch.setattr(shm, "worker_write_slab",
                            lambda slab, frame: False)
        frame_jobs = sum(not call.reduce_to_scalar
                         for call in _corpus_shard(0))
        with CallScheduler(max_workers=2) as sched:
            calls = _run_shard(sched, 0)
            assert sched.last_report.inline_calls == frame_jobs
            assert sched.last_report.pool_calls == calls - frame_jobs
            store = sched._resources.store
            idle = sum(len(slabs) for slabs in store._idle_slabs.values())
            assert idle == store.slabs_created == frame_jobs

    def test_inline_bypass(self, monkeypatch):
        # One CPU, so one process: every call stays in the parent.
        monkeypatch.setattr("repro.host.scheduler.os.cpu_count",
                            lambda: 1)
        with CallScheduler(max_workers=2) as sched:
            _run_corpus(sched)
            stats = sched.transport_stats()
        assert stats["pool_calls"] == 0
        assert stats["bypass_calls"] == SHARDS * CASES_PER_SHARD


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
    assert sched.last_report.pool_calls == len(calls)
    for spec, call, got in zip(wave, calls, results):
        want = _serial_reference(call)
        keep, channel = spec[5], spec[6]
        if keep == "frame":
            kept.append((got, want))
        elif keep == "plane" and not isinstance(want, int):
            kept.append((got.plane(channel), want.plane(channel)))


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
    # leases only recycled slabs and registers nothing new.
    _run_wave(slab_scheduler, waves[-1], [])
    before = slab_scheduler.transport_stats()["store"]
    _run_wave(slab_scheduler, waves[-1], [])
    after = slab_scheduler.transport_stats()["store"]
    frame_jobs = sum(spec[0] != "reduce" for spec in waves[-1])
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
            # One healthy wave to spawn the workers and map segments.
            lib.run_batch(calls, scheduler=sched)
            assert sched.total.pool_calls == 2
            store = sched._resources.store
            assert store is not None
            names = store.active_segment_names()
            assert names
            # Kill every worker process out from under the pool.
            pool = sched._resources.pool
            for process in pool._processes.values():
                process.terminate()
            for process in pool._processes.values():
                process.join()
            results = lib.run_batch(calls, scheduler=sched)
            assert sched.last_report.pool_calls == 0
            assert sched.last_report.inline_calls == 2
            # The fallen-back wave's slabs went back to the idle list.
            idle = sum(len(slabs) for slabs in store._idle_slabs.values())
            assert idle == store.slabs_created == 2
            assert results[0].equals(
                VectorExecutor.intra(INTRA_BOX3, frame_a))
            assert results[1].equals(
                VectorExecutor.intra(INTRA_GRAD, frame_b))
            # The dead pool was dropped: the next batch forks a fresh
            # one and ships again.
            results = lib.run_batch(calls, scheduler=sched)
            assert sched._resources.pool is not pool
            assert sched.last_report.pool_calls == 2
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
        """Each worker writes one result, then dies on its second job;
        the results it wrote live in the parent's slabs, so closing the
        scheduler leaves nothing behind in /dev/shm."""
        before = _psm_names()
        execute_call = scheduler_module._execute_call
        jobs_run = [0]
        parent = os.getpid()

        def dies_on_second_job(*args):
            # The parent's inline fallback runs the same dispatcher;
            # only the workers die.
            if os.getpid() != parent:
                jobs_run[0] += 1
                if jobs_run[0] == 2:
                    os._exit(1)
            return execute_call(*args)

        # The pool forks on the first wave, so the workers inherit this.
        monkeypatch.setattr(scheduler_module, "_execute_call",
                            dies_on_second_job)
        frames = [noise_frame(QCIF, seed=s) for s in (25, 26, 27, 28)]
        calls = [BatchCall.intra(INTRA_BOX3, frame) for frame in frames]
        lib = AddressLib(SoftwareBackend())
        sched = CallScheduler(max_workers=2)
        try:
            results = lib.run_batch(calls, scheduler=sched)
            assert sched.last_report.pool_calls == 0
            assert sched.last_report.inline_calls == len(calls)
            for frame, got in zip(frames, results):
                assert got.equals(VectorExecutor.intra(INTRA_BOX3, frame))
        finally:
            sched.close()
        assert _psm_names() - before == set()

    def test_generation_bump_reaches_real_workers(self):
        frame = noise_frame(QCIF, seed=22)
        calls = [BatchCall.intra(INTRA_BOX3, frame),
                 BatchCall.intra(INTRA_GRAD, frame)]
        lib = AddressLib(SoftwareBackend())
        with CallScheduler(max_workers=2) as sched:
            lib.run_batch(calls, scheduler=sched)
            frame.y[:] ^= 5
            results = lib.run_batch(calls, scheduler=sched)
            store_stats = sched.transport_stats()["store"]
            assert store_stats["generation_bumps"] >= 1
        assert results[0].equals(VectorExecutor.intra(INTRA_BOX3, frame))
        assert results[1].equals(VectorExecutor.intra(INTRA_GRAD, frame))


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
