"""The pipelined call scheduler: bit-exactness, determinism, accounting.

The scheduler may execute calls in the parent or in worker processes
and in any completion order, but the results handed back must be
*indistinguishable* from serial execution: identical frames, identical
scalars, identical call records.  This harness drives the same
randomized corpus recipe as the fast-path equivalence suite (seed
family 0xFA57) through batched and serial execution and compares
everything.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (AddressLib, BatchCall, INTER_ABSDIFF,
                              INTER_ADD, INTER_OPS, INTRA_BOX3, INTRA_GRAD,
                              INTRA_MEDIAN3, INTRA_OPS, INTRA_SOBEL_X,
                              INTRA_SOBEL_Y, SoftwareBackend, VectorExecutor,
                              dependency_edges, dependency_levels,
                              kernel_by_name, threshold_op, trace_program)
from repro.host import CallScheduler, EngineBackend, SHARED_MEMORY_AVAILABLE
from repro.host import scheduler as scheduler_module
from repro.image import ImageFormat, noise_frame
from repro.perf import EngineTimingModel, list_scheduled_makespan
from repro.pool import call_cost_seconds

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)

SHARDS = 8
CASES_PER_SHARD = 26

QCIF = ImageFormat("QCIF", 176, 144)


#: Shards the module scheduler has run (the corpus total test checks
#: the books of all of them).
_SHARDS_RUN = []


@pytest.fixture(scope="module")
def scheduler():
    # Two engines whatever this host has -- the parent and one worker
    # process -- so the corpus crosses shared memory even on one CPU.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.host.scheduler.os.cpu_count", lambda: 2)
        sched = CallScheduler(max_workers=2)
    with sched:
        yield sched


def _pin(patch, scheduler, engine):
    """Place every shippable call of ``scheduler``'s waves on one
    engine -- the first worker process (``"worker"``) or the parent
    (``"parent"``) -- instead of the balanced cut, which
    :class:`TestEngineRuns` covers."""
    def runs(calls, indices, overlapped):
        placed = [[] for _ in range(scheduler._engines)]
        placed[0 if engine == "worker" else -1] = list(indices)
        return placed

    patch.setattr(scheduler, "_engine_runs", runs)


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
    the result its input's untouched planes, which a registered input
    shares with its segment, and a reference must not follow them."""
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


class TestCorpusEquivalence:
    @pytest.mark.parametrize("shard", range(SHARDS))
    def test_scheduled_matches_serial_executor(self, shard, scheduler):
        """The shard runs twice: once handed whole to the worker, once
        kept whole in the parent, so every case crosses shared memory
        in one pass and runs in the parent's own run in the other,
        bit-exact both times."""
        rng = random.Random(0xFA57 + shard)
        calls = [_random_batch_call(rng) for _ in range(CASES_PER_SHARD)]
        lib = AddressLib(SoftwareBackend())
        for engine in ("worker", "parent"):
            with pytest.MonkeyPatch.context() as patch:
                _pin(patch, scheduler, engine)
                results = lib.run_batch(calls, scheduler=scheduler)
            assert len(results) == len(calls)
            for call, got in zip(calls, results):
                _assert_same(got, _serial_reference(call))
            report = scheduler.last_report
            shipped = engine == "worker" and SHARED_MEMORY_AVAILABLE
            assert report.pool_calls == (len(calls) if shipped else 0)
            assert report.bypass_calls == (
                len(calls) if engine == "parent" else 0)
        _SHARDS_RUN.append(shard)

    @pytest.mark.skipif(not SHARED_MEMORY_AVAILABLE,
                        reason="no multiprocessing.shared_memory")
    def test_every_case_reached_a_worker(self, scheduler):
        # Runs after the shards, in file order: over the two passes,
        # every one of the 208 cases crossed shared memory to a worker
        # once and ran in the parent once.
        if sorted(_SHARDS_RUN) != list(range(SHARDS)):
            pytest.skip("the corpus shards were deselected")
        assert scheduler.total.pool_calls == SHARDS * CASES_PER_SHARD
        assert scheduler.total.bypass_calls == SHARDS * CASES_PER_SHARD
        assert scheduler.total.inline_calls == 0

    def test_deterministic_across_worker_counts(self):
        rng = random.Random(0xFA57)
        calls = [_random_batch_call(rng) for _ in range(12)]
        reference = None
        for workers in range(1, 5):
            with CallScheduler(max_workers=workers) as sched:
                lib = AddressLib(SoftwareBackend())
                results = lib.run_batch(calls, scheduler=sched)
            if reference is None:
                reference = results
            else:
                for got, want in zip(results, reference):
                    _assert_same(got, want)


class TestRecordParity:
    def _calls(self):
        a = noise_frame(QCIF, seed=1)
        b = noise_frame(QCIF, seed=2)
        return [BatchCall.intra(INTRA_SOBEL_X, a),
                BatchCall.intra(INTRA_SOBEL_Y, a),
                BatchCall.inter(INTER_ADD, a, b),
                BatchCall.inter_reduce(INTER_ABSDIFF, a, b)]

    def test_software_records_identical(self, scheduler):
        serial = AddressLib(SoftwareBackend())
        batched = AddressLib(SoftwareBackend())
        serial_results = serial.run_batch(self._calls())
        batched_results = batched.run_batch(self._calls(),
                                            scheduler=scheduler)
        for got, want in zip(batched_results, serial_results):
            _assert_same(got, want)
        assert len(serial.log.records) == len(batched.log.records)
        for rs, rb in zip(serial.log.records, batched.log.records):
            assert rs.op_name == rb.op_name
            assert rs.mode == rb.mode
            assert rs.pixels == rb.pixels
            assert vars(rs.profile) == vars(rb.profile)

    def test_engine_pricing_identical(self, scheduler):
        serial = AddressLib(EngineBackend())
        batched = AddressLib(EngineBackend())
        serial_results = serial.run_batch(self._calls())
        batched_results = batched.run_batch(self._calls(),
                                            scheduler=scheduler)
        for got, want in zip(batched_results, serial_results):
            _assert_same(got, want)
        for rs, rb in zip(serial.log.records, batched.log.records):
            assert rs.op_name == rb.op_name
            assert rs.extra["call_seconds"] == pytest.approx(
                rb.extra["call_seconds"], abs=0.0)
            assert rs.extra["board_seconds"] == pytest.approx(
                rb.extra["board_seconds"], abs=0.0)
            assert rs.extra["pci_words"] == rb.extra["pci_words"]
        assert (serial.backend.driver.calls_submitted
                == batched.backend.driver.calls_submitted)
        assert (serial.backend.driver.interrupts_serviced
                == batched.backend.driver.interrupts_serviced)

    def test_parallel_wave_invalidates_residency(self, scheduler):
        backend = EngineBackend(chain_frames=True)
        lib = AddressLib(backend)
        frame = noise_frame(QCIF, seed=3)
        lib.intra(INTRA_BOX3, frame)
        assert backend.residency.held_frames > 0
        lib.run_batch([BatchCall.intra(INTRA_SOBEL_X, frame),
                       BatchCall.intra(INTRA_SOBEL_Y, frame)],
                      scheduler=scheduler)
        # The wave dropped the cached bank state, and batched records
        # never claim residency.
        batch_records = lib.log.records[-2:]
        assert all(r.extra["resident_inputs"] == 0.0
                   for r in batch_records)

    def test_single_call_batch_stays_serial(self, scheduler):
        lib = AddressLib(SoftwareBackend())
        frame = noise_frame(QCIF, seed=4)
        before = scheduler.total.calls
        results = lib.run_batch([BatchCall.intra(INTRA_BOX3, frame)],
                                scheduler=scheduler)
        assert results[0].equals(VectorExecutor.intra(INTRA_BOX3, frame))
        # One call has nothing to overlap with: no scheduler involvement.
        assert scheduler.total.calls == before


class TestOpShipping:
    def test_registry_ops_ship_to_workers(self, scheduler):
        frame = noise_frame(QCIF, seed=5)
        assert CallScheduler._op_token(
            BatchCall.intra(INTRA_BOX3, frame)) == "intra_box3"
        kernel = kernel_by_name("gaussian3")
        assert CallScheduler._op_token(
            BatchCall.intra(kernel, frame)) == "kernel_gaussian3"

    def test_parameterized_op_runs_inline(self, scheduler):
        # threshold_op builds a fresh op: no registry identity, so the
        # scheduler must not ship it by name.
        frame = noise_frame(QCIF, seed=6)
        call = BatchCall.intra(threshold_op(100), frame)
        assert CallScheduler._op_token(call) is None
        before = scheduler.total.inline_calls
        lib = AddressLib(SoftwareBackend())
        results = lib.run_batch(
            [call, BatchCall.intra(INTRA_BOX3, frame)],
            scheduler=scheduler)
        assert scheduler.total.inline_calls > before
        assert results[0].equals(
            VectorExecutor.intra(call.op, frame))

    def test_impostor_op_with_registry_name_runs_inline(self):
        # A custom op that *claims* a registry name must execute its own
        # code, never the registry's.
        import dataclasses
        impostor = dataclasses.replace(threshold_op(9), name="intra_box3")
        frame = noise_frame(QCIF, seed=7)
        call = BatchCall.intra(impostor, frame)
        assert CallScheduler._op_token(call) is None


class TestProgramExecution:
    def test_dependency_structure(self):
        def body(lib, frame):
            gx = lib.intra(INTRA_SOBEL_X, frame)
            gy = lib.intra(INTRA_SOBEL_Y, frame)
            mag = lib.inter(INTER_ADD, gx, gy)
            smooth = lib.intra(INTRA_BOX3, mag)
            lib.inter_reduce(INTER_ABSDIFF, smooth, frame)
            return smooth

        program = trace_program("edge_energy", body,
                                noise_frame(QCIF, seed=8))
        assert dependency_edges(program) == [(0, 2), (1, 2), (2, 3),
                                             (3, 4)]
        assert dependency_levels(program) == [[0, 1], [2], [3], [4]]


class TestModeledTiming:
    def test_modeled_pipelined_never_exceeds_serial(self, scheduler):
        rng = random.Random(0xFA57 + 99)
        calls = [_random_batch_call(rng) for _ in range(16)]
        lib = AddressLib(SoftwareBackend())
        lib.run_batch(calls, scheduler=scheduler)
        report = scheduler.last_report
        assert report is not None
        assert (report.modeled_pipelined_seconds
                <= report.modeled_serial_seconds + 1e-12)
        assert report.modeled_speedup >= 1.0

    def test_many_workers_shrink_makespan(self):
        frame = noise_frame(QCIF, seed=9)
        calls = [BatchCall.intra(INTRA_BOX3, frame) for _ in range(16)]
        makespans = []
        for workers in (1, 4):
            sched = CallScheduler(max_workers=workers)
            serial, pipelined = sched._modeled_wave(
                [sched._call_costs(call) for call in calls])
            makespans.append(pipelined)
            assert pipelined <= serial + 1e-12
        assert makespans[1] < makespans[0] / 3.0


class TestInlineFallback:
    def test_broken_pool_still_returns_exact_results(self, monkeypatch):
        def cannot_start(*args, **kwargs):
            raise OSError("no worker processes")

        monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor",
                            cannot_start)
        # Two processes, so the wave tries (and fails) to start a pool.
        monkeypatch.setattr("repro.host.scheduler.os.cpu_count",
                            lambda: 2)
        sched = CallScheduler(max_workers=2)
        frame = noise_frame(QCIF, seed=10)
        lib = AddressLib(SoftwareBackend())
        calls = [BatchCall.intra(INTRA_BOX3, frame),
                 BatchCall.intra(INTRA_GRAD, frame),
                 BatchCall.intra(INTRA_MEDIAN3, frame)]
        results = lib.run_batch(calls, scheduler=sched)
        assert results[0].equals(VectorExecutor.intra(INTRA_BOX3, frame))
        assert results[1].equals(VectorExecutor.intra(INTRA_GRAD, frame))
        assert results[2].equals(
            VectorExecutor.intra(INTRA_MEDIAN3, frame))
        # The worker's run tried the pool and came back inline; the
        # parent ran its own run as always.
        assert sched.total.pool_calls == 0
        assert sched.total.inline_calls > 0
        assert sched.total.bypass_calls > 0
        assert (sched.total.inline_calls + sched.total.bypass_calls
                == len(calls))


class TestTransportPlanning:
    def _calls(self, frame):
        return [BatchCall.intra(INTRA_BOX3, frame),
                BatchCall.intra(INTRA_GRAD, frame),
                BatchCall.intra(INTRA_MEDIAN3, frame)]

    def test_report_carries_phase_breakdown(self, monkeypatch):
        monkeypatch.setattr("repro.host.scheduler.os.cpu_count",
                            lambda: 1)
        frame = noise_frame(QCIF, seed=40)
        with CallScheduler(max_workers=2) as sched:
            lib = AddressLib(SoftwareBackend())
            lib.run_batch(self._calls(frame), scheduler=sched)
            report = sched.last_report
        assert report.ship_seconds >= 0.0
        assert report.compute_seconds > 0.0
        assert report.gather_seconds >= 0.0
        books = report.to_dict()
        for key in ("ship_seconds", "compute_seconds", "gather_seconds",
                    "bypass_calls", "round_trips"):
            assert key in books

    def test_single_cpu_host_bypasses_without_spawning(self, monkeypatch):
        monkeypatch.setattr("repro.host.scheduler.os.cpu_count",
                            lambda: 1)
        frame = noise_frame(QCIF, seed=41)
        with CallScheduler(max_workers=4) as sched:
            lib = AddressLib(SoftwareBackend())
            results = lib.run_batch(self._calls(frame), scheduler=sched)
            # The parent's run is the whole wave: nothing forked, and
            # with nothing to ship no store was made -- the results are
            # fresh planes, as in serial execution.
            assert sched.total.bypass_calls == 3
            assert sched.total.pool_calls == 0
            assert sched.total.round_trips == 0
            assert sched._resources.pool is None
            assert sched._resources.store is None
            assert sched.transport_stats()["store"] == {}
        assert results[0].equals(VectorExecutor.intra(INTRA_BOX3, frame))

    def test_transport_stats_shape(self):
        with CallScheduler(max_workers=2) as sched:
            stats = sched.transport_stats()
        for key in ("round_trips", "pool_calls", "inline_calls",
                    "bypass_calls", "worker_cache_hits",
                    "worker_cache_attaches", "store"):
            assert key in stats

    @pytest.mark.skipif(not SHARED_MEMORY_AVAILABLE,
                        reason="no multiprocessing.shared_memory")
    def test_processes_capped_at_cpus_makespan_keeps_max_workers(
            self, monkeypatch):
        monkeypatch.setattr("repro.host.scheduler.os.cpu_count",
                            lambda: 2)
        rng = random.Random(0xFA57 + 7)
        calls = [_random_batch_call(rng) for _ in range(12)]
        with CallScheduler(max_workers=4) as sched:
            lib = AddressLib(SoftwareBackend())
            for _ in range(2):
                results = lib.run_batch(calls, scheduler=sched)
                report = sched.last_report
                # Two engines: the parent's run, and one worker
                # process's in one grouped round trip.
                assert report.bypass_calls > 0 and report.pool_calls > 0
                assert report.bypass_calls + report.pool_calls == len(calls)
                assert report.round_trips == 1
            pool = sched._resources.pool
            assert pool._max_workers == 1
            assert len(pool._processes) <= 1
        for call, got in zip(calls, results):
            _assert_same(got, _serial_reference(call))
        # The modelled makespan still prices four engines.
        costs = [call_cost_seconds(call, EngineTimingModel())[1]
                 for call in calls]
        assert report.workers == 4
        assert report.modeled_pipelined_seconds == (
            list_scheduled_makespan(costs, 4))
        assert (list_scheduled_makespan(costs, 4)
                < list_scheduled_makespan(costs, 2))


class TestEngineRuns:
    """The cut of a wave into one contiguous run per engine."""

    @staticmethod
    def _scheduler(monkeypatch, cpus, max_workers):
        monkeypatch.setattr("repro.host.scheduler.os.cpu_count",
                            lambda: cpus)
        return CallScheduler(max_workers=max_workers)

    @staticmethod
    def _runs(sched, calls, indices=None):
        """The scheduler's cut of ``calls`` (all of them by default)."""
        overlapped = [call_cost_seconds(call, sched.timing)[1]
                      for call in calls]
        if indices is None:
            indices = range(len(calls))
        return sched._engine_runs(calls, list(indices), overlapped)

    @staticmethod
    def _best_split(costs):
        """The lightest heavier side of any two-way contiguous cut."""
        return min(max(sum(costs[:cut]), sum(costs[cut:]))
                   for cut in range(len(costs) + 1))

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(4, 40), min_size=0, max_size=12),
           cpus=st.integers(1, 6), max_workers=st.integers(1, 6),
           shippable=st.lists(st.booleans(), min_size=12, max_size=12),
           learned=st.lists(st.floats(1e-6, 1.0), max_size=12))
    def test_runs_cover_each_call_exactly_once(self, sizes, cpus,
                                               max_workers, shippable,
                                               learned):
        frames = [noise_frame(ImageFormat(f"S{s}", s, s), seed=s)
                  for s in sizes]
        calls = [BatchCall.intra(INTRA_BOX3, frame) for frame in frames]
        indices = [i for i in range(len(calls)) if shippable[i]]
        with pytest.MonkeyPatch.context() as patch:
            sched = self._scheduler(patch, cpus, max_workers)
        # Some kinds measured, maybe all: the cut prices by seconds only
        # when every kind in the wave has run.
        for call, seconds in zip(calls, learned):
            sched._learn(call, seconds)
        runs = self._runs(sched, calls, indices)
        assert len(runs) == min(cpus, max_workers)
        # Contiguous, in submission order, each call exactly once.
        assert [index for run in runs for index in run] == indices
        # The parent's run (the last) holds the last call: a one-call
        # wave is the parent's alone.
        assert runs[-1][-1:] == indices[-1:]

    def test_runs_balance_the_overlap_model_costs(self, monkeypatch):
        """Before any call has run, the cut balances the costs the
        modelled makespan prices."""
        sched = self._scheduler(monkeypatch, 2, 2)
        small = noise_frame(ImageFormat("S8", 8, 8), seed=1)
        large = noise_frame(QCIF, seed=60)
        calls = ([BatchCall.intra(INTRA_BOX3, large)]
                 + [BatchCall.intra(INTRA_BOX3, small)] * 6
                 + [BatchCall.intra(INTRA_BOX3, large)])
        run, own = self._runs(sched, calls)
        # The two QCIF calls land on different engines, and no other
        # contiguous cut has a lighter heavier side.
        assert run[0] == 0 and own[-1] == len(calls) - 1
        costs = [call_cost_seconds(call, sched.timing)[1] for call in calls]
        split = len(run)
        assert (max(sum(costs[:split]), sum(costs[split:]))
                == self._best_split(costs))

    def test_runs_balance_the_measured_seconds(self, monkeypatch):
        """Once every kind in the wave has run, the cut balances the
        seconds the runs took, not the board model: here reduces the
        model prices above an intra call but that ran a quarter as
        long."""
        sched = self._scheduler(monkeypatch, 2, 2)
        frames = [noise_frame(QCIF, seed=s) for s in range(70, 76)]
        calls = [BatchCall.intra(op, frame) for frame in frames
                 for op in (INTRA_BOX3, INTRA_SOBEL_X)]
        calls += [BatchCall.inter_reduce(INTER_ABSDIFF, a, b)
                  for a, b in zip(frames, frames[1:])]
        model = [call_cost_seconds(call, sched.timing)[1] for call in calls]
        assert model[-1] > model[0]
        model_split = len(self._runs(sched, calls)[0])
        sched._learn(calls[0], 0.004)
        sched._learn(calls[1], 0.004)
        sched._learn(calls[-1], 0.001)
        run, own = self._runs(sched, calls)
        seconds = [0.001 if call.reduce_to_scalar else 0.004
                   for call in calls]
        split = len(run)
        assert run + own == list(range(len(calls)))
        assert (max(sum(seconds[:split]), sum(seconds[split:]))
                == self._best_split(seconds))
        # The reduces at the tail are cheap now, so the parent's run
        # reaches further into the intra calls than the model's cut.
        assert split < model_split
        assert all(not calls[index].reduce_to_scalar for index in run)

    def test_an_unmeasured_kind_keeps_the_measured_seconds(
            self, monkeypatch):
        """A kind no engine has run is priced at its model cost scaled
        by the measured-to-model ratio of the kinds that have run; the
        measured kinds keep their seconds.  Here the two intra kinds
        ran at 8 and 1 ms and the reduces never ran."""
        sched = self._scheduler(monkeypatch, 2, 2)
        frames = [noise_frame(QCIF, seed=s) for s in range(70, 76)]
        calls = [BatchCall.intra(op, frame) for frame in frames
                 for op in (INTRA_BOX3, INTRA_SOBEL_X)]
        calls += [BatchCall.inter_reduce(INTER_ABSDIFF, a, b)
                  for a, b in zip(frames, frames[1:])]
        model = [call_cost_seconds(call, sched.timing)[1] for call in calls]
        model_split = len(self._runs(sched, calls)[0])
        sched._learn(calls[0], 0.008)
        sched._learn(calls[1], 0.001)
        scale = 0.009 / (model[0] + model[1])
        costs = [model[index] * scale if call.reduce_to_scalar
                 else (0.008 if call.op is INTRA_BOX3 else 0.001)
                 for index, call in enumerate(calls)]
        run, own = self._runs(sched, calls)
        split = len(run)
        assert run + own == list(range(len(calls)))
        assert (max(sum(costs[:split]), sum(costs[split:]))
                == self._best_split(costs))
        # The model alone (what a wave with a new kind used to be cut
        # by) puts one more call on the worker.
        assert split == model_split - 1

    @pytest.mark.skipif(not SHARED_MEMORY_AVAILABLE,
                        reason="no multiprocessing.shared_memory")
    def test_waves_teach_every_kind_they_ran(self, monkeypatch):
        """Both engines report the seconds of what they ran, so after
        one wave every kind in it is measured."""
        sched = self._scheduler(monkeypatch, 2, 2)
        frames = [noise_frame(QCIF, seed=s) for s in (80, 81, 82)]
        # The worker's run (the head) and the parent's share no kind.
        calls = [BatchCall.intra(INTRA_BOX3, frames[0]),
                 BatchCall.intra(INTRA_BOX3, frames[1]),
                 BatchCall.intra(INTRA_GRAD, frames[2]),
                 BatchCall.inter_reduce(INTER_ABSDIFF, *frames[:2])]
        with sched:
            sched.compute_batch(calls)
            report = sched.last_report
            assert report.bypass_calls == report.pool_calls == 2
        assert set(sched._seconds) == {sched._kind(call) for call in calls}
        assert all(seconds > 0.0 for seconds in sched._seconds.values())

    def test_one_cpu_host_forks_nothing(self, monkeypatch):
        sched = self._scheduler(monkeypatch, 1, 8)
        frames = [noise_frame(QCIF, seed=s) for s in (50, 51, 52, 53)]
        calls = [BatchCall.intra(INTRA_GRAD, frame) for frame in frames]
        calls.append(BatchCall.inter_reduce(INTER_ABSDIFF, *frames[:2]))
        assert self._runs(sched, calls) == [list(range(len(calls)))]
        with sched:
            outcomes = sched.compute_batch(calls)
            assert sched._resources.pool is None
            assert sched._resources.store is None
            assert sched.last_report.bypass_calls == len(calls)
        # Nothing to balance on one engine, so nothing is measured.
        assert sched._seconds == {}
        for call, outcome in zip(calls, outcomes):
            _assert_same(outcome.value, _serial_reference(call))
