"""Wave-level execution: one batched pass per run, booked call by call.

``AddressLib.run_batch`` hands each consecutive run of same-configuration
calls to its backend in one piece -- the path every pool wave takes.
The engine backend computes the run with one ``VectorExecutor.wave``
pass and then books each call in order, so results, ``CallRecord``s,
driver counters and residency counters must all equal issuing the same
calls one at a time -- through the library, and straight through the
driver's functional branch.  Each scenario runs two waves: the first
repeats input frames (waves of two or more), the second starts with the
first wave's last result, so result reuse and resident hits are booked
too.
"""

import gc
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

from repro.addresslib import (INTER_ABSDIFF, INTER_OPS, INTRA_BOX3,
                              INTRA_GRAD, INTRA_OPS, AddressingMode,
                              AddressLib, BatchCall, ChannelSet, InterOp,
                              IntraOp, SoftwareBackend)
from repro.addresslib.addressing import CON_0
from repro.addresslib.compositions import opening
from repro.addresslib.profiling import InstructionCost
from repro.analysis import ProgramCheckError
from repro.core import inter_config, intra_config
from repro.host import (AddressEngineDriver, CallScheduler, EngineBackend,
                        SHARED_MEMORY_AVAILABLE)
from repro.host.driver import FrameResidencyCache
from repro.image import Frame, ImageFormat, noise_frame
from repro.image.pixel import ALL_CHANNELS

FORMATS = (ImageFormat("W1x17", 1, 17), ImageFormat("W17x1", 17, 1),
           ImageFormat("W4x33", 4, 33), ImageFormat("W32x24", 32, 24))
#: Geometries small enough to check against the scalar faces.
SMALL_FORMATS = FORMATS[:3]
WAVE_SIZES = (1, 2, 3, 8)

#: Every intra op, every inter op, and every inter op reduced.
CONFIGS = ([(op, False) for op in INTRA_OPS.values()]
           + [(op, False) for op in INTER_OPS.values()]
           + [(op, True) for op in INTER_OPS.values()])

#: Ops outside the registries whose faces hand back their input: an
#: intra identity writing the CON_0 input (the caller's plane) into its
#: sink, and an inter face returning a view of its input.  Results must
#: still own their memory.
ALIASING = [
    (IntraOp(name="intra_view", neighbourhood=CON_0,
             scalar=lambda values: int(values[0]),
             vector=lambda plane, out, scratch: np.copyto(out, plane),
             cost=InstructionCost(alu=1)), False),
    (InterOp(name="inter_first", scalar=lambda a, b: int(a),
             vector=lambda a, b: a, cost=InstructionCost(alu=1)), False),
]


def _config_id(config):
    op, reduce_to_scalar = config
    return op.name + ("+reduce" if reduce_to_scalar else "")


def _fmt_id(fmt):
    return fmt.name


def _lib(**driver_options):
    return AddressLib(EngineBackend(AddressEngineDriver(**driver_options),
                                    chain_frames=True))


def _call(op, reduce_to_scalar, frames, channels=ChannelSet.Y):
    if isinstance(op, IntraOp):
        return BatchCall.intra(op, frames[0], channels)
    if reduce_to_scalar:
        return BatchCall.inter_reduce(op, *frames, channels)
    return BatchCall.inter(op, *frames, channels)


def _calls(op, reduce_to_scalar, pool, size, channels=ChannelSet.Y):
    """``size`` calls whose inputs go round-robin through ``pool``."""
    arity = 1 if isinstance(op, IntraOp) else 2
    return [_call(op, reduce_to_scalar,
                  tuple(pool[(i + k) % len(pool)] for k in range(arity)),
                  channels)
            for i in range(size)]


def _one_by_one(lib, calls):
    """The calls issued through the single-call API, in order."""
    results = []
    for call in calls:
        if call.mode is AddressingMode.INTRA:
            results.append(lib.intra(call.op, call.frames[0],
                                     call.channels))
        elif call.reduce_to_scalar:
            results.append(lib.inter_reduce(call.op, *call.frames,
                                            call.channels))
        else:
            results.append(lib.inter(call.op, *call.frames,
                                     call.channels))
    return results


def _scenario(run, op, reduce_to_scalar, fmt, size,
              channels=ChannelSet.Y):
    """Two waves of ``size`` calls, each issued through ``run``;
    returns (calls, results)."""
    pool = [noise_frame(fmt, seed=100 + i) for i in range(max(1, size - 1))]
    first = _calls(op, reduce_to_scalar, pool, size, channels)
    first_results = run(first)
    carry = first_results[-1]
    head = [carry] if isinstance(carry, Frame) else []
    second = _calls(op, reduce_to_scalar, head + pool, size, channels)
    return first + second, first_results + run(second)


class _DriverReference:
    """Serial submission straight through the driver's functional
    branch, planning and recording residency around each call: the
    books ``EngineBackend`` must reproduce, computed without it."""

    def __init__(self):
        self.driver = AddressEngineDriver()
        self.residency = FrameResidencyCache()
        self.extras = []

    def __call__(self, calls):
        results = []
        for call in calls:
            if call.mode is AddressingMode.INTRA:
                config = intra_config(call.op, call.fmt, call.channels)
            else:
                config = inter_config(
                    call.op, call.fmt, call.channels,
                    reduce_to_scalar=call.reduce_to_scalar)
            resident, copy_cycles = self.residency.plan(config,
                                                        list(call.frames))
            result = self.driver.submit(config, *call.frames,
                                        resident=resident,
                                        onboard_copy_cycles=copy_cycles)
            self.residency.record_call(config, list(call.frames),
                                       result.frame)
            self.extras.append({
                "call_seconds": result.call_seconds,
                "board_seconds": result.board_seconds,
                "pci_words": float(result.pci_words),
                "resident_inputs": float(sum(resident))})
            results.append(result.frame if result.frame is not None
                           else result.scalar)
        return results


def _books(driver, cache):
    return {"calls_submitted": driver.calls_submitted,
            "calls_rejected": driver.calls_rejected,
            "interrupts_serviced": driver.interrupts_serviced,
            "hits": cache.hits, "misses": cache.misses,
            "result_reuses": cache.result_reuses,
            "evictions": cache.evictions}


def _lib_books(lib):
    return _books(lib.backend.driver, lib.backend.residency)


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        if isinstance(theirs, int):
            assert type(mine) is int and mine == theirs
            continue
        assert mine.equals(theirs)
        for channel in ALL_CHANNELS:
            assert mine.plane(channel).dtype == theirs.plane(channel).dtype


def _scalar_reference(call, channel):
    """The call's ``channel`` output from the op's scalar face, pixel by
    pixel with clamped borders."""
    op = call.op
    source = call.frames[0].plane(channel)
    height, width = source.shape
    out = np.empty((height, width), np.int64)
    for y in range(height):
        for x in range(width):
            if isinstance(op, IntraOp):
                values = [int(source[min(max(y + dy, 0), height - 1),
                                     min(max(x + dx, 0), width - 1)])
                          for dx, dy in op.neighbourhood.offsets]
                out[y, x] = op.apply_scalar(values)
            else:
                other = call.frames[1].plane(channel)
                out[y, x] = op.apply_scalar(int(source[y, x]),
                                            int(other[y, x]))
    return out


class TestWaveParity:
    @pytest.mark.parametrize("fmt", FORMATS, ids=_fmt_id)
    @pytest.mark.parametrize("size", WAVE_SIZES)
    @pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
    def test_wave_equals_one_call_runs(self, config, size, fmt):
        """Results, records and every counter match one-call runs, and
        the driver-level serial reference."""
        op, reduce_to_scalar = config
        wave_lib, serial_lib = _lib(), _lib()
        reference = _DriverReference()
        _, got = _scenario(wave_lib.run_batch, op, reduce_to_scalar, fmt,
                           size)
        _, want = _scenario(partial(_one_by_one, serial_lib), op,
                            reduce_to_scalar, fmt, size)
        _, submitted = _scenario(reference, op, reduce_to_scalar, fmt,
                                 size)
        _assert_same_results(got, want)
        _assert_same_results(got, submitted)
        assert wave_lib.log.records == serial_lib.log.records
        assert [r.extra for r in wave_lib.log.records] == reference.extras
        assert _lib_books(wave_lib) == _lib_books(serial_lib)
        assert _lib_books(wave_lib) == _books(reference.driver,
                                              reference.residency)

    @pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
    def test_yuv_wave_equals_one_call_runs(self, config):
        op, reduce_to_scalar = config
        wave_lib, serial_lib = _lib(), _lib()
        _, got = _scenario(wave_lib.run_batch, op, reduce_to_scalar,
                           FORMATS[3], 3, channels=ChannelSet.YUV)
        _, want = _scenario(partial(_one_by_one, serial_lib), op,
                            reduce_to_scalar, FORMATS[3], 3,
                            channels=ChannelSet.YUV)
        _assert_same_results(got, want)
        assert wave_lib.log.records == serial_lib.log.records
        assert _lib_books(wave_lib) == _lib_books(serial_lib)

    @pytest.mark.parametrize("fmt", SMALL_FORMATS, ids=_fmt_id)
    @pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
    def test_small_waves_match_scalar_faces(self, config, fmt):
        op, reduce_to_scalar = config
        calls, results = _scenario(_lib().run_batch, op, reduce_to_scalar,
                                   fmt, 3)
        for call, result in zip(calls, results):
            expected = _scalar_reference(call, ALL_CHANNELS[0])
            if reduce_to_scalar:
                assert result == int(expected.sum())
                continue
            assert np.array_equal(result.y, expected)
            for channel in ALL_CHANNELS[1:]:
                assert np.array_equal(result.plane(channel),
                                      call.frames[0].plane(channel))

    def test_simulated_wave_runs_call_by_call(self):
        """A simulating driver runs each call on the cycle model: the
        books, cycle counts included, equal one-call runs."""
        fmt = ImageFormat("T16", 16, 16)
        for op in (INTRA_GRAD, INTER_OPS["inter_absdiff"]):
            wave_lib = _lib(simulate=True)
            serial_lib = _lib(simulate=True)
            _, got = _scenario(wave_lib.run_batch, op, False, fmt, 3)
            _, want = _scenario(partial(_one_by_one, serial_lib), op,
                                False, fmt, 3)
            _assert_same_results(got, want)
            assert wave_lib.log.records == serial_lib.log.records
            assert all("cycles" in r.extra for r in wave_lib.log.records)
            assert _lib_books(wave_lib) == _lib_books(serial_lib)


@pytest.fixture(scope="module")
def split_scheduler():
    """Two engines whatever this host has: the parent and one worker
    process split every multi-call wave between them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.host.scheduler.os.cpu_count", lambda: 2)
        scheduler = CallScheduler(max_workers=2)
    with scheduler:
        yield scheduler


class TestOwnership:
    @pytest.mark.parametrize("size", (1, 3))
    @pytest.mark.parametrize("config", CONFIGS + ALIASING,
                             ids=_config_id)
    def test_results_share_no_memory(self, config, size):
        """Inputs stay unchanged, and no result plane shares memory with
        an input plane or with another result's planes."""
        self._check_owned(config, size)

    @pytest.mark.parametrize("config", CONFIGS + ALIASING,
                             ids=_config_id)
    def test_split_waves_share_no_memory(self, config, split_scheduler):
        """The same for a wave the scheduler splits between the
        parent's own run and a worker's, whose results come back in
        shared-memory slabs."""
        calls = self._check_owned(config, 4, split_scheduler)
        if SHARED_MEMORY_AVAILABLE and CallScheduler._op_token(calls[0]):
            report = split_scheduler.last_report
            assert report.bypass_calls > 0 and report.pool_calls > 0

    @staticmethod
    def _check_owned(config, size, scheduler=None):
        op, reduce_to_scalar = config
        pool = [noise_frame(FORMATS[3], seed=7 + i) for i in range(2)]
        before = [frame.copy() for frame in pool]
        calls = _calls(op, reduce_to_scalar, pool, size)
        results = _lib().run_batch(calls, scheduler=scheduler)
        for frame, copy in zip(pool, before):
            assert frame.equals(copy)
        inputs = [frame.plane(c) for frame in pool for c in ALL_CHANNELS]
        frames = [r for r in results if isinstance(r, Frame)]
        for index, result in enumerate(frames):
            others = [other.plane(c) for other in frames[index + 1:]
                      for c in ALL_CHANNELS]
            for channel in ALL_CHANNELS:
                plane = result.plane(channel)
                assert plane.flags.writeable
                for other in inputs + others:
                    assert not np.shares_memory(plane, other)
        return calls


class TestPreflight:
    def test_preflight_rejects_per_call(self):
        """A run whose configuration fails pre-flight raises at its
        first call, after the earlier run was booked -- the same books
        as issuing the calls one by one."""
        small = FORMATS[3]
        big = ImageFormat("4CIF", 704, 576)
        libs = []
        for batched in (True, False):
            lib = _lib(preflight=True)
            calls = [BatchCall.intra(INTRA_BOX3, noise_frame(small, seed=s))
                     for s in (1, 2)]
            calls += [BatchCall.intra(INTRA_BOX3, noise_frame(big, seed=3))
                      ] * 2
            with pytest.raises(ProgramCheckError):
                if batched:
                    lib.run_batch(calls)
                else:
                    _one_by_one(lib, calls)
            libs.append(lib)
        wave_lib, serial_lib = libs
        assert _lib_books(wave_lib)["calls_submitted"] == 2
        assert _lib_books(wave_lib)["calls_rejected"] == 1
        assert _lib_books(wave_lib) == _lib_books(serial_lib)
        assert wave_lib.log.records == serial_lib.log.records


class TestCallLogHeap:
    """Records are shared by reference, so a long run's call log costs
    one list slot per call: over 20 ``run_batch`` rounds the traced
    heap grows by no more than the log's own list."""

    ROUNDS = 20

    @pytest.mark.parametrize("backend", [
        SoftwareBackend,
        partial(EngineBackend, chain_frames=True),
    ], ids=["software", "engine"])
    def test_traced_heap_grows_by_one_list_slot_per_call(self, backend):
        fmt = ImageFormat("H8", 8, 8)
        frames = [noise_frame(fmt, seed=seed) for seed in range(3)]
        calls = [BatchCall.intra(INTRA_GRAD, frames[0]),
                 BatchCall.intra(INTRA_GRAD, frames[1]),
                 BatchCall.intra(INTRA_BOX3, frames[2]),
                 BatchCall.inter(INTER_ABSDIFF, frames[0], frames[1]),
                 BatchCall.inter_reduce(INTER_ABSDIFF, frames[1],
                                        frames[2])]
        lib = AddressLib(backend())
        records = lib.log.records
        # Traced from the start, so the list's reallocations free the
        # old buffers on the traced heap too.
        tracemalloc.start()
        try:
            for _ in range(2):  # every geometry and residency booked
                lib.run_batch(calls)
            gc.collect()
            list_before = sys.getsizeof(records)
            heap_before = tracemalloc.get_traced_memory()[0]
            for _ in range(self.ROUNDS):
                lib.run_batch(calls)
            gc.collect()
            heap_after = tracemalloc.get_traced_memory()[0]
            list_after = sys.getsizeof(records)
        finally:
            tracemalloc.stop()
        slots = self.ROUNDS * len(calls)
        assert len(records) == (self.ROUNDS + 2) * len(calls)
        # The list itself may over-allocate; nothing else may grow.
        assert list_after - list_before <= 2 * 8 * slots
        assert heap_after - heap_before <= list_after - list_before + 512

    @pytest.mark.parametrize("backend", [
        SoftwareBackend,
        partial(EngineBackend, chain_frames=True),
    ], ids=["software", "engine"])
    def test_fresh_op_objects_share_their_geometrys_books(self, backend):
        """``opening`` builds a new erode and a new dilate op on every
        call; the books are kept per geometry, so they do not keep
        those ops or grow with them."""
        frame = noise_frame(ImageFormat("H8", 8, 8), seed=0)
        lib = AddressLib(backend())
        records = lib.log.records
        tracemalloc.start()
        try:
            for _ in range(2):
                opening(lib, frame)
            gc.collect()
            list_before = sys.getsizeof(records)
            heap_before = tracemalloc.get_traced_memory()[0]
            for _ in range(self.ROUNDS):
                opening(lib, frame)
            gc.collect()
            heap_after = tracemalloc.get_traced_memory()[0]
            list_after = sys.getsizeof(records)
        finally:
            tracemalloc.stop()
        assert len(records) == (self.ROUNDS + 2) * 2
        assert heap_after - heap_before <= list_after - list_before + 512

