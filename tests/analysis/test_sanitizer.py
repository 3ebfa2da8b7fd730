"""The runtime transport sanitizer: seeded bugs caught, clean runs clean.

Five contracts:

* every ``SANITIZE_SELFTESTS`` scenario (one real seeded bug per
  SHM/RES/POOL rule, against the *live* shared-memory primitives) is
  caught -- or skipped where the platform has no shared memory -- and
  every transport/residency/pool rule of the catalogue has one;
* a sanitizer-armed scheduler run over the 0xFA57 corpus recipe stays
  bit-exact against the serial executor and emits zero error-severity
  findings (observation never perturbs results), and healthy pools of
  one to four boards read zero findings of any severity;
* ``install_sanitizer()`` is the one switch, with nothing to choose: a
  scheduler built under it arms its workers, and nothing else (no
  environment variable) arms anything;
* the sanitizer's own books stay flat over long runs: they hold only
  what a check can still use;
* the retired static wave-plan verifier and the sanitizer's domain
  argument stay gone.
"""

import gc
import random

import pytest

from repro.addresslib import (AddressLib, BatchCall, INTER_OPS,
                              INTRA_BOX3, INTRA_GRAD, INTRA_OPS,
                              SoftwareBackend, VectorExecutor)
from repro.analysis import RULES
from repro.analysis.cli import main as repro_check_main
from repro.analysis.sanitize import (SANITIZE_SELFTESTS,
                                     active_sanitizer, install_sanitizer,
                                     uninstall_sanitizer)
from repro.api import EnginePool, EngineService, ServicePolicy
from repro.host import CallScheduler, shm
from repro.image import ImageFormat, noise_frame

_INTRA = sorted(INTRA_OPS.values(), key=lambda op: op.name)
_INTER = sorted(INTER_OPS.values(), key=lambda op: op.name)


@pytest.fixture(autouse=True)
def _clean_global_sanitizer():
    """No test leaks an armed sanitizer into the rest of the suite."""
    uninstall_sanitizer()
    shm.set_transport_observer(None)
    yield
    uninstall_sanitizer()
    shm.set_transport_observer(None)


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


class TestSeededBugsCaught:
    @pytest.mark.parametrize("description", sorted(SANITIZE_SELFTESTS))
    def test_selftest_caught(self, description):
        scenario, rule_id = SANITIZE_SELFTESTS[description]
        findings = scenario()
        if findings is None:
            pytest.skip("shared memory unavailable on this platform")
        assert any(d.rule_id == rule_id for d in findings), \
            f"{rule_id} ({description}) no longer observed at runtime"

    def test_one_scenario_per_new_rule(self):
        """Every runtime rule of the catalogue has a seeded scenario, so
        a new one without a scenario fails here."""
        covered = {rule_id for _, rule_id in SANITIZE_SELFTESTS.values()}
        runtime = {rule.rule_id for rule in RULES.values()
                   if rule.layer in ("transport", "residency", "pool")}
        assert covered == runtime


class TestDriverResidencyShim:
    def test_release_then_reship_flags_res002(self):
        from repro.addresslib import INTER_ABSDIFF, INTRA_GRAD
        from repro.host.backend import EngineBackend

        fmt = ImageFormat("T32", 32, 32)
        frame = noise_frame(fmt, seed=1)
        backend = EngineBackend(chain_frames=True)
        lib = AddressLib(backend)
        sanitizer = install_sanitizer()
        edges = lib.intra(INTRA_GRAD, frame)
        backend.residency.release(frame)
        lib.inter(INTER_ABSDIFF, frame, edges)
        assert any(d.rule_id == "RES002"
                   for d in sanitizer.drain())

    def test_recycled_frame_ids_are_not_reships(self):
        """Fresh frames, each run once, released and dropped: CPython
        hands a dead frame's id() to the next frame, which must not
        read as the dead one re-attached after its eviction."""
        from repro.host.backend import EngineBackend

        fmt = ImageFormat("T32", 32, 32)
        backend = EngineBackend(chain_frames=True)
        lib = AddressLib(backend)
        sanitizer = install_sanitizer()
        ids = set()
        for seed in range(50):
            frame = noise_frame(fmt, seed=seed)
            ids.add(id(frame))
            lib.intra(INTRA_GRAD, frame)
            backend.residency.release(frame)
            del frame
        assert len(ids) < 50  # ids were recycled
        assert sanitizer.drain() == []

    def test_healthy_chain_stays_clean(self):
        from repro.addresslib import INTER_ABSDIFF, INTRA_GRAD
        from repro.host.backend import EngineBackend

        fmt = ImageFormat("T32", 32, 32)
        frame = noise_frame(fmt, seed=1)
        lib = AddressLib(EngineBackend(chain_frames=True))
        sanitizer = install_sanitizer()
        edges = lib.intra(INTRA_GRAD, frame)
        lib.inter(INTER_ABSDIFF, frame, edges)
        assert sanitizer.drain() == []


class TestSanitizedCorpusClean:
    def test_bit_exact_with_zero_error_findings(self):
        rng = random.Random(0xFA57)
        calls = [_random_batch_call(rng) for _ in range(26)]
        install_sanitizer()
        with CallScheduler(max_workers=2) as scheduler:
            assert scheduler.sanitized
            lib = AddressLib(SoftwareBackend())
            results = lib.run_batch(calls, scheduler=scheduler)
            for call, got in zip(calls, results):
                _assert_same(got, _serial_reference(call))
            errors = [d for d in scheduler.sanitizer_findings
                      if d.severity.name == "ERROR"]
            assert errors == []

    def test_unsanitized_scheduler_stays_dormant(self):
        with CallScheduler(max_workers=1) as scheduler:
            assert not scheduler.sanitized
        assert active_sanitizer() is None


class TestArmingSurfaces:
    def test_env_var_arms_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "transport, residency")
        with CallScheduler(max_workers=1) as scheduler:
            assert not scheduler.sanitized
        assert active_sanitizer() is None
        assert shm.get_transport_observer() is None


class TestPoolBooksBounded:
    def test_dead_result_frames_leave_the_producer_map(self):
        pool = EnginePool.of_engines(2)
        sanitizer = install_sanitizer()
        fmt = ImageFormat("T8", 8, 8)
        op = _INTRA[0]
        for seed in range(200):
            pool.dispatch([BatchCall.intra(op, noise_frame(fmt,
                                                           seed=seed))])
        gc.collect()
        # Each board's residency cache keeps its last result alive.
        assert len(sanitizer._producers) <= pool.size
        assert sanitizer.drain() == []


def _book_sizes(sanitizer):
    """How many entries each of the sanitizer's books holds."""
    gc.collect()
    return {"shipped": len(sanitizer._shipped),
            "released": len(sanitizer._released),
            "evicted": len(sanitizer._evicted),
            "producers": len(sanitizer._producers)}


class TestBooksStayFlat:
    """A long run leaves the books where a short one left them."""

    def test_long_scheduler_run(self):
        sanitizer = install_sanitizer()
        fmt = ImageFormat("P16x16", 16, 16)
        lib = AddressLib(SoftwareBackend())
        with CallScheduler(max_workers=2) as scheduler:
            def run(batches):
                for batch in batches:
                    calls = [BatchCall.intra(
                        _INTRA[0], noise_frame(fmt, seed=batch * 8 + i))
                        for i in range(8)]
                    lib.run_batch(calls, scheduler=scheduler)

            run(range(10))
            early = _book_sizes(sanitizer)
            run(range(10, 50))
            assert _book_sizes(sanitizer) == early
            assert scheduler.sanitizer_findings == []

    def test_long_pool_run(self):
        pool = EnginePool.of_engines(2)
        sanitizer = install_sanitizer()
        fmt = ImageFormat("T8", 8, 8)

        def run(seeds):
            for seed in seeds:
                pool.dispatch([BatchCall.intra(
                    _INTRA[0], noise_frame(fmt, seed=seed))])

        run(range(200))
        early = _book_sizes(sanitizer)
        run(range(200, 2_200))
        assert _book_sizes(sanitizer) == early
        assert sanitizer.drain() == []

    def test_worker_cache_remembers_one_capacity_of_evictions(self):
        if not shm.SHARED_MEMORY_AVAILABLE:
            pytest.skip("shared memory unavailable on this platform")
        sanitizer = install_sanitizer()
        shm.reset_worker_cache()
        previous = shm.set_worker_cache_capacity(8)
        store = shm.PlaneStore()
        fmt = ImageFormat("T8", 8, 8)
        try:
            recent = []
            for seed in range(400):
                frame = noise_frame(fmt, seed=seed)
                shm.worker_attach(store.register(frame))
                recent = (recent + [frame])[-9:]
            assert len(sanitizer._evicted) == 8
            assert sanitizer.drain() == []
            # The latest eviction is still checked.
            shm.worker_attach(store.register(recent[0]))
            assert [d.rule_id for d in sanitizer.drain()] == ["RES002"]
        finally:
            shm.set_worker_cache_capacity(previous)
            shm.reset_worker_cache()
            store.close()


class TestHealthyPoolsClean:
    """Healthy pools of one to four boards read no finding at all."""

    @pytest.mark.parametrize("boards", [1, 2, 3, 4])
    def test_corpus_shard_and_chains(self, boards):
        rng = random.Random(0xFA57)
        calls = [call for call in (_random_batch_call(rng)
                                   for _ in range(26))
                 for _ in range(3)]
        sanitizer = install_sanitizer()
        service = EngineService(
            pool=EnginePool.of_engines(boards),
            policy=ServicePolicy(queue_depth=len(calls)))
        tickets = [service.submit(call) for call in calls]
        service.drain()
        for call, ticket in zip(calls, tickets):
            assert ticket.done and ticket.accepted
            _assert_same(ticket.result(), _serial_reference(call))
        # grad -> box chains: the consumer reads a board's own result.
        fmt = ImageFormat("P24x16", 24, 16)
        for seed in range(5):
            frame = noise_frame(fmt, seed=seed)
            grad = service.submit(BatchCall.intra(INTRA_GRAD, frame))
            service.drain()
            box = service.submit(BatchCall.intra(INTRA_BOX3,
                                                 grad.result()))
            service.drain()
            want = _serial_reference(BatchCall.intra(
                INTRA_BOX3,
                _serial_reference(BatchCall.intra(INTRA_GRAD, frame))))
            _assert_same(box.result(), want)
        assert sanitizer.drain() == []


class TestRetiredSpellings:
    """The static wave-plan verifier and the sanitizer's domains are
    gone: the sanitizer checks every SHM/RES/POOL rule."""

    def test_install_sanitizer_takes_no_domains(self):
        with pytest.raises(TypeError):
            install_sanitizer(("transport",))
        assert active_sanitizer() is None

    def test_repro_check_has_no_wave_pass(self):
        with pytest.raises(SystemExit) as exited:
            repro_check_main(["--waves"])
        assert exited.value.code == 2

    def test_wave_plan_api_is_gone(self):
        with pytest.raises(ImportError):
            from repro.analysis import analyze_waves  # noqa: F401
