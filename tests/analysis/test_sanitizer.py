"""The runtime transport sanitizer: seeded bugs caught, clean runs clean.

Four contracts:

* every ``SANITIZE_SELFTESTS`` scenario (one real seeded bug per
  SHM/RES/POOL rule, against the *live* shared-memory primitives) is
  caught -- or skipped where the platform has no shared memory;
* a sanitizer-armed scheduler run over the 0xFA57 corpus recipe stays
  bit-exact against the serial executor and emits zero error-severity
  findings (observation never perturbs results);
* ``install_sanitizer`` is the one switch: a scheduler built under it
  arms its workers with its domains, and nothing else (no environment
  variable) arms anything;
* the sanitizer's own books stay bounded: a dead result frame leaves
  the pool domain's producer map.
"""

import gc
import random

import pytest

from repro.addresslib import (AddressLib, BatchCall, INTER_OPS,
                              INTRA_OPS, SoftwareBackend, VectorExecutor)
from repro.analysis.sanitize import (SANITIZE_SELFTESTS,
                                     active_sanitizer, install_sanitizer,
                                     normalize_domains, uninstall_sanitizer)
from repro.api import EnginePool
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
        covered = {rule_id for _, rule_id in SANITIZE_SELFTESTS.values()}
        assert covered == {"SHM001", "SHM002", "SHM003", "RES001",
                           "RES002", "POOL001", "POOL002"}


class TestDriverResidencyShim:
    def test_release_then_reship_flags_res002(self):
        from repro.addresslib import INTER_ABSDIFF, INTRA_GRAD
        from repro.host.backend import EngineBackend

        fmt = ImageFormat("T32", 32, 32)
        frame = noise_frame(fmt, seed=1)
        backend = EngineBackend(chain_frames=True)
        lib = AddressLib(backend)
        sanitizer = install_sanitizer(("residency",))
        edges = lib.intra(INTRA_GRAD, frame)
        backend.residency.release(frame)
        lib.inter(INTER_ABSDIFF, frame, edges)
        assert any(d.rule_id == "RES002"
                   for d in sanitizer.drain())

    def test_healthy_chain_stays_clean(self):
        from repro.addresslib import INTER_ABSDIFF, INTRA_GRAD
        from repro.host.backend import EngineBackend

        fmt = ImageFormat("T32", 32, 32)
        frame = noise_frame(fmt, seed=1)
        lib = AddressLib(EngineBackend(chain_frames=True))
        sanitizer = install_sanitizer(("residency",))
        edges = lib.intra(INTRA_GRAD, frame)
        lib.inter(INTER_ABSDIFF, frame, edges)
        assert sanitizer.drain() == []


class TestSanitizedCorpusClean:
    def test_bit_exact_with_zero_error_findings(self):
        rng = random.Random(0xFA57)
        calls = [_random_batch_call(rng) for _ in range(26)]
        install_sanitizer(("all",))
        with CallScheduler(max_workers=2) as scheduler:
            assert scheduler.sanitize_domains == ("pool", "residency",
                                                  "transport")
            lib = AddressLib(SoftwareBackend())
            results = lib.run_batch(calls, scheduler=scheduler)
            for call, got in zip(calls, results):
                _assert_same(got, _serial_reference(call))
            errors = [d for d in scheduler.sanitizer_findings
                      if d.severity.name == "ERROR"]
            assert errors == []

    def test_unsanitized_scheduler_stays_dormant(self):
        with CallScheduler(max_workers=1) as scheduler:
            assert scheduler.sanitize_domains == ()
        assert active_sanitizer() is None


class TestArmingSurfaces:
    def test_env_var_arms_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "transport, residency")
        with CallScheduler(max_workers=1) as scheduler:
            assert scheduler.sanitize_domains == ()
        assert active_sanitizer() is None
        assert shm.get_transport_observer() is None

    def test_normalize_domains(self):
        assert normalize_domains(["residency", "transport",
                                  "residency"]) \
            == ("residency", "transport")
        assert normalize_domains(["all"]) == ("pool", "residency",
                                              "transport")
        with pytest.raises(ValueError):
            normalize_domains(["shm"])


class TestPoolBooksBounded:
    def test_dead_result_frames_leave_the_producer_map(self):
        pool = EnginePool.of_engines(2)
        sanitizer = install_sanitizer(("pool",))
        fmt = ImageFormat("T8", 8, 8)
        op = _INTRA[0]
        for seed in range(200):
            pool.dispatch([BatchCall.intra(op, noise_frame(fmt,
                                                           seed=seed))])
        gc.collect()
        # Each board's residency cache keeps its last result alive.
        assert len(sanitizer._producers) <= pool.size
        assert sanitizer.drain() == []
