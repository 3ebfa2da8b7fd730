"""The unified submission surface: SubmitOptions at every layer.

One frozen options record carries every piece of serving metadata
(priority, deadline, retries, tenant, placement, arrival) across all
three submission layers -- ``EngineService.submit``,
``AddressLib.run_batch`` and ``AddressEngineDriver.submit``.  Each entry
point has one shape: the old per-layer spellings and the loose-kwarg
service constructors raise :class:`TypeError`.
"""

import dataclasses
import warnings

import pytest

from repro.addresslib import AddressLib, BatchCall, INTRA_GRAD
from repro.api import (AdmissionPolicy, AsyncEngineClient, EnginePool,
                       EngineService, Priority, SubmitOptions)
from repro.core import intra_config
from repro.host import AddressEngineDriver, CallScheduler, EngineBackend
from repro.image import ImageFormat, noise_frame
from repro.load import ArrivalTrace, TraceSpec, replay_async, replay_serial
from repro.perf import EngineTimingModel
from repro.service import AdmissionController, MicroBatcher, RequestQueue

QCIF = ImageFormat("QCIF", 176, 144)
SMALL = ImageFormat("P16x16", 16, 16)


def _call(seed=0):
    return BatchCall.intra(INTRA_GRAD, noise_frame(QCIF, seed=seed))


def _trace():
    return ArrivalTrace.synthesize(TraceSpec(requests=4, rate_per_s=10.0,
                                             seed=1))


def _drain_one(service, options=None):
    ticket = service.submit(_call(), options)
    service.drain()
    return ticket


class TestSubmitOptionsRecord:
    def test_defaults(self):
        options = SubmitOptions()
        assert options.priority is Priority.STANDARD
        assert options.deadline_seconds is None
        assert options.max_retries == 0
        assert options.tenant is None
        assert options.placement is None
        assert options.arrival_seconds is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SubmitOptions().max_retries = 3

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            SubmitOptions(max_retries=-1)

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            SubmitOptions(deadline_seconds=-0.5)


class TestServiceShim:
    def test_new_signature_does_not_warn(self):
        service = EngineService()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ticket = _drain_one(service, SubmitOptions(
                priority=Priority.INTERACTIVE, max_retries=1))
        assert ticket.result() is not None

    def test_bare_submit_does_not_warn(self):
        service = EngineService()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _drain_one(service)

    def test_tenant_lands_in_the_service_books(self):
        service = EngineService(pool=EnginePool.of_engines(2))
        for seed in range(3):
            service.submit(_call(seed),
                           SubmitOptions(tenant="cam-north"))
        service.submit(_call(9), SubmitOptions(tenant="cam-south"))
        report = service.drain()
        assert report.calls_by_tenant == {"cam-north": 3,
                                          "cam-south": 1}

    def test_placement_hint_routes_the_wave(self):
        service = EngineService(pool=EnginePool.of_engines(3))
        _drain_one(service, SubmitOptions(placement=2))
        report = service.report()
        assert report.pool is not None
        assert report.pool.hinted_waves == 1
        assert report.pool.workers[2].calls_routed == 1


class TestRunBatchShim:
    def test_tenant_tallied_in_the_call_log(self):
        lib = AddressLib()
        lib.run_batch([_call(0), _call(1)],
                      options=SubmitOptions(tenant="edge-7"))
        lib.run_batch([_call(2)])
        assert lib.log.by_tenant == {"edge-7": 2}
        lib.log.clear()
        assert lib.log.by_tenant == {}


class TestDriverShim:
    def test_tenant_tallied_per_driver(self):
        config = intra_config(INTRA_GRAD, SMALL)
        frame = noise_frame(SMALL, seed=5)
        driver = AddressEngineDriver()
        driver.submit(config, frame,
                      options=SubmitOptions(tenant="lab"))
        driver.submit(config, frame)
        assert driver.calls_by_tenant == {"lab": 1}


class TestFacadeExports:
    def test_one_import_surface_covers_the_stack(self):
        import repro.api as api
        for name in ("AddressLib", "AddressEngineDriver", "BatchCall",
                     "EnginePool", "EngineService", "EngineWorker",
                     "Priority", "ServiceReport", "SubmitOptions"):
            assert hasattr(api, name), name

    def test_backend_shim_sees_tenant_through_run_batch(self):
        lib = AddressLib(EngineBackend())
        lib.run_batch([_call(6)], options=SubmitOptions(tenant="t0"))
        assert lib.log.by_tenant == {"t0": 1}


class TestOldSpellingsRemoved:
    """Every retired spelling fails loudly instead of being folded in."""

    @pytest.mark.parametrize("spelling", [
        lambda: EngineService(queue_depth=4),
        lambda: EngineService(lib=AddressLib()),
        lambda: EngineService(virtual_engines=4),
        lambda: EngineService(policy=AdmissionPolicy(0.05)),
        lambda: RequestQueue(max_depth=2),
        lambda: MicroBatcher(max_batch=2),
        lambda: EngineService().submit(_call(),
                                       priority=Priority.BULK),
        lambda: AddressLib().run_batch([_call()], None),
        lambda: AddressEngineDriver().submit(
            intra_config(INTRA_GRAD, SMALL), noise_frame(SMALL, seed=1),
            None, [True]),
        lambda: CallScheduler(transport="shm"),
        lambda: CallScheduler(transport_model=object()),
        lambda: CallScheduler(bypass="never"),
        lambda: CallScheduler(2, EngineTimingModel()),
        lambda: CallScheduler(special_inter_ops=("x",)),
        lambda: EngineBackend(special_inter_ops=("x",)),
        lambda: EnginePool.of_engines(2, special_inter_ops=("x",)),
        lambda: AdmissionController(special_inter_ops=frozenset()),
        lambda: AsyncEngineClient(EngineService(), backpressure=False),
        lambda: replay_async(_trace(), EngineService(),
                             backpressure=False),
        lambda: replay_serial(_trace(), EngineService(), release=False),
    ], ids=["service-queue_depth", "service-lib",
            "service-virtual_engines", "service-AdmissionPolicy",
            "queue-max_depth", "batcher-max_batch", "submit-priority",
            "run_batch-positional", "driver-positional",
            "scheduler-transport", "scheduler-cost-model",
            "scheduler-bypass", "scheduler-timing",
            "scheduler-special_inter_ops", "backend-special_inter_ops",
            "pool-special_inter_ops", "admission-special_inter_ops",
            "client-backpressure", "replay_async-backpressure",
            "replay_serial-release"])
    def test_old_spelling_raises_type_error(self, spelling):
        with pytest.raises(TypeError):
            spelling()

    def test_transport_cost_model_is_gone(self):
        with pytest.raises(ImportError):
            from repro.perf import TransportCostModel  # noqa: F401

    def test_resolution_hooks_are_gone(self):
        """Resolved tickets come back from ``step``/``run_until``; no
        callback slot or listener list is left to install."""
        assert not hasattr(EngineService(), "on_resolved")
        assert not hasattr(RequestQueue, "add_space_listener")
        assert not hasattr(RequestQueue, "remove_space_listener")
