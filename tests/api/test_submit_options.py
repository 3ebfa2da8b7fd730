"""The unified submission surface: SubmitOptions at the service.

One frozen options record carries every piece of serving metadata
(priority, deadline, retries, tenant, arrival) into
``EngineService.submit``; the layers below it take none.  Each entry
point has one shape: the old per-layer spellings, the loose-kwarg
service constructors and the retired placement, sanitizer,
residency-age, tenant-quota and policy knobs raise :class:`TypeError`.
"""

import dataclasses
import warnings

import pytest

from repro.addresslib import AddressLib, BatchCall, INTRA_GRAD
from repro.analysis import EngineParams
from repro.api import (AdmissionPolicy, AsyncEngineClient, EnginePool,
                       EngineService, EngineWorker, Priority,
                       RejectReason, ServicePolicy, ServiceReport,
                       SubmitOptions, TenantPolicy)
from repro.core import intra_config
from repro.host import (AddressEngineDriver, CallScheduler, EngineBackend,
                        FrameResidencyCache)
from repro.image import ImageFormat, noise_frame
from repro.load import (ArrivalTrace, LoadReport, TraceSpec,
                        replay_async, replay_serial)
from repro.perf import EngineTimingModel
from repro.service import AdmissionController, MicroBatcher, RequestQueue
from repro.service.request import ServiceRequest

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
        """The ticket carries its tenant; the per-tenant books are cut
        from the tickets."""
        service = EngineService(pool=EnginePool.of_engines(2))
        tickets = [service.submit(_call(seed),
                                  SubmitOptions(tenant="cam-north"))
                   for seed in range(3)]
        tickets.append(service.submit(
            _call(9), SubmitOptions(tenant="cam-south")))
        report = service.drain()
        assert report.completed == 4
        books = LoadReport(mode="serial", load_factor=1.0,
                           offered_requests=len(tickets),
                           offered_rate_per_s=0.0)
        for ticket in tickets:
            books.account(ticket)
        assert {name: book.completed
                for name, book in books.tenants.items()} == {
                    "cam-north": 3, "cam-south": 1}


class TestFacadeExports:
    def test_one_import_surface_covers_the_stack(self):
        import repro.api as api
        for name in ("AddressLib", "AddressEngineDriver", "BatchCall",
                     "EnginePool", "EngineService", "EngineWorker",
                     "Priority", "ServiceReport", "SubmitOptions"):
            assert hasattr(api, name), name


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
        lambda: SubmitOptions(placement=0),
        lambda: SubmitOptions(sanitize=("all",)),
        lambda: EnginePool([EngineWorker(0)], placement=None),
        lambda: EnginePool.of_engines(2, placement=None),
        lambda: EnginePool.of_engines(2, timing=EngineTimingModel()),
        lambda: EnginePool.of_engines(2, chain_frames=False),
        lambda: EnginePool.of_engines(2).place([_call()], hint=0),
        lambda: EnginePool.of_engines(2).dispatch([_call()], hint=0),
        lambda: AddressLib().run_batch([_call()],
                                       options=SubmitOptions()),
        lambda: AddressEngineDriver().submit(
            intra_config(INTRA_GRAD, SMALL), noise_frame(SMALL, seed=1),
            options=SubmitOptions()),
        lambda: AddressEngineDriver().book_call(
            intra_config(INTRA_GRAD, SMALL), options=SubmitOptions()),
        lambda: CallScheduler(sanitize=("all",)),
        lambda: EngineParams(placement_hints=(0, 1)),
        lambda: EngineBackend(residency_max_age=4),
        lambda: FrameResidencyCache(max_age=4),
        lambda: TenantPolicy(max_queued=2),
        lambda: TenantPolicy(max_in_flight=2),
        lambda: ServicePolicy(default_tenant=TenantPolicy()),
        lambda: ServicePolicy(deadline_aware_batching=False),
        lambda: ServicePolicy(rate_tau_seconds=0.5),
        lambda: AdmissionPolicy(budget_fractions={Priority.BULK: 1.0}),
        lambda: AdmissionController().admit(
            ServiceRequest(request_id=0, call=_call(), arrival_seconds=0.0,
                           priority=Priority.STANDARD,
                           deadline_seconds=None),
            0.0, tenant_backlog_seconds=0.0, now=0.0),
    ], ids=["service-queue_depth", "service-lib",
            "service-virtual_engines", "service-AdmissionPolicy",
            "queue-max_depth", "batcher-max_batch", "submit-priority",
            "run_batch-positional", "driver-positional",
            "scheduler-transport", "scheduler-cost-model",
            "scheduler-bypass", "scheduler-timing",
            "scheduler-special_inter_ops", "backend-special_inter_ops",
            "pool-special_inter_ops", "admission-special_inter_ops",
            "client-backpressure", "replay_async-backpressure",
            "replay_serial-release", "options-placement",
            "options-sanitize", "pool-placement",
            "of_engines-placement", "of_engines-timing",
            "of_engines-chain_frames", "place-hint", "dispatch-hint",
            "run_batch-options", "driver-submit-options",
            "book_call-options", "scheduler-sanitize",
            "params-placement_hints", "backend-residency_max_age",
            "residency-max_age", "tenant-max_queued",
            "tenant-max_in_flight", "policy-default_tenant",
            "policy-deadline_aware_batching", "policy-rate_tau_seconds",
            "admission-budget_fractions",
            "admit-tenant_backlog_seconds"])
    def test_old_spelling_raises_type_error(self, spelling):
        with pytest.raises(TypeError):
            spelling()

    def test_transport_cost_model_is_gone(self):
        with pytest.raises(ImportError):
            from repro.perf import TransportCostModel  # noqa: F401

    def test_placement_policies_are_gone(self):
        """The pool places by one rule; no policy module or class is
        left to pick another."""
        import repro.api as api
        import repro.pool as pool
        with pytest.raises(ImportError):
            import repro.pool.placement  # noqa: F401
        for name in ("PlacementPolicy", "LeastLoadedPlacement",
                     "RoundRobinPlacement", "ResidencyAffinityPlacement"):
            assert not hasattr(pool, name), name
            assert not hasattr(api, name), name

    def test_tenant_quotas_and_second_books_are_gone(self):
        """No quota reject reason, no second batch-configuration key,
        and no per-tenant tallies on the service report: the tickets
        carry their tenant and the queue owns the backlog."""
        import repro.service as service
        assert not hasattr(RejectReason, "TENANT_QUOTA")
        assert not hasattr(service, "BatchKey")
        books = EngineService().drain()
        for name in ("calls_by_tenant", "sheds_by_tenant"):
            assert not hasattr(books, name)
            assert name not in books.to_dict()
            assert name not in {f.name for f in
                                dataclasses.fields(ServiceReport)}

    def test_resolution_hooks_are_gone(self):
        """Resolved tickets come back from ``step``/``run_until``; no
        callback slot or listener list is left to install."""
        assert not hasattr(EngineService(), "on_resolved")
        assert not hasattr(RequestQueue, "add_space_listener")
        assert not hasattr(RequestQueue, "remove_space_listener")
