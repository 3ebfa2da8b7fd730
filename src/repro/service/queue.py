"""The bounded, tenant-fair, priority-classed request queue.

The queue is deliberately small and explicit: strict priority across
classes, one global depth bound, and *reject-with-reason* when full --
never unbounded growth.  An overloaded service that queues without
bound converts overload into unbounded latency for everyone; a bounded
queue converts it into fast, explicit backpressure for the marginal
request, which is the behaviour the admission controller builds on.

Within one priority class the drain order is **weighted fair
queueing** over tenants (start-time fair queueing): every offer is
stamped with a virtual finish tag ``max(class vtime, tenant's last
finish) + 1/weight`` and pops take the smallest tag.  Tenants at equal
weight interleave one-for-one however unevenly they arrive; a weight-2
tenant drains two for a neighbour's one; and a queue whose requests
are all untagged collapses to a single bucket whose tags increase with
every offer -- exact FIFO, bit-identical to the pre-tenancy order.
All knobs come from one :class:`~repro.service.policy.ServicePolicy`.

The queue is the one owner of what is queued.  Besides the entries it
keeps the backlog books admission prices against: the estimated cost
of everything queued (:attr:`RequestQueue.cost_seconds`) and the same
per tenant (:attr:`RequestQueue.cost_by_tenant`).  The queue also
counts each tenant's queued requests and drops the tenant's cost entry
exactly when its last queued request leaves, so the float residue its
drained costs leave never keeps it listed.  Every offer, requeue and
pop updates the books as it happens, so no caller keeps a copy.

The synchronous front end surfaces a full queue as an immediate
``QUEUE_FULL`` rejection; the asyncio facade (:mod:`repro.aio`)
instead *suspends* the producer until a slot frees, re-checking
:attr:`RequestQueue.has_space` after each wave it dispatches.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Deque, Dict, Iterator, List, Optional,
                    Tuple)

from .policy import ServicePolicy
from .request import Priority, RejectReason, ServiceRequest

#: One queued entry: (virtual finish tag, offer sequence, request).
_Entry = Tuple[float, int, ServiceRequest]

#: The priority classes in drain order (iterating the enum class itself
#: runs a Python-level generator on every pop).
_PRIORITIES: Tuple[Priority, ...] = tuple(Priority)


class RequestQueue:
    """Weighted-fair within a class, strict priority across classes."""

    def __init__(self, policy: Optional[ServicePolicy] = None) -> None:
        self.policy = policy if policy is not None else ServicePolicy()
        self.max_depth = self.policy.queue_depth
        #: priority -> tenant bucket -> FIFO of stamped entries.
        self._classes: Dict[Priority,
                            Dict[Optional[str], Deque[_Entry]]] = {
            priority: {} for priority in _PRIORITIES}
        #: Per-class virtual time (advances with every head pop).
        self._vtime: Dict[Priority, float] = {
            priority: 0.0 for priority in _PRIORITIES}
        #: Per-class, per-bucket last assigned finish tag.
        self._finish: Dict[Priority, Dict[Optional[str], float]] = {
            priority: {} for priority in _PRIORITIES}
        self._size = 0
        self._seq = 0
        #: Decreasing stamp so later requeues sort *ahead* of earlier
        #: ones -- the appendleft semantics of the pre-tenancy queue.
        self._front_seq = -1
        #: Estimated cost of everything queued, in modeled seconds.
        self.cost_seconds = 0.0
        #: Estimated queued cost per tenant label; only tenants with
        #: queued work hold an entry.
        self.cost_by_tenant: Dict[Optional[str], float] = {}
        #: Queued requests per tenant label (same keys as the cost book).
        self._queued_by_tenant: Dict[Optional[str], int] = {}
        #: Deepest the queue ever got (capacity-planning signal).
        self.high_water = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def has_space(self) -> bool:
        """Whether :meth:`offer` would currently accept a request."""
        return self._size < self.max_depth

    def _bucket_key(self, request: ServiceRequest) -> Optional[str]:
        if not self.policy.fair_queueing:
            return None
        return request.tenant

    # -- offering -------------------------------------------------------------

    def offer(self, request: ServiceRequest) -> Optional[RejectReason]:
        """Enqueue, or explain why not (``None`` means accepted)."""
        if self._size >= self.max_depth:
            return RejectReason.QUEUE_FULL
        priority = request.priority
        bucket = self._bucket_key(request)
        weight = (self.policy.weight(request.tenant)
                  if self.policy.fair_queueing else 1.0)
        start = max(self._vtime[priority],
                    self._finish[priority].get(bucket, 0.0))
        finish = start + 1.0 / weight
        self._finish[priority][bucket] = finish
        self._classes[priority].setdefault(bucket, deque()).append(
            (finish, self._seq, request))
        self._seq += 1
        self._account_add(request)
        return None

    def requeue_front(self, request: ServiceRequest) -> None:
        """Put a retried request at the *front* of its class.

        A deadline retry has already waited one full queue pass; sending
        it to the back would starve it behind younger work.  The depth
        bound is not re-checked: the request held its slot until a
        moment ago and nothing else can have claimed it mid-dispatch.
        The entry carries a ``-inf`` finish tag, so it sorts ahead of
        every fair-queued entry without dragging the class's virtual
        time backwards.
        """
        bucket = self._bucket_key(request)
        self._classes[request.priority].setdefault(
            bucket, deque()).appendleft(
                (float("-inf"), self._front_seq, request))
        self._front_seq -= 1
        self._account_add(request)

    def _account_add(self, request: ServiceRequest) -> None:
        self._size += 1
        self.high_water = max(self.high_water, self._size)
        cost = request.estimated_cost_seconds
        tenant = request.tenant
        self.cost_seconds += cost
        self.cost_by_tenant[tenant] = (
            self.cost_by_tenant.get(tenant, 0.0) + cost)
        self._queued_by_tenant[tenant] = (
            self._queued_by_tenant.get(tenant, 0) + 1)

    def _account_remove(self, request: ServiceRequest) -> None:
        self._size -= 1
        cost = request.estimated_cost_seconds
        tenant = request.tenant
        self.cost_seconds -= cost
        left = self._queued_by_tenant[tenant] - 1
        if left:
            self._queued_by_tenant[tenant] = left
            self.cost_by_tenant[tenant] -= cost
        else:
            del self._queued_by_tenant[tenant]
            del self.cost_by_tenant[tenant]

    # -- popping --------------------------------------------------------------

    def pop_next(self) -> ServiceRequest:
        """Smallest finish tag in the highest non-empty class; raises
        IndexError when empty."""
        for priority in _PRIORITIES:
            buckets = self._classes[priority]
            if not buckets:
                continue
            best: Optional[Optional[str]] = None
            best_key: Optional[Tuple[float, int]] = None
            for bucket, entries in buckets.items():
                head = entries[0]
                key = (head[0], head[1])
                if best_key is None or key < best_key:
                    best_key, best = key, bucket
            assert best_key is not None
            finish, _, request = buckets[best].popleft()  # type: ignore[index]
            if not buckets[best]:  # type: ignore[index]
                del buckets[best]  # type: ignore[arg-type]
            self._vtime[priority] = max(self._vtime[priority], finish)
            self._account_remove(request)
            return request
        raise IndexError("pop from an empty RequestQueue")

    def _class_entries(self, priority: Priority) -> List[_Entry]:
        """This class's entries in the order :meth:`pop_next` would
        drain them (merged across tenant buckets by finish tag)."""
        merged: List[_Entry] = []
        for entries in self._classes[priority].values():
            merged.extend(entries)
        merged.sort(key=lambda entry: (entry[0], entry[1]))
        return merged

    def pop_compatible(
            self, matches: Callable[[ServiceRequest], bool], limit: int,
            prefer: Optional[Callable[[ServiceRequest], float]] = None,
    ) -> List[ServiceRequest]:
        """Remove up to ``limit`` queued requests satisfying ``matches``.

        Scans classes in priority order and each class in drain order,
        so the relative order of the popped requests is the order
        :meth:`pop_next` would have produced.  With ``prefer`` the
        class's matches are instead ranked by the given key (stably, so
        ties keep drain order) before truncation -- how the batcher
        pulls near-deadline work forward.  Requests are independent by
        contract, so pulling compatible ones forward changes neither
        their results nor any other request's.
        """
        popped: List[ServiceRequest] = []
        if limit <= 0:
            return popped
        for priority in _PRIORITIES:
            if not self._classes[priority]:
                continue
            candidates = [entry for entry in
                          self._class_entries(priority)
                          if matches(entry[2])]
            if prefer is not None:
                candidates.sort(key=lambda entry: prefer(entry[2]))
            taken = candidates[:limit - len(popped)]
            if taken:
                self._remove_entries(priority, taken)
                popped.extend(entry[2] for entry in taken)
            if len(popped) >= limit:
                break
        return popped

    def _remove_entries(self, priority: Priority,
                        taken: List[_Entry]) -> None:
        chosen = {id(entry[2]) for entry in taken}
        buckets = self._classes[priority]
        for bucket in list(buckets):
            entries = buckets[bucket]
            if not any(id(entry[2]) in chosen for entry in entries):
                continue
            kept = deque(entry for entry in entries
                         if id(entry[2]) not in chosen)
            if kept:
                buckets[bucket] = kept
            else:
                del buckets[bucket]
        for entry in taken:
            self._account_remove(entry[2])

    def __iter__(self) -> Iterator[ServiceRequest]:
        for priority in _PRIORITIES:
            for entry in self._class_entries(priority):
                yield entry[2]
