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
Per-tenant ``max_queued`` quotas ride the same bookkeeping: a tenant
at its cap is answered ``TENANT_QUOTA`` while everyone else still has
the whole remaining depth.  All knobs come from one
:class:`~repro.service.policy.ServicePolicy`.

The synchronous front end surfaces a full queue as an immediate
``QUEUE_FULL`` rejection; the asyncio facade (:mod:`repro.aio`)
instead *suspends* the producer until a slot frees.  The wake signal
lives here: :meth:`RequestQueue.add_space_listener` registers a
zero-argument callback fired whenever a pop reopens space in a queue
that was at depth.  Listeners are notification-only -- they must
re-check :attr:`has_space` themselves (several producers may race for
one freed slot) and must not mutate the queue reentrantly.  Quota
rejections deliberately do not ride the listener path: a tenant at its
own cap is shed explicitly, not suspended against space it may never
be allowed to take.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Deque, Dict, Iterator, List, Optional,
                    Tuple)

from .policy import ServicePolicy
from .request import Priority, RejectReason, ServiceRequest

#: One queued entry: (virtual finish tag, offer sequence, request).
_Entry = Tuple[float, int, ServiceRequest]


class RequestQueue:
    """Weighted-fair within a class, strict priority across classes."""

    def __init__(self, policy: Optional[ServicePolicy] = None) -> None:
        self.policy = policy if policy is not None else ServicePolicy()
        self.max_depth = self.policy.queue_depth
        #: priority -> tenant bucket -> FIFO of stamped entries.
        self._classes: Dict[Priority,
                            Dict[Optional[str], Deque[_Entry]]] = {
            priority: {} for priority in Priority}
        #: Per-class virtual time (advances with every head pop).
        self._vtime: Dict[Priority, float] = {
            priority: 0.0 for priority in Priority}
        #: Per-class, per-bucket last assigned finish tag.
        self._finish: Dict[Priority, Dict[Optional[str], float]] = {
            priority: {} for priority in Priority}
        self._size = 0
        self._seq = 0
        #: Decreasing stamp so later requeues sort *ahead* of earlier
        #: ones -- the appendleft semantics of the pre-tenancy queue.
        self._front_seq = -1
        #: Queued requests per tenant label (the max_queued quota book).
        self._queued_by_tenant: Dict[Optional[str], int] = {}
        #: Deepest the queue ever got (capacity-planning signal).
        self.high_water = 0
        self._space_listeners: List[Callable[[], None]] = []

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

    # -- backpressure signaling -----------------------------------------------

    def add_space_listener(self, listener: Callable[[], None]) -> None:
        """Register a wake callback for the full-to-space transition.

        Fired after any pop that takes a queue *at depth* back below
        its bound -- the moment a suspended producer could offer again.
        The callback carries no payload: a woken producer re-checks
        :attr:`has_space` (another producer may have claimed the slot
        first) and goes back to waiting if it lost the race.
        """
        self._space_listeners.append(listener)

    def remove_space_listener(self,
                              listener: Callable[[], None]) -> None:
        """Unregister ``listener``; unknown listeners are a no-op."""
        try:
            self._space_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_space(self, depth_before: int) -> None:
        """Wake listeners when a pop reopened space at the bound."""
        if (self._space_listeners and depth_before >= self.max_depth
                and self._size < self.max_depth):
            for listener in tuple(self._space_listeners):
                listener()

    # -- offering -------------------------------------------------------------

    def offer(self, request: ServiceRequest) -> Optional[RejectReason]:
        """Enqueue, or explain why not (``None`` means accepted)."""
        if self._size >= self.max_depth:
            return RejectReason.QUEUE_FULL
        cap = self.policy.tenant(request.tenant).max_queued
        if (cap is not None
                and self._queued_by_tenant.get(request.tenant, 0) >= cap):
            return RejectReason.TENANT_QUOTA
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
        bound and tenant quota are not re-checked: the request held its
        slot until a moment ago and nothing else can have claimed it
        mid-dispatch.  The entry carries a ``-inf`` finish tag, so it
        sorts ahead of every fair-queued entry without dragging the
        class's virtual time backwards.
        """
        bucket = self._bucket_key(request)
        self._classes[request.priority].setdefault(
            bucket, deque()).appendleft(
                (float("-inf"), self._front_seq, request))
        self._front_seq -= 1
        self._account_add(request)

    def _account_add(self, request: ServiceRequest) -> None:
        self._size += 1
        self._queued_by_tenant[request.tenant] = (
            self._queued_by_tenant.get(request.tenant, 0) + 1)
        self.high_water = max(self.high_water, self._size)

    def _account_remove(self, request: ServiceRequest) -> None:
        self._size -= 1
        remaining = self._queued_by_tenant.get(request.tenant, 0) - 1
        if remaining > 0:
            self._queued_by_tenant[request.tenant] = remaining
        else:
            self._queued_by_tenant.pop(request.tenant, None)

    # -- popping --------------------------------------------------------------

    def pop_next(self) -> ServiceRequest:
        """Smallest finish tag in the highest non-empty class; raises
        IndexError when empty."""
        depth_before = self._size
        for priority in Priority:
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
            self._notify_space(depth_before)
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
        depth_before = self._size
        for priority in Priority:
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
        if popped:
            self._notify_space(depth_before)
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
        for priority in Priority:
            for entry in self._class_entries(priority):
                yield entry[2]
