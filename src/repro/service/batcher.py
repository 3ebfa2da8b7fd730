"""Micro-batching: coalesce compatible queued calls into one wave.

The paper's host submits one call, waits for the completion interrupt,
submits the next.  A loaded service can do better: queued calls that
share a configuration (same addressing mode, same op, same format and
channel set) are *already* what :meth:`AddressLib.run_batch` calls a
batch -- mutually independent by the service contract -- so the batcher
pulls them forward into one wave, which the service hands whole to one
board of its pool.  Configuration is the only thing that keys a wave,
and :meth:`~repro.addresslib.library.BatchCall.same_config` is its one
definition -- the predicate ``run_batch`` also cuts its calls into
same-configuration runs by.

Bit-exactness is structural, not hoped for: each request's result
depends only on its own input frames (no request reads another's
output), so executing compatible requests together -- in any order, on
any worker -- produces exactly the frames serial one-at-a-time
submission would.  The equivalence tests hold this over the same
randomized corpus the scheduler is held to.
"""

from __future__ import annotations

from typing import List, Optional

from .policy import ServicePolicy
from .queue import RequestQueue
from .request import ServiceRequest


def _deadline_rank(request: ServiceRequest) -> float:
    """Followers sort by absolute deadline, undated work last."""
    deadline = request.absolute_deadline
    return float("inf") if deadline is None else deadline


class MicroBatcher:
    """Forms dispatch waves from the head of the request queue."""

    def __init__(self, policy: Optional[ServicePolicy] = None) -> None:
        self.policy = policy if policy is not None else ServicePolicy()
        self.max_batch = self.policy.max_batch
        #: Waves formed so far.
        self.waves = 0
        #: Requests that rode a wave with at least one companion.
        self.coalesced_requests = 0

    def form_wave(self, queue: RequestQueue) -> List[ServiceRequest]:
        """Pop the next wave: the head request plus up to
        ``max_batch - 1`` compatible followers.

        The head is always the request strict priority order would
        dispatch next, so coalescing never inverts priorities -- it only
        lets compatible work *join* the head's wave early.  With
        ``policy.fair_queueing`` the compatible candidates are ranked
        by absolute deadline (stably, so undated work keeps drain order
        behind dated work) -- near-deadline requests ride the earliest
        compatible wave instead of waiting out a full queue pass;
        without it followers come in queue (drain) order.
        """
        if not queue:
            return []
        head = queue.pop_next()
        prefer = _deadline_rank if self.policy.fair_queueing else None
        wave = [head] + queue.pop_compatible(
            lambda request: head.call.same_config(request.call),
            self.max_batch - 1, prefer=prefer)
        self.waves += 1
        if len(wave) > 1:
            self.coalesced_requests += len(wave)
        return wave
