"""AsyncEngineClient: the asyncio facade over the serving stack.

:class:`~repro.service.EngineService` is a blocking ``submit()`` /
``drain()`` pair: tickets resolve only when the caller pumps the
dispatch loop itself.  That shape cannot serve concurrent producers --
nothing suspends, nothing streams, a full queue can only reject.  This
module wraps one service (and therefore one
:class:`~repro.pool.EnginePool`) in an asyncio front end with the three
behaviours real serving needs:

* **Awaitable tickets** -- ``ticket = await client.submit(call, opts)``
  returns an :class:`AsyncTicket`; ``await ticket`` suspends until the
  request's wave retires and evaluates to the call's functional result
  (bit-exact with serial submission -- execution underneath is the same
  vector executor on the same pool).
* **Background dispatch** -- a single asyncio task steps the service
  one micro-batched wave at a time, yielding to the event loop between
  waves, so completions stream out while producers are still
  submitting.  An arrival-stamped producer paces dispatch itself (its
  ``run_until`` steps every wave that can start before its arrival):
  the task steps for it only while it is parked on a full queue,
  ``drain()`` waits, or a caller awaits one of its unresolved tickets.
* **Backpressure** -- when the bounded
  :class:`~repro.service.RequestQueue` is at depth, ``submit`` suspends
  the producer until a wave the client dispatches frees a slot, instead
  of rejecting; admission *policy* rejections (``OVERLOAD``) still come
  back as resolved tickets, because shedding over-budget work is a
  serving decision, not a capacity accident.

The service hands back what each ``step()`` / ``run_until()`` resolved,
so the client learns of completions from the calls it makes itself --
the way the paper's driver returns a call's result to its caller after
the completion interrupt -- and no hook is installed on the service.

Results are handed off as waves retire: when a stamped ``submit()``'s
``run_until`` leaves a wave's worth (``policy.max_batch``) of tickets
buffered in a completion stream, it yields once, before offering its
call, so consumers account and ``release()`` them.  Nothing blocks on
a stream.  So replay memory is bounded by the queue, not the trace: a
CIF replay (4 boards, queue 256, 0.9x capacity; 2-vCPU host) peaks at
79 MB RSS for 500 requests and 92 MB for 2,000 (372 and 1,340 MB when
results waited for ``drain()``).

Time stays *modeled*: arrivals carried in
:attr:`~repro.api.SubmitOptions.arrival_seconds` advance the same
deterministic virtual clock the synchronous path uses, so a fixed
trace replayed through this facade produces machine-independent books.
Wall-clock timestamps are kept alongside (``wall_submit_seconds`` /
``wall_resolve_seconds`` on the ticket) for the load harness's real
latency percentiles.

Typical flow::

    async with AsyncEngineClient(service) as client:
        tickets = [await client.submit(call) for call in calls]
        results = [await t for t in tickets]

Streaming::

    async for ticket in client.completions():
        handle(ticket.result())
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import (TYPE_CHECKING, Callable, ContextManager, Dict,
                    Generator, Iterator, List, Optional, Union)

from ..addresslib.library import BatchCall
from ..image.frame import Frame
from ..service.engine_service import EngineService, ServiceReport
from ..service.request import ServiceError, ServiceTicket

if TYPE_CHECKING:
    from ..api import SubmitOptions

#: Sentinel closing a completion stream (pushed on client shutdown).
_END_OF_STREAM = object()


class AsyncTicket:
    """One submission's awaitable handle.

    Wraps the synchronous :class:`~repro.service.ServiceTicket` and an
    :class:`asyncio.Future` the dispatch loop resolves when the
    request's wave retires (or the request is rejected / times out).
    ``await ticket`` gives the functional result and raises
    :class:`~repro.service.ServiceError` for a request that never
    completed; ``await ticket.wait()`` never raises -- it returns the
    resolved underlying ticket for callers (like the load harness)
    that account rejections rather than treat them as errors.
    """

    def __init__(self, ticket: ServiceTicket,
                 future: "asyncio.Future[ServiceTicket]") -> None:
        self.ticket = ticket
        self._future = future
        #: Wall clock (``time.perf_counter``) at submission.
        self.wall_submit_seconds = time.perf_counter()
        #: Wall clock when the dispatch loop resolved the ticket.
        self.wall_resolve_seconds: Optional[float] = None
        #: Keeps the client's dispatch task stepping while awaited.
        self._stepping: Callable[[], ContextManager[None]] = (
            contextlib.nullcontext)

    # -- delegation -----------------------------------------------------------

    @property
    def request_id(self) -> int:
        return self.ticket.request_id

    @property
    def done(self) -> bool:
        return self.ticket.done

    @property
    def accepted(self) -> bool:
        return self.ticket.accepted

    @property
    def latency_seconds(self) -> Optional[float]:
        """Modeled end-to-end latency (``None`` until completed)."""
        return self.ticket.latency_seconds

    @property
    def wall_latency_seconds(self) -> Optional[float]:
        """Wall seconds from submission to resolution."""
        if self.wall_resolve_seconds is None:
            return None
        return self.wall_resolve_seconds - self.wall_submit_seconds

    def result(self) -> Union[Frame, int]:
        """The resolved result; raises :class:`ServiceError` unless
        the request completed (same contract as the sync ticket)."""
        return self.ticket.result()

    # -- awaiting -------------------------------------------------------------

    async def wait(self) -> ServiceTicket:
        """Suspend until resolved; returns the underlying ticket
        whatever its outcome (completed, rejected, or timed out)."""
        with self._stepping():
            return await asyncio.shield(self._future)

    async def _awaited_result(self) -> Union[Frame, int]:
        await self.wait()
        return self.ticket.result()

    def __await__(self) -> Generator[object, None, Union[Frame, int]]:
        return self._awaited_result().__await__()

    def _resolve(self) -> None:
        if not self._future.done():
            self.wall_resolve_seconds = time.perf_counter()
            self._future.set_result(self.ticket)

    def _fail(self, exc: BaseException) -> None:
        if not self._future.done():
            self.wall_resolve_seconds = time.perf_counter()
            self._future.set_exception(exc)


class AsyncEngineClient:
    """Asyncio front end over one :class:`EngineService`.

    The client does not own the service (close the pool through the
    service/pool context managers as usual); it owns only the dispatch
    task and the ticket futures.  Use as an async context manager, or
    call :meth:`start` / :meth:`close` explicitly.
    """

    def __init__(self, service: EngineService) -> None:
        self.service = service
        #: Submits that suspended at least once on a full queue.
        self.backpressure_waits = 0
        #: Wall seconds producers spent suspended on the queue.
        self.backpressure_wall_seconds = 0.0
        #: Accepted submissions not yet resolved, by request id.
        self._tickets: Dict[int, AsyncTicket] = {}
        self._streams: List["asyncio.Queue[object]"] = []
        self._dispatch_task: Optional["asyncio.Task[None]"] = None
        self._work: Optional[asyncio.Event] = None
        self._space: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        #: Parked producers, drain() calls and ticket awaiters.
        self._waiters = 0
        #: Whether the last submit was arrival-stamped (see submit).
        self._paced = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Attach to the running event loop and start dispatching."""
        if self._dispatch_task is not None:
            return
        if self._closed:
            raise ServiceError("client is closed")
        self._work = asyncio.Event()
        self._space = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._dispatch_task = asyncio.get_running_loop().create_task(
            self._dispatch_loop())

    async def close(self) -> None:
        """Stop the dispatch loop, end every completion stream and
        fail producers parked on a full queue.

        Unresolved tickets are failed with :class:`ServiceError` --
        closing a client with work in flight is an abandonment, and a
        silent never-resolving future would hang its awaiter forever.
        """
        if self._closed:
            return
        self._closed = True
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            try:
                await self._dispatch_task
            except asyncio.CancelledError:
                pass
            self._dispatch_task = None
        for ticket in list(self._tickets.values()):
            ticket._fail(ServiceError(
                f"client closed with request {ticket.request_id} "
                f"unresolved"))
        self._tickets.clear()
        self._release_waiters()

    async def __aenter__(self) -> "AsyncEngineClient":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- submission -----------------------------------------------------------

    async def submit(self, call: BatchCall,
                     options: Optional["SubmitOptions"] = None
                     ) -> AsyncTicket:
        """Offer one call; suspends under backpressure, never blocks
        the event loop.

        The returned :class:`AsyncTicket` is already resolved for
        admission rejections (``OVERLOAD``); otherwise it resolves when
        the background loop retires the request's wave.  Backpressure
        suspension is tied to *queue depth* only: an over-budget
        request is shed explicitly, never parked against a backlog
        admission has refused.
        ``options.arrival_seconds`` paces the modeled clock exactly as
        the synchronous open-loop replay does: waves startable before
        the arrival are dispatched first, here by this call, so
        admission sees the same modeled backlog either way.  Such a
        call may yield once to stream consumers before it offers the
        request, never after.
        """
        self.start()
        if self._closed:
            raise ServiceError("client is closed")
        self._paced = False
        if options is not None and options.arrival_seconds is not None:
            # Same pacing as the serial path's run_until-then-submit:
            # deterministic, machine-independent admission decisions.
            self._paced = True
            arrival = options.arrival_seconds
            self._call_service(lambda: self.service.run_until(arrival))
            if any(stream.qsize() >= self.service.policy.max_batch
                   for stream in self._streams):
                await asyncio.sleep(0)  # hand the results off
        if self._closed or not self.service.queue.has_space:
            await self._wait_for_space()
        ticket = self.service.submit(call, options)
        future: "asyncio.Future[ServiceTicket]" = (
            asyncio.get_running_loop().create_future())
        async_ticket = AsyncTicket(ticket, future)
        if ticket.done:
            # Rejected at admission: resolve immediately and stream it,
            # so reject accounting rides the same completion path.
            async_ticket._resolve()
            self._push_to_streams(async_ticket)
        else:
            async_ticket._stepping = self._stepping
            self._tickets[ticket.request_id] = async_ticket
            assert self._idle is not None and self._work is not None
            self._idle.clear()
            if not self._paced:
                self._work.set()
        return async_ticket

    async def _wait_for_space(self) -> None:
        """Suspend until the bounded queue has a slot.

        Several producers may be parked here; every wave the client
        dispatches that leaves room wakes them all and each re-checks --
        losers go back to waiting, so FIFO-within-priority never depends
        on wake order.
        """
        assert self._space is not None
        waited = False
        wall_start = 0.0
        while not self._closed and not self.service.queue.has_space:
            if not waited:
                waited = True
                self.backpressure_waits += 1
                wall_start = time.perf_counter()
            # A full queue can only drain through the dispatch loop.
            self._space.clear()
            with self._stepping():
                await self._space.wait()
        if self._closed:
            raise ServiceError("client is closed")
        if waited:
            self.backpressure_wall_seconds += (
                time.perf_counter() - wall_start)

    @contextlib.contextmanager
    def _stepping(self) -> Iterator[None]:
        """Keep the dispatch task stepping while the caller waits."""
        assert self._work is not None
        self._waiters += 1
        self._work.set()
        try:
            yield
        finally:
            self._waiters -= 1

    def release(self, ticket: AsyncTicket) -> None:
        """Drop the service-side record of a resolved ticket (see
        :meth:`EngineService.release`) -- the memory valve a
        million-request replay needs."""
        self.service.release(ticket.ticket)

    # -- streaming ------------------------------------------------------------

    def completions(self) -> "CompletionStream":
        """Open a stream of tickets in resolution order.

        Every resolved ticket is streamed -- completions, rejections
        and timeouts alike (the consumer is the natural place for
        reject accounting).  Registration is *eager*: tickets resolving
        after this call is made are never missed, even if the consumer
        task has not started iterating yet -- which is why this is a
        plain method, not an async generator.  The stream ends when the
        client closes; a consumer leaving early should ``await
        stream.aclose()`` (or use ``async with``) so the client stops
        buffering for it.
        """
        return CompletionStream(self)

    # -- draining -------------------------------------------------------------

    async def drain(self) -> ServiceReport:
        """Suspend until every accepted request has resolved; returns
        the service books (the async analogue of ``drain()``).  Raises
        :class:`ServiceError` when the client closes with work still
        queued: nothing will ever dispatch it."""
        self.start()
        assert self._idle is not None and self._work is not None
        with self._stepping():
            while self.service.queue or self._tickets:
                if self._closed:
                    raise ServiceError("client is closed")
                self._work.set()
                # Yield: the idle event may already be set (work
                # submitted behind the client's back).
                await asyncio.sleep(0)
                await self._idle.wait()
        return self.service.drain()

    # -- dispatch internals ---------------------------------------------------

    def _call_service(
            self, call: Callable[[], List[ServiceTicket]]) -> None:
        """Make one of the client's own ``step()`` / ``run_until()``
        calls and settle the tickets it returns.

        A call that raises has lost the pool.  Every outstanding ticket
        the call had already resolved before raising -- the waves a
        ``run_until`` retired first, a deadline expiry booked before the
        pool failed -- keeps its outcome; every other outstanding future
        is failed with the exception, because a dead pool must never
        strand an awaiter.  The client then closes: the dispatch task
        stops, and producers parked on a full queue, like any further
        submit, fail fast instead of queueing work for a dispatcher
        that will never step again.
        """
        try:
            resolved = call()
        except Exception as exc:
            self._settle([async_ticket.ticket for async_ticket
                          in self._tickets.values()
                          if async_ticket.ticket.done])
            for async_ticket in self._tickets.values():
                async_ticket._fail(exc)
            self._tickets.clear()
            task = self._dispatch_task
            if task is not None and task is not asyncio.current_task():
                task.cancel()
            self._release_waiters()
            raise
        self._settle(resolved)

    def _release_waiters(self) -> None:
        """Mark the client closed and wake everything parked on it:
        producers waiting for queue space and ``drain()`` re-check and
        raise :class:`ServiceError`, completion streams end."""
        self._closed = True
        self._maybe_idle()
        if self._space is not None:
            self._space.set()
        for stream in self._streams:
            stream.put_nowait(_END_OF_STREAM)

    def _settle(self, resolved: List[ServiceTicket]) -> None:
        """Act on what one of the client's own ``step()`` /
        ``run_until()`` calls returned: wake producers parked on a full
        queue if it now has room, then resolve futures and feed streams
        for the retired tickets, in the order the service resolved
        them."""
        if self._space is not None and self.service.queue.has_space:
            self._space.set()
        for ticket in resolved:
            async_ticket = self._tickets.pop(ticket.request_id, None)
            if async_ticket is not None:
                async_ticket._resolve()
                self._push_to_streams(async_ticket)
        self._maybe_idle()

    def _maybe_idle(self) -> None:
        if self._idle is not None and not self._tickets:
            self._idle.set()

    def _push_to_streams(self, async_ticket: AsyncTicket) -> None:
        for stream in self._streams:
            stream.put_nowait(async_ticket)

    async def _dispatch_loop(self) -> None:
        """One wave per iteration, a yield between waves.

        The yield is the streaming contract: consumers awaiting
        completions (and producers awaiting space) run between waves,
        not after a full drain.  A wave that raises ends the loop (see
        :meth:`_call_service`).
        """
        assert self._work is not None
        while True:
            await self._work.wait()
            # A stamped producer's run_until steps its own waves; one
            # stepped here, in its hand-off, would outrun the arrivals.
            if not self.service.queue or (self._paced
                                          and not self._waiters):
                self._work.clear()
                self._maybe_idle()
                continue
            self._call_service(self.service.step)
            await asyncio.sleep(0)


class CompletionStream:
    """An eagerly-registered async iterator over resolved tickets.

    Created by :meth:`AsyncEngineClient.completions`; buffering starts
    at creation, so a consumer can open the stream, hand it to a task,
    and submit immediately without racing the task's first iteration.
    Iteration ends when the client closes; :meth:`aclose` (or ``async
    with``) detaches early so an abandoned stream stops buffering.
    """

    def __init__(self, client: AsyncEngineClient) -> None:
        self._client = client
        self._queue: "asyncio.Queue[object]" = asyncio.Queue()
        client._streams.append(self._queue)
        if client._closed:
            self._queue.put_nowait(_END_OF_STREAM)
        self._ended = False

    def __aiter__(self) -> "CompletionStream":
        return self

    async def __anext__(self) -> AsyncTicket:
        if self._ended:
            raise StopAsyncIteration
        item = await self._queue.get()
        if item is _END_OF_STREAM:
            self._detach()
            raise StopAsyncIteration
        assert isinstance(item, AsyncTicket)
        return item

    async def aclose(self) -> None:
        """Detach from the client; safe to call more than once."""
        self._detach()

    async def __aenter__(self) -> "CompletionStream":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self._detach()

    def _detach(self) -> None:
        if not self._ended:
            self._ended = True
            if self._queue in self._client._streams:
                self._client._streams.remove(self._queue)
