"""Bounded admission control for the serving daemon.

The daemon's first robustness line: work is admitted into a queue of
fixed capacity, and when the queue is full new requests are refused
*immediately* with 429 + ``Retry-After`` instead of buffering
unboundedly (which converts overload into memory exhaustion and
unbounded tail latency for everyone).

A :class:`Ticket` tracks one admitted request from enqueue to response.
The dispatcher task drains tickets in arrival order and coalesces up to
``batch_max`` of them into a single ``engine.run()`` batch, so under
load the engine sees corpus-sized work units rather than one process
round-trip per request.

Tickets carry an absolute deadline; a ticket whose client already gave
up (handler timed out and marked it abandoned) is skipped at batch
build time so dead work never reaches a worker.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from .protocol import AnalyzeRequest, QueueFullError

DEFAULT_CAPACITY = 64
DEFAULT_BATCH_MAX = 16


@dataclass
class Ticket:
    """One admitted request, from enqueue to response."""

    request: AnalyzeRequest
    deadline: float  # absolute monotonic deadline
    enqueued_at: float
    seq: int
    future: "asyncio.Future[Any]" = field(repr=False, default=None)  # type: ignore[assignment]
    abandoned: bool = False
    #: the cache key this request is the one evaluation of, while it
    #: holds it (the daemon's rule: one evaluation per key at a time)
    key: Optional[str] = None
    #: taken into a batch by the dispatcher
    dispatched: bool = False

    def remaining(self, now: Optional[float] = None) -> float:
        if now is None:
            now = time.monotonic()
        return self.deadline - now


class AdmissionQueue:
    """Bounded FIFO between HTTP handlers and the dispatcher task."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        batch_max: int = DEFAULT_BATCH_MAX,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.capacity = capacity
        self.batch_max = batch_max
        self._queue: asyncio.Queue[Optional[Ticket]] = asyncio.Queue()
        self._seq = itertools.count()
        self._closed = False
        #: EWMA of seconds one batch spends in service — the basis of
        #: the Retry-After hint handed to shed clients.
        self._service_ewma = 0.05
        # lifetime counters for /stats + the drain manifest
        self.admitted = 0
        self.rejected = 0

    # -- producer side (HTTP handlers) ---------------------------------

    def depth(self) -> int:
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(
        self, request: AnalyzeRequest, *, deadline: float
    ) -> Ticket:
        """Admit a request or raise :class:`QueueFullError` (429).

        Admission is synchronous and never blocks: backpressure is an
        instant, honest refusal, not a stall.
        """
        if self._queue.qsize() >= self.capacity:
            self.rejected += 1
            raise QueueFullError(
                f"admission queue at capacity ({self.capacity})",
                retry_after=self.retry_after_hint(),
            )
        now = time.monotonic()
        ticket = Ticket(
            request=request,
            deadline=deadline,
            enqueued_at=now,
            seq=next(self._seq),
            future=asyncio.get_running_loop().create_future(),
        )
        self._queue.put_nowait(ticket)
        self.admitted += 1
        return ticket

    def retry_after_hint(self) -> float:
        """Rough seconds until a slot frees: queue depth worth of
        batches at the observed service rate, floored at 100 ms so
        clients don't busy-spin."""
        batches_ahead = max(1, self._queue.qsize() // self.batch_max)
        return max(0.1, round(batches_ahead * self._service_ewma, 3))

    # -- consumer side (dispatcher task) -------------------------------

    async def next_batch(self) -> Optional[list[Ticket]]:
        """Block for the next batch of live tickets.

        Waits for at least one ticket, then greedily drains whatever
        else is already queued (up to ``batch_max``) without an
        artificial batching window — latency is never traded for
        batch size that isn't already there.  Returns ``None`` once
        the queue is closed and empty.
        """
        while True:
            first = await self._queue.get()
            if first is None:  # close sentinel
                # re-seat it so every later poll also sees the closed
                # queue instead of blocking forever
                self._queue.put_nowait(None)
                return None
            batch = [first]
            while len(batch) < self.batch_max:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    # put the sentinel back for the next next_batch()
                    self._queue.put_nowait(None)
                    break
                batch.append(nxt)
            now = time.monotonic()
            live = [
                t for t in batch
                if not t.abandoned and t.remaining(now) > 0.0
            ]
            for t in batch:
                if t not in live and not t.future.done():
                    # expired in queue: the handler's own wait_for has
                    # fired (or will momentarily); just mark it dead.
                    t.abandoned = True
            if live:
                return live
            if self._closed and self._queue.empty():
                return None
            # every ticket in this batch was dead — go back to waiting

    def observe_service(self, seconds: float) -> None:
        """Feed one batch's service time into the Retry-After EWMA."""
        self._service_ewma = 0.7 * self._service_ewma + 0.3 * max(
            1e-4, seconds
        )

    def drain_pending(self) -> list[Ticket]:
        """Remove and return every ticket still queued (shutdown path:
        the caller owes each one a structured refusal)."""
        pending: list[Ticket] = []
        while True:
            try:
                t = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if t is not None:
                pending.append(t)
        if self._closed:
            self._queue.put_nowait(None)  # keep the sentinel in place
        return pending

    def close(self) -> None:
        """Stop the dispatcher once the queue runs dry (idempotent)."""
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(None)

    def snapshot(self) -> dict[str, Any]:
        return {
            "depth": self.depth(),
            "capacity": self.capacity,
            "batch_max": self.batch_max,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "service_ewma_seconds": round(self._service_ewma, 6),
            "closed": self._closed,
        }
