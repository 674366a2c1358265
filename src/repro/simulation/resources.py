"""Capacity-limited resources for the simulation kernel.

:class:`Resource` models mutual exclusion with FIFO queueing — used for
the shared Ethernet bus and per-host network interfaces.  Requests are
events; the canonical usage inside a simulated process is::

    req = bus.request(transmit_time)
    try:
        yield req
    finally:
        bus.release(req)

or, equivalently, ``yield from bus.use(transmit_time)``.  The request
fires ``transmit_time`` after the grant: the hold is scheduled at the
moment the resource is granted (inside :meth:`Resource.request` when it
is free, inside the :meth:`Resource.release` that hands it over
otherwise), so a hold costs one engine event.  ``request()`` with no
delay fires at the grant.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from .engine import PRIORITY_NORMAL, Environment, Event
from .errors import ScheduleInPastError, SimulationError

__all__ = ["Resource"]


class _Request(Event):
    # ``queued_at``: when a request that had to wait joined the queue.
    __slots__ = ("delay", "queued_at")


class Resource:
    """A FIFO resource with integer capacity (default: mutual exclusion)."""

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[_Request] = set()
        self._waiting: deque[_Request] = deque()
        # -- statistics (for contention analysis / tests) -----------------
        self.total_requests = 0
        self.total_wait_time = 0.0

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, delay: float = 0.0) -> Event:
        """Return an event that fires ``delay`` seconds after the grant.

        The caller holds the resource from the grant until it calls
        :meth:`release`; with a ``delay`` the event marks the end of the
        hold, so the grant itself needs no event of its own.
        """
        if delay < 0:
            raise ScheduleInPastError(self.env.now, self.env.now + delay)
        req = _Request(self.env)
        req.delay = delay
        self.total_requests += 1
        if len(self._users) < self.capacity:
            # Granted at once: zero wait, nothing to stamp — this is the
            # overwhelmingly common case on the hot path.
            self._users.add(req)
            self._grant(req)
        else:
            req.queued_at = self.env.now
            self._waiting.append(req)
        return req

    def release(self, request: Event) -> None:
        """Release a previously granted request."""
        if request in self._users:
            self._users.remove(request)
        else:
            # Allow cancelling a queued request.
            try:
                self._waiting.remove(request)  # type: ignore[arg-type]
                return
            except ValueError:
                raise SimulationError("release of a request that was never granted")
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            self.total_wait_time += self.env.now - nxt.queued_at
            self._grant(nxt)

    def _grant(self, req: _Request) -> None:
        # Scheduled at the grant, so holds take their sequence numbers
        # in grant order and equal-time holds fire in that order.
        req._value = None
        self.env._schedule(req, PRIORITY_NORMAL, req.delay)

    def use(self, hold_time: float) -> Generator[Event, None, None]:
        """Acquire, hold for ``hold_time`` simulated seconds, release.

        The request is released (or, still queued, cancelled) however
        the wait ends — also when the calling process is stopped.
        """
        req = self.request(hold_time)
        try:
            yield req
        finally:
            self.release(req)
