"""Shared resources: capacity-limited resources.

These model contended entities such as CPU slots on a NameNode or NDB
transaction coordinator threads.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Request(Event):
    """A pending request for one unit of a :class:`Resource`.

    Usable as a context manager so the unit is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        if not self.triggered:
            try:
                self.resource._queue.remove(self)
            except ValueError:
                pass


class Resource:
    """A resource with finite capacity and FIFO queuing."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of units currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._queue)

    def request(self) -> Request:
        """Request one unit of this resource."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Release a previously granted unit (no-op if never granted)."""
        try:
            self._users.remove(request)
        except ValueError:
            request.cancel()
            return
        self._trigger()

    def _trigger(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            request = self._queue.popleft()
            self._users.append(request)
            request.succeed()
