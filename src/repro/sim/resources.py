"""Shared resources: capacity-limited resources, containers, stores.

These model contended entities such as CPU slots on a NameNode, NDB
transaction coordinator threads, or queues of pending work items.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

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


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._getters.append(self)
        container._trigger()


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._putters.append(self)
        container._trigger()


class Container:
    """A homogeneous bulk resource (e.g. tokens, bytes of memory)."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = init
        self._getters: Deque[ContainerGet] = deque()
        self._putters: Deque[ContainerPut] = deque()

    @property
    def level(self) -> float:
        return self._level

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and self._level + self._putters[0].amount <= self.capacity:
                put = self._putters.popleft()
                self._level += put.amount
                put.succeed()
                progressed = True
            if self._getters and self._level >= self._getters[0].amount:
                get = self._getters.popleft()
                self._level -= get.amount
                get.succeed()
                progressed = True


class StoreGet(Event):
    __slots__ = ("predicate",)

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]]) -> None:
        super().__init__(store.env)
        self.predicate = predicate
        store._getters.append(self)
        store._trigger()


class Store:
    """An unbounded FIFO queue of Python objects with blocking get."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Add an item (never blocks; the store is unbounded)."""
        self.items.append(item)
        self._trigger()

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Event that triggers with the next (matching) item."""
        return StoreGet(self, predicate)

    def _trigger(self) -> None:
        waiting: List[StoreGet] = []
        while self._getters and self.items:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            if getter.predicate is None:
                getter.succeed(self.items.popleft())
                continue
            matched = None
            for index, item in enumerate(self.items):
                if getter.predicate(item):
                    matched = index
                    break
            if matched is None:
                waiting.append(getter)
            else:
                del_item = self.items[matched]
                del self.items[matched]
                getter.succeed(del_item)
        self._getters.extendleft(reversed(waiting))
