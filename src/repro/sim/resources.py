"""Shared-resource primitives: stores, priority stores, and capacity resources.

These are the coordination points between simulation processes: mailboxes
between clients / orderer / peers are :class:`Store` instances, the orderer's
pending-transaction pool is a :class:`Store`, and peers model their single
commit thread with a :class:`Resource` of capacity one.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires when the item is stored."""

    __slots__ = ("item",)

    def __init__(self, env: "Environment", item: Any) -> None:
        super().__init__(env)
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the retrieved item."""

    __slots__ = ()


class Store:
    """An unbounded-or-bounded FIFO buffer between processes."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()
        self._putters: deque[StorePut] = deque()

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of buffered items (oldest first)."""

        return tuple(self._items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)

    # -- operations ------------------------------------------------------------

    def put(self, item: Any) -> StorePut:
        event = StorePut(self.env, item)
        self._putters.append(event)
        self._service()
        return event

    def get(self) -> StoreGet:
        event = StoreGet(self.env)
        self._getters.append(event)
        self._service()
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop an item if one is buffered, else ``None``."""

        if self._items:
            item = self._pop_item()
            self._service()
            return item
        return None

    # -- internals ------------------------------------------------------------

    def _store_item(self, item: Any) -> None:
        self._items.append(item)

    def _pop_item(self) -> Any:
        return self._items.popleft()

    def _service(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self._items) < self.capacity:
                put_event = self._putters.popleft()
                self._store_item(put_event.item)
                put_event.succeed()
                progressed = True
            while self._getters and self._items:
                get_event = self._getters.popleft()
                get_event.succeed(self._pop_item())
                progressed = True


class PriorityStore(Store):
    """A store that releases the smallest item first.

    Items must be orderable; wrap them in ``(priority, seq, payload)`` tuples
    if the payload itself is not comparable.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self._heap: list[Any] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> tuple[Any, ...]:
        return tuple(sorted(self._heap))

    def _store_item(self, item: Any) -> None:
        heapq.heappush(self._heap, item)

    def _pop_item(self) -> Any:
        return heapq.heappop(self._heap)

    def _service(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self._heap) < self.capacity:
                put_event = self._putters.popleft()
                self._store_item(put_event.item)
                put_event.succeed()
                progressed = True
            while self._getters and self._heap:
                get_event = self._getters.popleft()
                get_event.succeed(self._pop_item())
                progressed = True


class FilterStore(Store):
    """A store whose getters can demand items matching a predicate."""

    def get(self, predicate: Callable[[Any], bool] | None = None) -> StoreGet:  # type: ignore[override]
        event = StoreGet(self.env)
        event_filter = predicate if predicate is not None else (lambda _item: True)
        self._getters.append((event, event_filter))  # type: ignore[arg-type]
        self._service()
        return event

    def _service(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self._items) < self.capacity:
                put_event = self._putters.popleft()
                self._items.append(put_event.item)
                put_event.succeed()
                progressed = True
            for waiter in list(self._getters):
                event, predicate = waiter  # type: ignore[misc]
                for item in self._items:
                    if predicate(item):
                        self._items.remove(item)
                        self._getters.remove(waiter)  # type: ignore[arg-type]
                        event.succeed(item)
                        progressed = True
                        break


class ResourceRequest(Event):
    """Event returned by :meth:`Resource.request`; fires when granted."""

    __slots__ = ("resource",)

    def __init__(self, env: "Environment", resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource

    @property
    def value(self) -> "ResourceRequest":
        """The request itself, once granted (what ``with (yield ...)`` binds).

        Computed, not stored: a request holding itself as its value would be
        a reference cycle, and garbage only a collection could free.
        """

        Event.value.fget(self)  # raises while still pending
        return self

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A capacity-limited resource with FIFO granting.

    Usage::

        with (yield resource.request()) :  # inside a process
            yield env.timeout(service_time)
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: set[ResourceRequest] = set()
        self._queue: deque[ResourceRequest] = deque()

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> ResourceRequest:
        event = ResourceRequest(self.env, self)
        self._queue.append(event)
        self._grant()
        return event

    def release(self, request: ResourceRequest) -> None:
        if request in self._users:
            self._users.remove(request)
        else:
            try:
                self._queue.remove(request)  # cancelled before being granted
            except ValueError:
                pass
        self._grant()

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            request = self._queue.popleft()
            self._users.add(request)
            request.succeed()
