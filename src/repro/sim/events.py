"""Event records and the simulator's priority queue.

Events are ordered by (time, sequence-number) so that simultaneous events
fire in scheduling order, which keeps runs deterministic.

The queue is built for the engine's hot path — hundreds of thousands of
schedule/cancel pairs from protocol-driver deadline timers:

* :class:`Event` is a ``__slots__`` class (no per-event ``__dict__``).
* ``cancel`` is O(1): it flags the event and bumps the queue's
  cancelled counter; nothing is sifted out of the heap at cancel time.
* ``__len__`` is O(1) (heap size minus cancelled-in-heap counter).
* When cancelled entries outnumber live ones the queue *compacts* —
  one linear filter plus ``heapify`` — so dead timeout events never pay
  per-event ``heappop`` churn on the way out.
* Cancelled events recovered by the queue are pooled and reused by
  later ``push`` calls.  A handle is therefore dead once its event has
  fired or been cancelled: keep no references past that point.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

from ..errors import SchedulingError

#: Upper bound on pooled Event objects kept for reuse.
_POOL_MAX = 256
#: Compaction threshold: never compact below this many cancelled entries
#: (tiny heaps aren't worth the heapify).
_COMPACT_MIN = 64


class Event:
    """A scheduled callback.

    Attributes:
        time: simulation time at which the callback fires.
        seq: tie-breaker preserving scheduling order at equal times.
        action: zero-argument callable to invoke.
        label: human-readable description for traces.
        cancelled: set via :meth:`cancel`; cancelled events are skipped.
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled", "_queue", "_in_heap")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        queue: "EventQueue | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        self._queue = queue
        self._in_heap = False

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Prevent the event from firing (O(1); lazy deletion in the heap)."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue.cancelled_total += 1
                if self._in_heap:
                    self._queue._note_cancelled()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, seq={self.seq}{state})"


class EventQueue:
    """A min-heap of :class:`Event` objects with O(1) lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._cancelled_in_heap = 0
        self._pool: list[Event] = []
        #: Lifetime observability counters (see :meth:`stats`).
        self.cancelled_total = 0
        self.pool_reuses = 0
        self.compactions = 0
        self.max_pending = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled_in_heap

    def stats(self) -> dict:
        """Lifetime queue statistics, for the CLI's ``--profile`` report."""
        return {
            "pending": len(self),
            "max_pending": self.max_pending,
            "cancelled": self.cancelled_total,
            "cancelled_in_heap": self._cancelled_in_heap,
            "pool_reuses": self.pool_reuses,
            "pool_size": len(self._pool),
            "compactions": self.compactions,
        }

    def push(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute ``time`` and return its handle."""
        if time != time:  # NaN guard
            raise SchedulingError("event time must not be NaN")
        if self._pool:
            event = self._pool.pop()
            self.pool_reuses += 1
            event.time = time
            event.seq = next(self._counter)
            event.action = action
            event.label = label
            event.cancelled = False
        else:
            event = Event(time, next(self._counter), action, label, queue=self)
        event._in_heap = True
        heapq.heappush(self._heap, event)
        depth = len(self._heap) - self._cancelled_in_heap
        if depth > self.max_pending:
            self.max_pending = depth
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest non-cancelled event, or None."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            event._in_heap = False
            if event.cancelled:
                self._cancelled_in_heap -= 1
                self._recycle(event)
                continue
            return event
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest pending event without removing it."""
        heap = self._heap
        while heap and heap[0].cancelled:
            event = heapq.heappop(heap)
            event._in_heap = False
            self._cancelled_in_heap -= 1
            self._recycle(event)
        return heap[0].time if heap else None

    # -- internal ----------------------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        # Compact once dead entries dominate: one O(n) filter + heapify
        # replaces n log n of lazy heappop churn.
        if (
            self._cancelled_in_heap >= _COMPACT_MIN
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        self.compactions += 1
        live: list[Event] = []
        for event in self._heap:
            if event.cancelled:
                event._in_heap = False
                self._recycle(event)
            else:
                live.append(event)
        heapq.heapify(live)
        self._heap = live
        self._cancelled_in_heap = 0

    def _recycle(self, event: Event) -> None:
        if len(self._pool) < _POOL_MAX:
            event.action = _noop  # drop the closure so it can be collected
            self._pool.append(event)


def _noop() -> None:  # pragma: no cover - placeholder for pooled events
    pass


@dataclass(frozen=True)
class TraceRecord:
    """One entry of the simulator's execution trace (for debugging/tests)."""

    time: float
    label: str
