"""The discrete-event simulation loop.

The :class:`Simulator` owns the virtual clock and the event queue.  All
other subsystems (chains, miners, networks, protocol drivers, failure
injectors) schedule callbacks on it.  Time is a float in abstract
"seconds"; nothing in the library depends on wall-clock time.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SchedulingError
from .events import Event, EventQueue
from .rng import RngRegistry, RngStream


class Simulator:
    """A deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator(seed=7)
        >>> fired = []
        >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5.0]
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self._queue = EventQueue()
        self._events_processed = 0

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay:.3f}s in the past")
        return self._queue.push(self.now + delay, action, label)

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at an absolute simulation time."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time:.3f}, current time is {self.now:.3f}"
            )
        return self._queue.push(time, action, label)

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Run the single earliest event. Returns False if queue was empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SchedulingError("event queue returned an event from the past")
        self.now = event.time
        self._events_processed += 1
        event.action()
        return True

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue drains. Returns events processed."""
        processed = 0
        while processed < max_events and self.step():
            processed += 1
        if processed >= max_events:
            raise SchedulingError(f"simulation exceeded {max_events} events")
        return processed

    def run_until(self, time: float, max_events: int = 10_000_000) -> int:
        """Run events with time <= ``time``; advances clock to ``time``.

        Events scheduled after ``time`` stay queued, so the simulation can
        be resumed with further ``run_until`` / ``run`` calls.
        """
        processed = 0
        while processed < max_events:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > time:
                break
            self.step()
            processed += 1
        if processed >= max_events:
            raise SchedulingError(f"simulation exceeded {max_events} events")
        if time > self.now:
            self.now = time
        return processed

    def run_until_idle(
        self,
        max_wall_s: float | None = None,
        max_events: int = 10_000_000,
    ) -> tuple[str, int]:
        """Run until the queue drains, with wall-clock and event guards.

        The open-ended-session counterpart of :meth:`run`: instead of
        raising when a guard trips, it returns ``(reason, processed)``
        where ``reason`` is ``"idle"`` (queue empty), ``"events"``
        (``max_events`` executed), or ``"wall"`` (``max_wall_s`` of real
        time elapsed) — so a service session can surface a stalled event
        loop as an observable condition rather than an exception.

        The wall-clock guard is checked every 1024 events to keep the
        hot loop syscall-free; it exists to bound *pathological* spins
        (a healthy session always ends via ``"idle"`` or ``"events"``,
        both of which are deterministic).
        """
        import time as _time

        start = _time.monotonic() if max_wall_s is not None else 0.0
        processed = 0
        while True:
            if processed >= max_events:
                return ("events", processed)
            if (
                max_wall_s is not None
                and processed % 1024 == 0
                and _time.monotonic() - start >= max_wall_s
            ):
                return ("wall", processed)
            if not self.step():
                return ("idle", processed)
            processed += 1

    def run_until_true(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int = 10_000_000,
    ) -> bool:
        """Run until ``predicate()`` holds or ``timeout`` is reached.

        Returns True iff the predicate became true.  The predicate is
        checked once per simulation *timestamp* — after all events at a
        given time have fired — so it may inspect any simulation state
        without paying a per-event re-evaluation cost on hot loops.
        The queue's next-event time is peeked exactly once per event and
        reused for both the deadline check and the new-timestamp check.
        """
        deadline = self.now + timeout
        if predicate():
            return True
        processed = 0
        next_time = self._queue.peek_time()
        while next_time is not None and next_time <= deadline:
            if processed >= max_events:
                raise SchedulingError(f"simulation exceeded {max_events} events")
            self.step()
            processed += 1
            next_time = self._queue.peek_time()
            # Only re-check once the batch of events at self.now is done:
            # the next event (if any) sits at a strictly later timestamp.
            if (next_time is None or next_time > self.now) and predicate():
                return True
        if deadline > self.now:
            self.now = deadline
        return predicate()

    # -- utilities -----------------------------------------------------------

    def stream(self, name: str) -> RngStream:
        """Named deterministic RNG stream (see :mod:`repro.sim.rng`)."""
        return self.rng.stream(name)

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total events executed so far."""
        return self._events_processed

    def close(self) -> None:
        """End this simulation: no pending event fires any more (see
        :meth:`EventQueue.close`); :meth:`queue_stats` is unchanged."""
        self._queue.close()

    def queue_stats(self) -> dict:
        """Event-loop statistics: processed count plus the queue's
        lifetime counters (cancellations, pool reuse, compactions)."""
        return {"events_processed": self._events_processed, **self._queue.stats()}
