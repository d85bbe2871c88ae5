"""Tests for the slotted, pooling :class:`~repro.sim.events.EventQueue`.

The engine schedules and cancels hundreds of thousands of deadline
timers per run, so the queue uses lazy O(1) cancellation, heap
compaction once dead entries dominate, and an object pool for recovered
events.  These tests pin the observable contract (cancelled events never
fire, ordering and length stay exact) and the structural guarantees the
hot path depends on (no heap churn at cancel time, bounded pool,
compaction actually shrinking the heap).
"""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import _COMPACT_MIN, _POOL_MAX, EventQueue


def drain(queue):
    events = []
    while (event := queue.pop()) is not None:
        events.append(event)
    return events


class TestCancellationContract:
    def test_cancelled_events_never_surface(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None, label=str(i)) for i in range(10)]
        for handle in handles[::2]:
            handle.cancel()
        labels = [event.label for event in drain(queue)]
        assert labels == ["1", "3", "5", "7", "9"]

    def test_len_counts_only_live_events(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(6)]
        assert len(queue) == 6
        handles[0].cancel()
        handles[3].cancel()
        assert len(queue) == 4
        handles[3].cancel()  # double-cancel is a no-op
        assert len(queue) == 4
        drain(queue)
        assert len(queue) == 0

    def test_cancel_does_not_touch_the_heap(self):
        """Cancellation is lazy: the entry stays in place, only counters move."""
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(8)]
        heap_before = list(queue._heap)
        handles[5].cancel()
        assert queue._heap == heap_before
        assert queue._cancelled_in_heap == 1

    def test_peek_time_skips_cancelled_head(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0

    def test_peek_time_of_an_empty_or_all_cancelled_queue(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(1.0, lambda: None).cancel()
        assert queue.peek_time() is None
        assert queue._cancelled_in_heap == 0 and len(queue) == 0

    def test_stats_count_cancellations_and_peak_depth(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(4)]
        handles[0].cancel()
        handles[0].cancel()  # a second cancel is not counted again
        handles[2].cancel()
        stats = queue.stats()
        assert stats["pending"] == 2 and stats["max_pending"] == 4
        assert stats["cancelled"] == 2 and stats["cancelled_in_heap"] == 2
        drain(queue)
        stats = queue.stats()
        assert stats["pending"] == 0 and stats["cancelled_in_heap"] == 0
        assert stats["pool_size"] == 2 and stats["compactions"] == 0

    def test_cancel_after_pop_is_harmless(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is handle
        handle.cancel()  # already out of the heap: counter must not move
        assert queue._cancelled_in_heap == 0
        assert len(queue) == 1


class TestOrdering:
    def test_time_then_sequence_order(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None, label="late")
        queue.push(1.0, lambda: None, label="a")
        queue.push(1.0, lambda: None, label="b")
        assert [event.label for event in drain(queue)] == ["a", "b", "late"]

    def test_order_preserved_through_pooled_reuse(self):
        """Recycled Event objects get fresh (time, seq) and sort correctly."""
        queue = EventQueue()
        stale = [queue.push(0.5, lambda: None) for _ in range(4)]
        for handle in stale:
            handle.cancel()
        assert queue.pop() is None  # recovers the cancelled events into the pool
        queue.push(3.0, lambda: None, label="z")
        queue.push(1.0, lambda: None, label="x")
        queue.push(2.0, lambda: None, label="y")
        assert [event.label for event in drain(queue)] == ["x", "y", "z"]

    def test_nan_time_rejected(self):
        with pytest.raises(SchedulingError):
            EventQueue().push(float("nan"), lambda: None)


class TestCompactionAndPooling:
    def test_mass_cancellation_compacts_the_heap(self):
        """Once dead entries dominate, one compaction evicts them all."""
        queue = EventQueue()
        doomed = [queue.push(float(i), lambda: None) for i in range(2 * _COMPACT_MIN)]
        survivor = queue.push(999.0, lambda: None, label="keep")
        for handle in doomed:
            handle.cancel()
        # A compaction fired once dead entries outnumbered live ones, so
        # the heap is far smaller than the number of events pushed;
        # stragglers cancelled after it stay lazy below the threshold.
        assert len(queue._heap) <= _COMPACT_MIN
        assert len(queue._heap) < 2 * _COMPACT_MIN + 1
        assert len(queue) == 1
        assert queue.pop() is survivor

    def test_small_cancel_counts_stay_lazy(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(_COMPACT_MIN)]
        for handle in handles[: _COMPACT_MIN - 1]:
            handle.cancel()
        # Below the threshold nothing compacts; entries wait for pop().
        assert queue._cancelled_in_heap == _COMPACT_MIN - 1
        assert len(queue._heap) == _COMPACT_MIN

    def test_pool_is_bounded(self):
        queue = EventQueue()
        handles = [
            queue.push(float(i), lambda: None) for i in range(2 * _POOL_MAX + 50)
        ]
        for handle in handles:
            handle.cancel()
        assert queue.pop() is None
        assert len(queue._pool) <= _POOL_MAX

    def test_pooled_event_reused_by_push(self):
        queue = EventQueue()
        stale = queue.push(1.0, lambda: None, label="old")
        stale.cancel()
        assert queue.pop() is None
        fresh = queue.push(2.0, lambda: None, label="new")
        assert fresh is stale  # same object, recycled
        assert fresh.label == "new"
        assert not fresh.cancelled
        popped = queue.pop()
        assert popped is fresh
        assert popped.time == 2.0

    def test_fired_events_are_not_pooled(self):
        """Only events the queue recovers as cancelled are reused —
        a fired event may still be referenced by the simulator."""
        queue = EventQueue()
        fired = queue.push(1.0, lambda: None)
        assert queue.pop() is fired
        assert fired not in queue._pool

    def test_events_have_no_dict(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        with pytest.raises(AttributeError):
            event.arbitrary_attribute = 1
