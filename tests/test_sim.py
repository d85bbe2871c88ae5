"""Tests for the discrete-event simulator, node timers, and failure injection."""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import EventQueue
from repro.sim.failures import FailureInjector, FailureSchedule
from repro.sim.node import Node
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        q.pop().action()
        q.pop().action()
        assert fired == ["a", "b"]

    def test_ties_broken_by_schedule_order(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append("first"))
        q.push(1.0, lambda: fired.append("second"))
        q.pop().action()
        q.pop().action()
        assert fired == ["first", "second"]

    def test_cancellation(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        event.cancel()
        assert q.pop() is None
        assert len(q) == 0

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        first.cancel()
        assert q.peek_time() == 2.0


class TestSimulator:
    def test_run_drains_queue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 3.0]
        assert sim.now == 3.0

    def test_run_until_stops_at_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until_true(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: hits.append(i))
        assert sim.run_until_true(lambda: len(hits) >= 3, timeout=100.0)
        assert len(hits) == 3

    def test_run_until_true_timeout(self):
        sim = Simulator()
        assert not sim.run_until_true(lambda: False, timeout=5.0)
        assert sim.now == 5.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_runaway_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        with pytest.raises(SchedulingError):
            sim.run(max_events=100)


class TestRng:
    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(seed=5)
        a_first = r1.stream("a").random()
        r2 = RngRegistry(seed=5)
        r2.stream("b")  # create b first this time
        a_second = r2.stream("a").random()
        assert a_first == a_second

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()

    def test_stream_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("s") is reg.stream("s")

    def test_expovariate_positive(self):
        stream = RngRegistry(0).stream("t")
        assert stream.expovariate(2.0) > 0

    def test_expovariate_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            RngRegistry(0).stream("t").expovariate(0)


class TestNodeTimers:
    def test_after_fires(self):
        sim = Simulator()
        node = Node(sim, "n")
        fired = []
        node.after(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_after_suppressed_while_crashed(self):
        sim = Simulator()
        node = Node(sim, "n")
        fired = []
        node.after(2.0, lambda: fired.append(1))
        node.crash()
        sim.run()
        assert fired == []

    def test_recovered_node_fires_new_timers(self):
        sim = Simulator()
        node = Node(sim, "n")
        fired = []
        node.crash()
        node.recover()
        node.after(1.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]


class TestFailureInjection:
    def test_crash_window(self):
        sim = Simulator()
        node = Node(sim, "victim")
        schedule = FailureSchedule().crash("victim", start=2.0, end=5.0)
        FailureInjector(sim).apply(schedule, {"victim": node})
        sim.run_until(3.0)
        assert node.crashed
        sim.run_until(6.0)
        assert not node.crashed

    def test_permanent_crash(self):
        sim = Simulator()
        node = Node(sim, "victim")
        schedule = FailureSchedule().crash("victim", start=1.0)
        FailureInjector(sim).apply(schedule, {"victim": node})
        sim.run_until(100.0)
        assert node.crashed

    def test_unknown_node_rejected_immediately(self):
        sim = Simulator()
        schedule = FailureSchedule().crash("ghost", start=1.0)
        with pytest.raises(KeyError):
            FailureInjector(sim).apply(schedule, {})

    def test_crash_window_duration(self):
        from repro.sim.failures import CrashWindow

        assert CrashWindow("n", 1.0, 4.0).duration() == 3.0
        assert CrashWindow("n", 1.0).duration() == float("inf")
