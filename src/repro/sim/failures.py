"""Failure injection: scheduled crashes and recoveries.

Experiment E7 (the paper's Section 1 motivation) crashes a participant at
a chosen protocol step and observes whether the commitment protocol
preserves all-or-nothing atomicity.  The injectors here make such
schedules declarative and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .node import Node
from .simulator import Simulator


@dataclass(frozen=True)
class CrashWindow:
    """Crash a node at ``start`` and (optionally) recover at ``end``."""

    node_name: str
    start: float
    end: float | None = None  # None = never recovers


@dataclass
class FailureSchedule:
    """A declarative set of crash windows."""

    crashes: list[CrashWindow] = field(default_factory=list)

    def crash(self, node_name: str, start: float, end: float | None = None) -> "FailureSchedule":
        """Add a crash window (fluent)."""
        self.crashes.append(CrashWindow(node_name, start, end))
        return self


class FailureInjector:
    """Applies a :class:`FailureSchedule` to live nodes."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.applied: list[str] = []

    def apply(self, schedule: FailureSchedule, nodes: dict[str, Node]) -> None:
        """Schedule every crash in ``schedule``.

        ``nodes`` maps node names to node objects; unknown names raise
        KeyError immediately rather than mid-simulation.
        """
        for window in schedule.crashes:
            node = nodes[window.node_name]
            self._schedule_crash(node, window)

    def _schedule_crash(self, node: Node, window: CrashWindow) -> None:
        def do_crash() -> None:
            node.crash()
            self.applied.append(f"crash {node.name} @ {self.simulator.now:.3f}")

        # Windows starting in the past take effect immediately, so
        # schedules can be written relative to "the beginning" even after
        # a warm-up advanced the clock.
        start = max(window.start, self.simulator.now)
        self.simulator.schedule_at(start, do_crash, label=f"crash {node.name}")
        if window.end is not None:
            end = max(window.end, start)

            def do_recover() -> None:
                node.recover()
                self.applied.append(f"recover {node.name} @ {self.simulator.now:.3f}")

            self.simulator.schedule_at(end, do_recover, label=f"recover {node.name}")
