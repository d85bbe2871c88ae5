"""Actor base class for simulation participants.

Miners, protocol participants, and witness services are all nodes: they
keep local state and schedule their own timers on the simulator.  Crash
failures flip :attr:`crashed`; a crashed node fires no timers until it
recovers.  That window is the one model of an unreachable party: there
is no message layer between nodes.
"""

from __future__ import annotations

from typing import Callable

from .simulator import Simulator


class Node:
    """A named actor attached to a simulator.

    Slotted: thousands of nodes exist in a large engine run, and the base
    attributes are fixed.  Subclasses that declare extra attributes without
    their own ``__slots__`` simply regain a ``__dict__`` — that is fine.
    """

    __slots__ = (
        "simulator",
        "name",
        "crashed",
        "_recovery_listeners",
        "collector",
    )

    def __init__(self, simulator: Simulator, name: str) -> None:
        self.simulator = simulator
        self.name = name
        self.crashed = False
        self._recovery_listeners: list[Callable[[], None]] = []
        #: Optional flight recorder (set by :func:`repro.obs.instrument`);
        #: crash/recovery windows are emitted when attached.
        self.collector = None

    # -- timers ----------------------------------------------------------------

    def after(self, delay: float, action: Callable[[], None], label: str = "") -> None:
        """Run ``action`` after ``delay`` unless this node is crashed then."""

        def guarded() -> None:
            if not self.crashed:
                action()

        self.simulator.schedule(delay, guarded, label or f"{self.name} timer")

    # -- failures ----------------------------------------------------------------

    def crash(self) -> None:
        """Crash the node: it stops firing timers."""
        if self.collector is not None and not self.crashed:
            self.collector.emit("sim", "crash", actor=self.name)
        self.crashed = True

    def recover(self) -> None:
        """Recover from a crash.

        Fires the registered recovery listeners — event-driven protocol
        drivers re-examine the world the moment their participant comes
        back, instead of polling for it.
        """
        if self.collector is not None and self.crashed:
            self.collector.emit("sim", "recover", actor=self.name)
        self.crashed = False
        for listener in list(self._recovery_listeners):
            listener()

    def add_recovery_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener`` (no args) every time this node recovers."""
        self._recovery_listeners.append(listener)

    def remove_recovery_listener(self, listener: Callable[[], None]) -> None:
        """Remove a recovery listener (no-op if absent)."""
        if listener in self._recovery_listeners:
            self._recovery_listeners.remove(listener)

    def __repr__(self) -> str:
        status = "crashed" if self.crashed else "up"
        return f"{type(self).__name__}({self.name!r}, {status})"
