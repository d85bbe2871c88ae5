"""Discrete-event simulation substrate: clock, events, nodes, failures."""

from .events import Event, EventQueue, TraceRecord
from .failures import CrashWindow, FailureInjector, FailureSchedule
from .node import Node
from .rng import RngRegistry, RngStream
from .simulator import Simulator

__all__ = [
    "CrashWindow",
    "Event",
    "EventQueue",
    "FailureInjector",
    "FailureSchedule",
    "Node",
    "RngRegistry",
    "RngStream",
    "Simulator",
    "TraceRecord",
]
