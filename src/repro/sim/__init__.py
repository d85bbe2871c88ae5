"""Discrete-event simulation substrate: clock, events, nodes, failures."""

from .simulator import Simulator

__all__ = [
    "Simulator",
]
