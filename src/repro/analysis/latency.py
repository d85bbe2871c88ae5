"""Section 6.1: analytical latency models.

Let Δ be enough time for any participant to publish a smart contract (or
change its state) on any chain and have the change publicly recognized.

* Herlihy's single-leader protocol: ``2 · Δ · Diam(D)`` — a sequential
  deployment phase of Diam(D) rungs followed by a sequential redemption
  phase of Diam(D) rungs (Figure 8).
* AC3WN: ``4 · Δ`` — four constant phases (witness registration,
  parallel deployment, witness state change, parallel redemption;
  Figure 9), independent of the graph.

:func:`figure10_series` regenerates Figure 10's two curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: `repro paper` never loads the drivers
    from ..core.graph import SwapGraph

#: Number of constant Δ-phases in AC3WN (Figure 9).
AC3WN_PHASES = 4


def herlihy_latency(diameter: int, delta: float = 1.0) -> float:
    """Overall AC2T latency under Herlihy's protocol: ``2·Δ·Diam(D)``."""
    if diameter < 2:
        raise ValueError("the smallest AC2T graph has diameter 2")
    return 2.0 * delta * diameter


def ac3wn_latency(diameter: int = 2, delta: float = 1.0) -> float:
    """Overall AC2T latency under AC3WN: ``4·Δ`` for any diameter."""
    if diameter < 2:
        raise ValueError("the smallest AC2T graph has diameter 2")
    return AC3WN_PHASES * delta


def latency_for_graph(graph: SwapGraph, protocol: str, delta: float = 1.0) -> float:
    """Analytical latency of ``graph`` under a named protocol."""
    diameter = graph.diameter()
    if protocol in ("herlihy", "nolan"):
        return herlihy_latency(diameter, delta)
    if protocol in ("ac3wn", "ac3tw"):
        return ac3wn_latency(diameter, delta)
    raise ValueError(f"unknown protocol {protocol!r}")


@dataclass(frozen=True)
class LatencyPoint:
    """One x-position of Figure 10."""

    diameter: int
    herlihy_deltas: float
    ac3wn_deltas: float

    @property
    def speedup(self) -> float:
        return self.herlihy_deltas / self.ac3wn_deltas


def figure10_series(max_diameter: int = 14, delta: float = 1.0) -> list[LatencyPoint]:
    """The two curves of Figure 10 for diameters 2..max_diameter."""
    return [
        LatencyPoint(
            diameter=d,
            herlihy_deltas=herlihy_latency(d, delta),
            ac3wn_deltas=ac3wn_latency(d, delta),
        )
        for d in range(2, max_diameter + 1)
    ]


def crossover_diameter() -> int:
    """The diameter at which the two protocols cost the same (2·d = 4)."""
    return 2
