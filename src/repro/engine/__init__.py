"""Event-driven execution layer: many concurrent AC2Ts, one simulation."""

from .engine import PROTOCOLS, EngineResult, SwapEngine
from .metrics import percentile

__all__ = [
    "PROTOCOLS",
    "EngineResult",
    "SwapEngine",
    "percentile",
]
