"""Event-driven execution layer: many concurrent AC2Ts, one simulation."""

from .engine import (
    PROTOCOLS,
    EngineResult,
    SwapEngine,
    register_protocol,
    registered_protocols,
    unregister_protocol,
)
from .metrics import percentile

__all__ = [
    "PROTOCOLS",
    "EngineResult",
    "SwapEngine",
    "percentile",
    "register_protocol",
    "registered_protocols",
    "unregister_protocol",
]
