"""Event-driven execution layer: many concurrent AC2Ts, one simulation."""

from .engine import (
    PROTOCOLS,
    EngineResult,
    ProtocolEntry,
    SwapEngine,
    SwapRequest,
    register_protocol,
    registered_protocols,
    unregister_protocol,
)
from .metrics import (
    EngineMetrics,
    MetricsAccumulator,
    WindowedMetrics,
    percentile,
)

__all__ = [
    "PROTOCOLS",
    "EngineMetrics",
    "EngineResult",
    "MetricsAccumulator",
    "ProtocolEntry",
    "SwapEngine",
    "SwapRequest",
    "WindowedMetrics",
    "percentile",
    "register_protocol",
    "registered_protocols",
    "unregister_protocol",
]
