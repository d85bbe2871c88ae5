"""Observability: the flight recorder, live metrics, and the monitor.

Zero-cost when disabled: every emit site in the engine, drivers,
chains, mempools, nodes, and adversary actors sits behind a single
``if collector is not None`` check, so a run without a collector is
byte- and time-identical to one before this package existed.  The
metrics registry and the invariant monitor consume the same event
stream as in-process sinks, so they inherit the same contract.

See :mod:`repro.obs.trace` for the event model and JSONL serde,
:mod:`repro.obs.metrics` for the label-aware registry and its
Prometheus/JSON exporters, :mod:`repro.obs.monitor` for declarative
alert rules, :mod:`repro.obs.spans` for per-swap timeline
reconstruction, :mod:`repro.obs.sampler` for windowed time-series
gauges, and ``docs/observability.md`` for the full walkthrough.
"""

from .explorer import load_trace, render_alerts, render_swap, series_csv, summarize
from .metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry, MetricsTap
from .monitor import (
    Alert,
    AtomicityRule,
    InvariantMonitor,
    MempoolSaturationRule,
    PricedOutSpikeRule,
    ReorgDepthRule,
    StallRule,
    alerts_from_events,
)
from .sampler import TimeSeriesSampler
from .spans import SwapTimeline, category_histogram, swap_ids
from .trace import CATEGORIES, TraceCollector
from .wiring import instrument

__all__ = [
    "CATEGORIES",
    "DEFAULT_LATENCY_BUCKETS",
    "Alert",
    "AtomicityRule",
    "InvariantMonitor",
    "MempoolSaturationRule",
    "MetricsRegistry",
    "MetricsTap",
    "PricedOutSpikeRule",
    "ReorgDepthRule",
    "StallRule",
    "SwapTimeline",
    "TimeSeriesSampler",
    "TraceCollector",
    "alerts_from_events",
    "category_histogram",
    "instrument",
    "load_trace",
    "render_alerts",
    "render_swap",
    "series_csv",
    "summarize",
    "swap_ids",
]
