"""Live metrics: a label-aware registry fed by the trace event stream.

The :class:`MetricsRegistry` holds counter, gauge, and histogram
families keyed by metric name; each family holds one sample per label
set.  Histograms use *fixed* bucket boundaries chosen at registration
time, so two runs of the same spec produce identical snapshots whatever
the worker count or completion order — the same determinism contract
every other artifact in this repository carries.

Nothing here polls the simulation.  :class:`MetricsTap` subscribes to a
:class:`~repro.obs.trace.TraceCollector` as an in-stream sink and folds
the existing PR 7 emit sites (engine launch/phase/outcome, mempool
submit/evict/RBF, chain connect/reorg, adversary launch/won/lost, the
sampler's event-queue depth gauge) into registry updates, so arming
metrics costs exactly the tracing emit path plus one dict update per
event — and *zero* when disabled, because without a collector no emit
site fires at all.

Two export surfaces:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE``, ``_bucket{le="..."}`` /
  ``_sum`` / ``_count`` for histograms), deterministically sorted.
* :meth:`MetricsRegistry.to_dict` / :meth:`from_dict` — a strict JSON
  snapshot (schema ``repro-metrics/1``): :mod:`repro.serde` records, a
  scalar and a histogram family shape chosen by the ``type`` tag, so it
  round-trips byte-exactly and rejects unknown keys like every file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .. import serde
from ..errors import MetricsError
from .trace import TraceEvent

#: Snapshot format identifier (bump on incompatible schema changes).
METRICS_SCHEMA = "repro-metrics/1"

#: Default swap-latency histogram boundaries (sim-seconds).  Fixed and
#: spec-overridable (``obs.metrics.latency_buckets``) — never derived
#: from observed data, so snapshots stay a pure function of the spec.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0,
)

#: Reorg-depth histogram boundaries (blocks abandoned).
REORG_DEPTH_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)


@serde.exact
@dataclass(frozen=True)
class _SampleRow:
    labels: dict[str, str]
    value: float


@serde.exact
@dataclass(frozen=True)
class _HistogramRow:
    labels: dict[str, str]
    buckets: tuple[int, ...]
    sum: float
    count: int


@serde.exact
@dataclass(frozen=True)
class _Family:
    name: str
    type: str
    help: str
    samples: tuple[_SampleRow, ...]


@serde.exact
@dataclass(frozen=True)
class _HistogramFamily:
    name: str
    type: str
    help: str
    buckets: tuple[float, ...]
    samples: tuple[_HistogramRow, ...]


@serde.exact
@dataclass(frozen=True)
class _Snapshot:
    metrics: tuple[Any, ...]
    schema: str = METRICS_SCHEMA


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{name}="{_escape(value)}"' for name, value in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Prometheus-style number rendering: integral floats without the
    trailing ``.0`` noise, everything else via repr (shortest round-trip)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing family of label-keyed samples."""

    kind = "counter"

    __slots__ = ("name", "help", "_samples")

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._samples: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def samples(self) -> Iterator[tuple[tuple[tuple[str, str], ...], float]]:
        return iter(sorted(self._samples.items()))


class Gauge:
    """A settable family of label-keyed samples (may go up and down)."""

    kind = "gauge"

    __slots__ = ("name", "help", "_samples")

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._samples: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._samples[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def samples(self) -> Iterator[tuple[tuple[tuple[str, str], ...], float]]:
        return iter(sorted(self._samples.items()))


class _HistogramSample:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * num_buckets
        self.sum = 0.0
        self.count = 0


class Histogram:
    """Cumulative-bucket histogram with *fixed* boundaries.

    Buckets are chosen at registration time and never adapt to the
    data, which is what makes snapshots deterministic across worker
    counts: the shape of the output depends only on the spec, the
    values only on the (deterministic) simulation.
    """

    kind = "histogram"

    __slots__ = ("name", "help", "buckets", "_samples")

    def __init__(self, name: str, help: str, buckets: Iterable[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricsError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"histogram {name!r} buckets must be strictly increasing, "
                f"got {bounds}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self._samples: dict[tuple[tuple[str, str], ...], _HistogramSample] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        sample = self._samples.get(key)
        if sample is None:
            sample = self._samples[key] = _HistogramSample(len(self.buckets))
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                sample.bucket_counts[index] += 1
        sample.sum += value
        sample.count += 1

    def samples(self) -> Iterator[tuple[tuple[tuple[str, str], ...], _HistogramSample]]:
        return iter(sorted(self._samples.items()))


class MetricsRegistry:
    """All metric families of one run, keyed by name.

    Registration is idempotent for an identical (type, help, buckets)
    signature and an error otherwise — two subsystems cannot silently
    fight over one name.
    """

    def __init__(self) -> None:
        self._families: dict[str, Counter | Gauge | Histogram] = {}

    # -- registration --------------------------------------------------------

    def counter(self, name: str, help: str) -> Counter:
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str) -> Gauge:
        return self._register(Gauge(name, help))

    def histogram(
        self, name: str, help: str, buckets: Iterable[float]
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def _register(self, family):
        existing = self._families.get(family.name)
        if existing is None:
            self._families[family.name] = family
            return family
        if (
            existing.kind != family.kind
            or existing.help != family.help
            or getattr(existing, "buckets", None) != getattr(family, "buckets", None)
        ):
            raise MetricsError(
                f"metric {family.name!r} re-registered with a different "
                f"signature ({existing.kind} vs {family.kind})"
            )
        return existing

    def families(self) -> list[Counter | Gauge | Histogram]:
        """Every family, name order (the deterministic export order)."""
        return [self._families[name] for name in sorted(self._families)]

    # -- flat scalar view (the store's queryable metric rows) ----------------

    def scalar_items(self) -> list[tuple[str, float]]:
        """Flatten to ``(key, value)`` rows for the campaign store index.

        Counters and gauges yield one row per label set
        (``name{label="value",...}``); histograms yield their ``_sum``
        and ``_count`` (per-bucket rows would swamp the index).
        """
        rows: list[tuple[str, float]] = []
        for family in self.families():
            if isinstance(family, Histogram):
                for key, sample in family.samples():
                    labels = _format_labels(key)
                    rows.append((f"{family.name}_sum{labels}", sample.sum))
                    rows.append((f"{family.name}_count{labels}", float(sample.count)))
            else:
                for key, value in family.samples():
                    rows.append((f"{family.name}{_format_labels(key)}", value))
        return rows

    # -- Prometheus text exposition ------------------------------------------

    def to_prometheus(self) -> str:
        """The text exposition format, deterministically sorted."""
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, Histogram):
                for key, sample in family.samples():
                    for bound, count in zip(family.buckets, sample.bucket_counts):
                        le = _format_labels(key, extra=f'le="{_format_value(bound)}"')
                        lines.append(f"{family.name}_bucket{le} {count}")
                    inf = _format_labels(key, extra='le="+Inf"')
                    lines.append(f"{family.name}_bucket{inf} {sample.count}")
                    labels = _format_labels(key)
                    lines.append(
                        f"{family.name}_sum{labels} {_format_value(sample.sum)}"
                    )
                    lines.append(f"{family.name}_count{labels} {sample.count}")
            else:
                for key, value in family.samples():
                    lines.append(
                        f"{family.name}{_format_labels(key)} {_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"

    # -- strict JSON snapshot ------------------------------------------------

    def to_dict(self) -> dict:
        metrics: list[Any] = []
        for family in self.families():
            if isinstance(family, Histogram):
                rows = tuple(
                    _HistogramRow(dict(key), tuple(s.bucket_counts), s.sum, s.count)
                    for key, s in family.samples()
                )
                metrics.append(
                    _HistogramFamily(
                        family.name, family.kind, family.help, family.buckets, rows
                    )
                )
            else:
                rows = tuple(_SampleRow(dict(key), value) for key, value in family.samples())
                metrics.append(_Family(family.name, family.kind, family.help, rows))
        return serde.dump(_Snapshot(tuple(metrics)))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """Strictly rebuild a registry from :meth:`to_dict` output."""
        serde.check_schema(_Snapshot, data, MetricsError, "metrics")
        snapshot = serde.load(_Snapshot, data, "snapshot", MetricsError)
        registry = cls()
        for index, entry in enumerate(snapshot.metrics):
            registry._load_family(entry, f"snapshot.metrics[{index}]")
        return registry

    def _load_family(self, entry: Any, path: str) -> None:
        kind = entry.get("type") if isinstance(entry, dict) else None
        if kind == "histogram":
            record = serde.load(_HistogramFamily, entry, path, MetricsError)
            family = self.histogram(record.name, record.help, record.buckets)
            for row in record.samples:
                if len(row.buckets) != len(family.buckets):
                    raise MetricsError(
                        f"histogram {record.name!r} sample has {len(row.buckets)} "
                        f"bucket counts for {len(family.buckets)} buckets"
                    )
                loaded = _HistogramSample(len(family.buckets))
                loaded.bucket_counts = list(row.buckets)
                loaded.sum = row.sum
                loaded.count = row.count
                family._samples[_label_key(row.labels)] = loaded
            return
        record = serde.load(_Family, entry, path, MetricsError)
        if kind == "counter":
            family = self.counter(record.name, record.help)
        elif kind == "gauge":
            family = self.gauge(record.name, record.help)
        else:
            raise MetricsError(f"{path}.type: unknown metric type {kind!r}")
        for row in record.samples:
            family._samples[_label_key(row.labels)] = row.value

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._families)} families)"


class MetricsTap:
    """Folds the trace event stream into registry updates.

    One instance per run; register :meth:`observe` as a collector sink.
    Every family the engine can ever touch is registered up front, so
    the set of families (and therefore the snapshot's shape) is a pure
    function of the spec, not of which events happened to fire.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        latency_buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.registry = registry
        r = registry
        self.swaps_launched = r.counter(
            "repro_swaps_launched_total", "Swaps handed to a protocol driver"
        )
        self.swaps_in_flight = r.gauge(
            "repro_swaps_in_flight", "Swaps launched but not yet decided"
        )
        self.swap_outcomes = r.counter(
            "repro_swap_outcomes_total", "Terminal swap decisions"
        )
        self.atomicity_violations = r.counter(
            "repro_atomicity_violations_total",
            "Swaps that settled non-atomically (the paper's failure mode)",
        )
        self.swap_latency = r.histogram(
            "repro_swap_latency_seconds",
            "Arrival-to-decision latency of finished swaps",
            buckets=latency_buckets,
        )
        self.swap_phases = r.counter(
            "repro_swap_phases_total", "Protocol phase transitions"
        )
        self.mempool_events = r.counter(
            "repro_mempool_events_total", "Mempool churn by kind"
        )
        self.mempool_pending = r.gauge(
            "repro_mempool_pending", "Messages pending per mempool"
        )
        self.fee_events = r.counter(
            "repro_fee_events_total", "Fee-market driver events by kind"
        )
        self.blocks = r.counter("repro_blocks_total", "Blocks connected per chain")
        self.chain_height = r.gauge("repro_chain_height", "Best-chain height")
        self.reorgs = r.counter("repro_reorgs_total", "Reorgs adopted per chain")
        self.reorg_depth = r.histogram(
            "repro_reorg_depth_blocks",
            "Blocks abandoned per reorg",
            buckets=REORG_DEPTH_BUCKETS,
        )
        self.sim_events = r.counter(
            "repro_sim_events_total", "Node crash/recovery events"
        )
        self.adversary_events = r.counter(
            "repro_adversary_events_total", "Adversary actor events by kind"
        )
        self.event_queue_depth = r.gauge(
            "repro_event_queue_depth",
            "Simulator events pending at the last sample",
        )
        self.alerts = r.counter(
            "repro_alerts_total", "Invariant-monitor alerts fired by rule"
        )

    def observe(self, event: TraceEvent) -> None:
        handler = getattr(self, f"_on_{event.category}", None)
        if handler is not None:
            handler(event)

    # -- per-category folds --------------------------------------------------

    def _on_swap(self, event: TraceEvent) -> None:
        payload = event.payload
        if event.kind == "launch":
            protocol = payload.get("protocol", "?")
            self.swaps_launched.inc(protocol=protocol)
            self.swaps_in_flight.inc()
        elif event.kind == "outcome":
            decision = payload.get("decision", "?")
            self.swap_outcomes.inc(decision=decision)
            self.swaps_in_flight.dec()
            if payload.get("atomic") is False:
                self.atomicity_violations.inc()
            latency = payload.get("latency")
            if latency is not None:
                self.swap_latency.observe(float(latency))
        elif event.kind == "phase":
            self.swap_phases.inc(phase=payload.get("phase", "?"))
        elif event.kind == "violation":
            # The adversary audit flipped a settled outcome after its
            # outcome event already counted as atomic.
            self.atomicity_violations.inc()

    def _on_mempool(self, event: TraceEvent) -> None:
        chain = event.chain_id or "?"
        self.mempool_events.inc(chain=chain, kind=event.kind)
        pending = event.payload.get("pending")
        if pending is not None:
            self.mempool_pending.set(float(pending), chain=chain)

    def _on_fee(self, event: TraceEvent) -> None:
        self.fee_events.inc(kind=event.kind)

    def _on_chain(self, event: TraceEvent) -> None:
        chain = event.chain_id or "?"
        if event.kind == "block":
            self.blocks.inc(chain=chain)
            height = event.payload.get("height")
            if height is not None:
                self.chain_height.set(float(height), chain=chain)
        elif event.kind == "reorg":
            self.reorgs.inc(chain=chain)
            abandoned = event.payload.get("abandoned")
            if abandoned is not None:
                self.reorg_depth.observe(float(abandoned), chain=chain)

    def _on_sim(self, event: TraceEvent) -> None:
        self.sim_events.inc(kind=event.kind)

    def _on_adversary(self, event: TraceEvent) -> None:
        self.adversary_events.inc(
            actor=event.actor or "?", kind=event.kind
        )

    def _on_sample(self, event: TraceEvent) -> None:
        depth = event.payload.get("queue_depth")
        if depth is not None:
            self.event_queue_depth.set(float(depth))

    def _on_alert(self, event: TraceEvent) -> None:
        self.alerts.inc(rule=event.kind)
