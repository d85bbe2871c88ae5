"""The trace timeline explorer behind ``repro trace`` / ``repro alerts``.

Pure functions from a parsed trace to text: a run summary (header info
plus a category/kind histogram and per-swap decisions), a per-swap span
timeline (:meth:`SwapTimeline.render`), the sampler's windowed series
as CSV (alert-annotated when the trace carries ``alert`` events), and
the invariant-monitor alert log.  The CLI stays a thin shell over these
so tests can exercise the rendering directly.
"""

from __future__ import annotations

from typing import Iterable

from .. import serde
from ..errors import TraceError
from .monitor import alerts_from_events
from .spans import SwapTimeline, category_histogram, swap_ids
from .trace import TraceCollector, TraceEvent


def load_trace(path: str) -> TraceCollector:
    """Read and strictly validate a JSONL trace file; a missing, binary
    or malformed one is a :class:`~repro.errors.TraceError`."""
    return TraceCollector.from_jsonl(serde.read_text(path, TraceError, "trace"))


def summarize(collector: TraceCollector) -> str:
    """The default ``repro trace FILE`` view."""
    events = collector.events()
    lines = [
        f"trace: {len(events)} events"
        + (f" ({collector.dropped} dropped by ring)" if collector.dropped else "")
        + f", categories: {','.join(sorted(collector.categories))}"
    ]
    if events:
        lines.append(f"time span: {events[0].time:.3f} → {events[-1].time:.3f}")
    histogram = category_histogram(events)
    if histogram:
        lines.append("events by category/kind:")
        width = max(len(f"{cat}/{kind}") for cat, kind in histogram)
        for (cat, kind), count in sorted(histogram.items()):
            lines.append(f"  {f'{cat}/{kind}':<{width}}  {count}")
    ids = swap_ids(events)
    if ids:
        lines.append(f"swaps: {len(ids)} (ids {ids[0]}..{ids[-1]})")
        outcomes = _outcome_index(events)
        attacked = [
            swap
            for swap in ids
            if any(
                e.category == "adversary" for e in events if e.swap_id == swap
            )
        ]
        decisions: dict[str, int] = {}
        for swap in ids:
            outcome = outcomes.get(swap)
            decision = outcome.payload.get("decision", "?") if outcome else "unfinished"
            decisions[decision] = decisions.get(decision, 0) + 1
        lines.append(
            "decisions: "
            + " ".join(f"{k}={v}" for k, v in sorted(decisions.items()))
        )
        if attacked:
            lines.append(
                f"attacked swaps: {', '.join(str(s) for s in attacked)}"
                "  (render one with --swap ID)"
            )
    samples = sum(1 for e in events if e.category == "sample")
    if samples:
        lines.append(f"samples: {samples} (export the series with --series PATH)")
    alerts = sum(1 for e in events if e.category == "alert")
    if alerts:
        by_rule: dict[str, int] = {}
        for e in events:
            if e.category == "alert":
                by_rule[e.kind] = by_rule.get(e.kind, 0) + 1
        lines.append(
            f"alerts: {alerts} ("
            + " ".join(f"{k}={v}" for k, v in sorted(by_rule.items()))
            + ")  (list them with 'repro alerts FILE')"
        )
    return "\n".join(lines)


def render_alerts(collector: TraceCollector) -> str:
    """The ``repro alerts FILE`` view: every monitor firing, in order."""
    alerts = alerts_from_events(collector.events())
    if not alerts:
        return "no alerts recorded in this trace\n"
    lines = [alert.render() for alert in alerts]
    by_rule: dict[str, int] = {}
    for alert in alerts:
        by_rule[alert.rule] = by_rule.get(alert.rule, 0) + 1
    lines.append(
        f"{len(alerts)} alert(s): "
        + " ".join(f"{k}={v}" for k, v in sorted(by_rule.items()))
    )
    return "\n".join(lines) + "\n"


def render_swap(collector: TraceCollector, swap_id: int) -> str:
    """The ``repro trace FILE --swap ID`` view."""
    return SwapTimeline.from_events(collector.events(), swap_id).render()


def series_csv(events: Iterable[TraceEvent]) -> str:
    """Flatten ``sample/gauges`` events into a CSV table.

    Scalar gauges become columns directly; dict-valued gauges (mempool
    depth, height, reorgs) fan out into one ``gauge.chain`` column per
    chain.  Columns are the union over all samples, sorted, with ``t``
    first; missing values render empty.

    When the trace carries ``alert`` events (the invariant monitor was
    on), two annotation columns are appended: ``alerts`` counts the
    firings inside each sample window (``prev_t < time <= t``) and
    ``alert_rules`` names their rules, so the windows where something
    went wrong are visible right inside the series.
    """
    events = list(events)
    samples = [e for e in events if e.category == "sample"]
    alert_events = [e for e in events if e.category == "alert"]
    rows: list[dict[str, object]] = []
    columns: set[str] = set()
    previous_t = float("-inf")
    for event in samples:
        row: dict[str, object] = {"t": event.time}
        for gauge, value in event.payload.items():
            if isinstance(value, dict):
                for chain_id, inner in value.items():
                    row[f"{gauge}.{chain_id}"] = inner
            else:
                row[gauge] = value
        if alert_events:
            window = [
                a for a in alert_events if previous_t < a.time <= event.time
            ]
            row["alerts"] = len(window)
            row["alert_rules"] = ";".join(
                sorted({a.kind for a in window})
            )
        previous_t = event.time
        columns.update(row)
        rows.append(row)
    ordered = ["t"] + sorted(columns - {"t"})
    lines = [serde.csv_line(ordered)]
    for row in rows:
        lines.append(serde.csv_line(_csv_cell(row.get(column)) for column in ordered))
    return "\n".join(lines) + "\n"


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _outcome_index(events: Iterable[TraceEvent]) -> dict[int, TraceEvent]:
    index: dict[int, TraceEvent] = {}
    for event in events:
        if event.category == "swap" and event.kind == "outcome":
            if event.swap_id is not None:
                index[event.swap_id] = event
    return index
