"""Online invariant monitoring: declarative alert rules over the stream.

Where the flight recorder explains a run *after* it finishes, the
:class:`InvariantMonitor` watches it *while it runs*: it subscribes to a
:class:`~repro.obs.trace.TraceCollector` as an in-stream sink and
evaluates a fixed set of rules against every event.  When a rule fires
it produces an ordered :class:`Alert` record three ways at once:

* appended to :attr:`InvariantMonitor.alerts` (exported into the result
  artifact as ``reports.alerts``),
* emitted back into the trace as an ``alert/<rule>`` event (so the
  explorer and the ``--series`` CSV can line alerts up with the
  timeline),
* optionally written to a real-time stream (``repro run`` wires stderr
  when ``obs.monitor.stderr`` is set).

Rules are deterministic functions of the event stream, so the alert
list — like every other artifact — is a pure function of the spec.
Alert ordering follows the triggering events' (time, seq) order.

The built-in rules (armed from ``obs.monitor.rules``):

* **atomicity** — a swap settled non-atomically (the paper's failure
  mode; severity ``critical``).
* **reorg_depth** — a reorg abandoned at least N blocks (default: the
  spec's confirmation depth — the depth-d defense was breached).
* **stall** — a swap went longer than ``stall_multiple`` base deadlines
  without a phase transition (checked on block connects, so the scan
  cost is bounded by block cadence).
* **mempool_saturation** — a mempool's pending depth crossed a
  threshold (with hysteresis: re-arms when it drains below).
* **priced_out_spike** — the priced-out share of recent outcomes
  crossed a rate threshold inside a trailing window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .. import serde
from .trace import TraceCollector, TraceEvent


@dataclass(slots=True, repr=False)
class Alert:
    """One rule firing, anchored to the event that triggered it."""

    index: int
    time: float
    rule: str
    severity: str
    message: str
    swap_id: int | None = None
    chain_id: str | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return serde.dump(self)

    def render(self) -> str:
        """One human-readable line (the real-time stderr shape)."""
        who = f" swap={self.swap_id}" if self.swap_id is not None else ""
        where = f" chain={self.chain_id}" if self.chain_id is not None else ""
        return (
            f"ALERT t={self.time:.3f} [{self.rule}/{self.severity}]"
            f"{who}{where}: {self.message}"
        )

    def __repr__(self) -> str:
        return f"Alert(#{self.index} {self.render()})"


class Rule:
    """Base rule: subclasses react to events via ``observe``."""

    name = "rule"
    severity = "warning"

    def observe(self, event: TraceEvent, monitor: "InvariantMonitor") -> None:
        raise NotImplementedError


class AtomicityRule(Rule):
    """A swap settled non-atomically — the invariant the whole paper
    exists to protect just broke.

    Two triggers cover both ways a violation becomes visible: a
    ``swap/outcome`` event carrying ``atomic=False`` (the drivers saw
    the mixed settlement directly), and a ``swap/violation`` event (the
    adversary audit re-derived final states from chain truth and found
    a won fork had rewritten a settlement *after* its outcome event was
    emitted)."""

    name = "atomicity"
    severity = "critical"

    def observe(self, event: TraceEvent, monitor: "InvariantMonitor") -> None:
        if event.category != "swap":
            return
        if event.kind == "outcome":
            if event.payload.get("atomic") is not False:
                return
            monitor.fire(
                self,
                event,
                message=(
                    f"swap {event.swap_id} settled non-atomically "
                    f"(decision {event.payload.get('decision', '?')!r})"
                ),
                decision=event.payload.get("decision"),
            )
        elif event.kind == "violation":
            monitor.fire(
                self,
                event,
                message=(
                    f"swap {event.swap_id} settlement rewritten "
                    f"non-atomic by a won fork "
                    f"(decision {event.payload.get('decision', '?')!r}, "
                    f"{event.payload.get('rewritten', '?')} contract(s) "
                    "flipped)"
                ),
                decision=event.payload.get("decision"),
                rewritten=event.payload.get("rewritten"),
            )


class ReorgDepthRule(Rule):
    """A settled-history rewrite at or beyond the policy depth.

    Fires on *realized* reorgs (``chain/reorg`` abandoning at least
    ``threshold`` blocks — the depth-d defense was actually breached)
    and on *attempted* ones (``adversary/launch`` whose private fork
    contends a public lead of at least ``threshold`` blocks): a live
    operator wants the alarm when a hostile fork deep enough to rewrite
    policy-confirmed history is observed, whether or not the attacker's
    budget ultimately holds out."""

    name = "reorg_depth"

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold

    def observe(self, event: TraceEvent, monitor: "InvariantMonitor") -> None:
        if event.category == "chain" and event.kind == "reorg":
            abandoned = event.payload.get("abandoned", 0)
            if abandoned < self.threshold:
                return
            monitor.fire(
                self,
                event,
                message=(
                    f"reorg on {event.chain_id!r} abandoned {abandoned} "
                    f"block(s) (policy depth {self.threshold})"
                ),
                abandoned=abandoned,
                threshold=self.threshold,
            )
        elif event.category == "adversary" and event.kind == "launch":
            lead = event.payload.get("public_lead")
            if lead is None or lead < self.threshold:
                return
            monitor.fire(
                self,
                event,
                message=(
                    f"hostile fork on {event.chain_id!r} contends "
                    f"{lead} policy-confirmed block(s) "
                    f"(policy depth {self.threshold})"
                ),
                public_lead=lead,
                threshold=self.threshold,
                attempted=True,
            )


class StallRule(Rule):
    """A swap made no phase progress for longer than the deadline budget.

    ``deadline`` is the resolved base budget in sim-seconds (the spec's
    slowest block interval × confirmation depth × the configured
    multiple).  Progress is tracked from launch and phase events;
    the check runs on block connects so its cost scales with block
    cadence, not event volume.  Each swap alerts at most once.
    """

    name = "stall"

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self._last_progress: dict[int, float] = {}
        self._alerted: set[int] = set()

    def observe(self, event: TraceEvent, monitor: "InvariantMonitor") -> None:
        if event.category == "swap":
            if event.swap_id is None:
                return
            if event.kind in ("launch", "phase"):
                self._last_progress[event.swap_id] = event.time
            elif event.kind == "outcome":
                self._last_progress.pop(event.swap_id, None)
            return
        if event.category != "chain" or event.kind != "block":
            return
        horizon = event.time - self.deadline
        for swap_id, last in self._last_progress.items():
            if last > horizon or swap_id in self._alerted:
                continue
            self._alerted.add(swap_id)
            monitor.fire(
                self,
                event,
                message=(
                    f"swap {swap_id} stalled: no phase progress for "
                    f"{event.time - last:.1f}s (budget {self.deadline:.1f}s)"
                ),
                swap_id=swap_id,
                stalled_for=event.time - last,
                deadline=self.deadline,
            )


class MempoolSaturationRule(Rule):
    """A mempool's pending depth crossed ``threshold`` messages.

    Fires once per crossing (hysteresis: the chain re-arms when its
    depth drops back below the threshold), so a saturated steady state
    produces one alert, not one per submit.
    """

    name = "mempool_saturation"

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self._saturated: set[str] = set()

    def observe(self, event: TraceEvent, monitor: "InvariantMonitor") -> None:
        if event.category != "mempool":
            return
        pending = event.payload.get("pending")
        if pending is None:
            return
        chain = event.chain_id or "?"
        if pending >= self.threshold:
            if chain in self._saturated:
                return
            self._saturated.add(chain)
            monitor.fire(
                self,
                event,
                message=(
                    f"mempool on {chain!r} saturated: {pending} pending "
                    f"(threshold {self.threshold})"
                ),
                pending=pending,
                threshold=self.threshold,
            )
        else:
            self._saturated.discard(chain)


class PricedOutSpikeRule(Rule):
    """The priced-out share of recent outcomes spiked.

    Over a trailing ``window`` of sim-seconds, fires when at least
    ``min_count`` outcomes were priced out *and* their share of all
    outcomes in the window reaches ``rate``.  Hysteresis: re-arms when
    the share falls back below the rate.
    """

    name = "priced_out_spike"

    def __init__(self, rate: float, window: float, min_count: int) -> None:
        self.rate = rate
        self.window = window
        self.min_count = min_count
        self._outcomes: list[tuple[float, bool]] = []
        self._armed = True

    def observe(self, event: TraceEvent, monitor: "InvariantMonitor") -> None:
        if event.category != "swap" or event.kind != "outcome":
            return
        priced_out = bool(event.payload.get("priced_out"))
        outcomes = self._outcomes
        outcomes.append((event.time, priced_out))
        horizon = event.time - self.window
        while outcomes and outcomes[0][0] < horizon:
            outcomes.pop(0)
        hits = sum(1 for _, p in outcomes if p)
        share = hits / len(outcomes)
        if hits >= self.min_count and share >= self.rate:
            if self._armed:
                self._armed = False
                monitor.fire(
                    self,
                    event,
                    message=(
                        f"priced-out spike: {hits}/{len(outcomes)} outcomes "
                        f"({share:.0%}) in the last {self.window:.0f}s "
                        f"(threshold {self.rate:.0%})"
                    ),
                    priced_out=hits,
                    outcomes=len(outcomes),
                    share=share,
                )
        elif share < self.rate:
            self._armed = True


class InvariantMonitor:
    """Evaluates rules in-stream and records ordered alerts.

    Register :meth:`observe` as a collector sink.  Alert events the
    monitor itself emits are ignored on the way back in, so rules can
    never recurse.
    """

    def __init__(
        self,
        collector: TraceCollector,
        rules: list[Rule],
        stream: Callable[[str], None] | None = None,
    ) -> None:
        self.collector = collector
        self.rules = list(rules)
        self.stream = stream
        self.alerts: list[Alert] = []

    def observe(self, event: TraceEvent) -> None:
        if event.category == "alert":
            return
        for rule in self.rules:
            rule.observe(event, self)

    def fire(
        self,
        rule: Rule,
        event: TraceEvent,
        message: str,
        swap_id: int | None = None,
        **data: Any,
    ) -> Alert:
        """Record one alert anchored to the triggering ``event``."""
        alert = Alert(
            index=len(self.alerts),
            time=event.time,
            rule=rule.name,
            severity=rule.severity,
            message=message,
            swap_id=event.swap_id if swap_id is None else swap_id,
            chain_id=event.chain_id,
            data=data,
        )
        self.alerts.append(alert)
        self.collector.emit(
            "alert",
            rule.name,
            swap_id=alert.swap_id,
            chain_id=alert.chain_id,
            severity=alert.severity,
            message=alert.message,
            **data,
        )
        if self.stream is not None:
            self.stream(alert.render())
        return alert

    def __repr__(self) -> str:
        return (
            f"InvariantMonitor({len(self.rules)} rules, "
            f"{len(self.alerts)} alerts)"
        )


def alerts_from_events(events) -> list[Alert]:
    """Rebuild :class:`Alert` records from a trace's ``alert`` events
    (the ``repro alerts`` explorer path — severity/message/extra data
    ride in the event payload)."""
    alerts: list[Alert] = []
    for event in events:
        if event.category != "alert":
            continue
        payload = dict(event.payload)
        severity = payload.pop("severity", "warning")
        message = payload.pop("message", "")
        alerts.append(
            Alert(
                index=len(alerts),
                time=event.time,
                rule=event.kind,
                severity=severity,
                message=message,
                swap_id=event.swap_id,
                chain_id=event.chain_id,
                data=payload,
            )
        )
    return alerts
