"""The flight recorder: structured trace events and their collector.

A :class:`TraceCollector` is a passive sink.  Subsystems that hold a
reference to one emit :class:`TraceEvent` records at interesting moments
(swap phase changes, block connects, reorgs, mempool churn, crashes,
attacks); when no collector is attached every emit site is a single
``if collector is not None`` check, so disabled runs are byte- and
time-identical to runs before this module existed.

Events are ordered by a per-collector sequence number assigned at emit
time.  Because the simulator fires events in deterministic (time, seq)
order, two runs at the same seed produce identical traces.

The JSONL surface (:meth:`TraceCollector.to_jsonl` /
:meth:`TraceCollector.from_jsonl`) is :mod:`repro.serde` framing over
two declarations — the header record and :class:`TraceEvent`, whose
short wire keys (``t``/``cat``/``swap``/``chain``/``data``) are field
metadata — so every key is required and a round-trip is byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from .. import serde
from ..errors import TraceError

#: Every category an emit site may use.  ``ObsSpec.categories`` and the
#: CLI validate against this tuple; keep it in sync with the emit sites.
CATEGORIES: tuple[str, ...] = (
    "swap",  # arrival / launch / phase transitions / outcome
    "chain",  # block connects, reorg adopt/abandon depths
    "mempool",  # submit / evict / replace-by-fee / fee rejections
    "fee",  # driver fee bumps, priced-out transitions
    "sim",  # node crash / recovery windows
    "adversary",  # attack launch / won / lost / exploit, byzantine acts
    "sample",  # windowed gauges from the TimeSeriesSampler
    "alert",  # InvariantMonitor rule firings (see repro.obs.monitor)
    "service",  # SwapService sessions: accepts / windows / checkpoints / stalls
)

#: Trace file format identifier (bump on incompatible schema changes).
SCHEMA = "repro-trace/1"


@serde.exact
@dataclass(slots=True, repr=False)
class TraceEvent:
    """One recorded moment.  Slotted: large runs emit tens of thousands."""

    seq: int
    time: float = serde.field(wire="t")
    category: str = serde.field(wire="cat")
    kind: str
    swap_id: int | None = serde.field(None, wire="swap")
    chain_id: str | None = serde.field(None, wire="chain")
    actor: str | None = None
    payload: dict[str, Any] = serde.field(default_factory=dict, wire="data")

    def __repr__(self) -> str:
        who = f" swap={self.swap_id}" if self.swap_id is not None else ""
        where = f" chain={self.chain_id}" if self.chain_id is not None else ""
        return f"TraceEvent(#{self.seq} t={self.time:.3f} {self.category}/{self.kind}{who}{where})"


@serde.exact
@dataclass(frozen=True)
class _Header:
    categories: tuple[str, ...]
    ring_size: int | None
    dropped: int
    events: int
    schema: str = SCHEMA


class TraceCollector:
    """Collects :class:`TraceEvent` records in emit order.

    Args:
        categories: categories to record; empty means *all*.  Filtering
            happens inside :meth:`emit` (a frozenset lookup), and wiring
            code additionally skips registering listeners for categories
            the collector does not want.
        ring_size: if set, keep only the most recent ``ring_size`` events
            (bounded flight-recorder mode); older events are dropped and
            counted in :attr:`dropped`.  ``None`` means unbounded.
        retain: keep events in the buffer (the default).  ``False`` turns
            the collector into a pure dispatcher: events are constructed
            and handed to the registered sinks but never stored — the
            mode the metrics registry and invariant monitor use when the
            trace itself was not requested.
    """

    def __init__(
        self,
        categories: Iterable[str] = (),
        ring_size: int | None = None,
        retain: bool = True,
    ) -> None:
        wanted = tuple(categories)
        for category in wanted:
            if category not in CATEGORIES:
                raise TraceError(
                    f"unknown trace category {category!r}; expected one of {CATEGORIES}"
                )
        self._categories: frozenset[str] = frozenset(wanted if wanted else CATEGORIES)
        self.ring_size = ring_size
        if ring_size is not None:
            if ring_size < 1:
                raise TraceError(f"ring_size must be >= 1, got {ring_size}")
            self._events: deque[TraceEvent] | list[TraceEvent] = deque(maxlen=ring_size)
        else:
            self._events = []
        self.retain = retain
        self.dropped = 0
        self._seq = 0
        self._clock: Any = None  # anything with a ``now`` float attribute
        self._sinks: list[Any] = []

    # -- recording ---------------------------------------------------------

    def bind(self, clock: Any) -> None:
        """Attach a clock (typically a :class:`~repro.sim.Simulator`)."""
        self._clock = clock

    def add_sink(self, sink) -> None:
        """Register an in-stream consumer: ``sink(event)`` is called for
        every event that passes the category filter, in emit order, after
        the event is recorded.  Sinks may themselves emit (the monitor
        writes ``alert`` events back into the trace); re-entrant emits
        are appended after the triggering event, so ordering and the
        monotone-seq serde invariant hold."""
        self._sinks.append(sink)

    @property
    def categories(self) -> frozenset[str]:
        return self._categories

    def wants(self, category: str) -> bool:
        """True if ``category`` passes this collector's filter."""
        return category in self._categories

    def emit(
        self,
        category: str,
        kind: str,
        swap_id: int | None = None,
        chain_id: str | None = None,
        actor: str | None = None,
        **payload: Any,
    ) -> None:
        """Record one event (no-op if ``category`` is filtered out)."""
        if category not in self._categories:
            return
        event = TraceEvent(
            seq=self._seq,
            time=self._clock.now if self._clock is not None else 0.0,
            category=category,
            kind=kind,
            swap_id=swap_id,
            chain_id=chain_id,
            actor=actor,
            payload=payload,
        )
        self._seq += 1
        if self.retain:
            events = self._events
            if self.ring_size is not None and len(events) == self.ring_size:
                self.dropped += 1
            events.append(event)
        for sink in self._sinks:
            sink(event)

    # -- access ------------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        """All retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    # -- serde ---------------------------------------------------------------

    def to_jsonl(self) -> str:
        """Serialize as JSONL: one header line, then one line per event,
        so that ``from_jsonl(to_jsonl(c)).to_jsonl() == to_jsonl(c)``."""
        header = _Header(
            categories=tuple(sorted(self._categories)),
            ring_size=self.ring_size,
            dropped=self.dropped,
            events=len(self._events),
        )
        return serde.dump_jsonl(header, self._events)

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceCollector":
        """Parse a trace produced by :meth:`to_jsonl` (strict)."""
        header, events = serde.load_jsonl(
            text, _Header, TraceEvent, "events", TraceError, "trace"
        )
        collector = cls(categories=header.categories, ring_size=header.ring_size)
        collector.dropped = header.dropped
        for number, event in enumerate(events, start=2):
            if event.category not in CATEGORIES:
                raise TraceError(
                    f"trace line {number}.cat: unknown trace category {event.category!r}"
                )
            if event.seq < collector._seq:
                raise TraceError(
                    f"trace events out of order on line {number}: "
                    f"seq {event.seq} after {collector._seq - 1}"
                )
            collector._seq = event.seq + 1
            collector._events.append(event)
        return collector

    def __repr__(self) -> str:
        mode = f"ring={self.ring_size}" if self.ring_size is not None else "unbounded"
        return f"TraceCollector({len(self._events)} events, {mode}, dropped={self.dropped})"
