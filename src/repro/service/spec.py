"""The declarative service-session schema: :class:`ServiceSpec`.

A service session is described the same way an experiment is — one
typed, strictly-serializable spec — but instead of a pre-scheduled
traffic list it names **traffic sources** (entries in the source
catalog, :mod:`repro.service.sources`) that generate arrivals while
the session runs, plus the session's operational envelope: slot
capacity, serving horizon, checkpoint cadence, and the windowed-metrics
sampling knobs.

The world the session runs in (chains, fee market, latency, engine
options, observability) is an embedded :class:`ExperimentSpec` under
``world`` — service mode reuses the entire experiment schema for
everything that is not about *when the next swap arrives*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import serde
from ..errors import SpecError
from ..experiment.spec import PROTOCOL_CHOICES, ExperimentSpec, FeeBudgetSpec
from .sources import SOURCES


@serde.retired("path", "the replay source was removed; repro replay re-drives a log", "")
@dataclass(frozen=True)
class SourceSpec:
    """One live traffic source feeding a service session; ``kind`` names
    an entry of :data:`repro.service.sources.SOURCES`.  A rule holds
    whatever the kind: a field the kind ignores still has to make sense."""

    kind: str = serde.field("poisson", choices=tuple(SOURCES), unknown="source kind")
    name: str = serde.field(
        "source",
        nonempty=True,
        doc="unique; request-log stamp and checkpoint-cursor key, stable across restore",
    )
    protocol: str = serde.field(
        "",
        choices=("",) + PROTOCOL_CHOICES,
        unknown="protocol",
        doc='"" inherits world.protocol',
    )
    rate: float = serde.field(
        4.0, gt=0, doc="mean arrivals per sim-second (diurnal: peak, flash-crowd: baseline)"
    )
    amount: int | None = serde.field(
        None, ge=1, doc="per-edge asset amount (null = world.traffic.amount)"
    )
    fee_budget: FeeBudgetSpec | None = serde.field(
        None, doc="per-swap fee envelope (null = unbudgeted)"
    )
    start: float = serde.field(0.0, ge=0, doc="quiet sim-seconds before the first arrival")
    period: float = serde.field(60.0, gt=0, doc="diurnal: cycle length")
    trough: float = serde.field(0.25, gt=0, le=1, doc="diurnal: floor fraction of rate")
    burst_at: float = serde.field(5.0, ge=0, doc="flash-crowd: when the first burst begins")
    burst_every: float | None = serde.field(
        None, gt=0, doc="flash-crowd: burst period, >= burst_duration (null = one burst)"
    )
    burst_duration: float = serde.field(3.0, gt=0, doc="flash-crowd: seconds a burst lasts")
    burst_multiplier: float = serde.field(
        4.0, ge=1, doc="flash-crowd: rate multiplier while a burst is active"
    )


@dataclass(frozen=True)
class ServiceSpec(serde.Serializable):
    """One complete, runnable, serializable service-session description.

    ``world`` is the embedded :class:`ExperimentSpec` describing the
    simulated world; its ``traffic`` section sizes the pre-provisioned
    swap slots (participants per swap, default amount, participant name
    prefix) — ``num_swaps``/``rate`` are ignored in service mode
    (arrivals come from sources).  Genesis funding happens once, up
    front, so a session can accept at most ``capacity`` swaps before it
    must be re-provisioned; the accept loop treats it as a hard
    max-swaps bound.
    """

    name: str = serde.field("service", doc="session label (campaign identity in the store)")
    world: ExperimentSpec = serde.field(
        default_factory=ExperimentSpec, doc="everything except when swaps arrive"
    )
    sources: tuple[SourceSpec, ...] = serde.field(
        (), doc="live traffic"
    )
    capacity: int = serde.field(256, ge=1, doc="pre-provisioned swap slots")
    duration: float | None = serde.field(
        30.0, gt=0, doc="serving horizon in sim-seconds (null = until max_swaps)"
    )
    max_swaps: int | None = serde.field(
        None, ge=1, doc="stop accepting after this many, <= capacity (null = no cap below it)"
    )
    checkpoint_every: int | None = serde.field(
        None, ge=1, doc="accepted swaps between checkpoints (null = only on demand)"
    )
    metrics_window: float = serde.field(
        10.0, gt=0, doc="trailing sim-time window of the live windowed metrics"
    )
    metrics_interval: float = serde.field(
        5.0, gt=0, doc="sim-seconds between windowed-metrics samples"
    )
    drain_timeout: float = serde.field(
        120.0, gt=0, doc="sim-seconds the post-serve drain may take before force-finalizing"
    )

    # -- validation --------------------------------------------------------

    def resolved_protocol(self, source: SourceSpec) -> str:
        """The protocol a source actually submits under."""
        return source.protocol or self.world.protocol

    def validate(self) -> "ServiceSpec":
        """Validate ``world``, hold the session's own fields to their
        declared rules, then check what relates two of them; returns
        self for chaining."""

        def fail(message: str) -> None:
            raise SpecError(f"invalid service spec {self.name!r}: {message}")

        self.world.validate()
        serde.check(self, fail=fail)
        if self.duration is None and self.max_swaps is None:
            # capacity always bounds the session, but an unbounded-time
            # session that must fill every slot is almost never intended.
            fail("set duration or max_swaps (capacity alone is a slot pool)")
        if self.max_swaps is not None and self.max_swaps > self.capacity:
            fail(
                f"max_swaps ({self.max_swaps}) exceeds capacity "
                f"({self.capacity}): provision more slots"
            )
        seen: set[str] = set()
        for index, source in enumerate(self.sources):
            where = f"sources[{index}]"
            if source.name in seen:
                fail(f"{where}: duplicate source name {source.name!r}")
            seen.add(source.name)
            protocol = self.resolved_protocol(source)
            if (
                protocol in ("nolan", "mixed")
                and self.world.traffic.participants_per_swap != 2
            ):
                fail(
                    f"{where}: protocol {protocol!r} includes Nolan, which is "
                    f"strictly two-party: world.traffic.participants_per_swap "
                    f"must be 2"
                )
            if (
                source.burst_every is not None
                and source.burst_duration > source.burst_every
            ):
                fail(f"{where}: burst_duration exceeds burst_every")
        return self


def check_serve_limits(limits: dict, name=str) -> None:
    """Hold per-call overrides of ``duration`` / ``max_swaps`` /
    ``checkpoint_every`` (``None`` = keep the spec's) to the type and
    rule their :class:`ServiceSpec` field declares; ``name(key)`` is how
    the message names a key (the CLI names its flag)."""
    table = serde.fields(ServiceSpec)
    for key, value in limits.items():
        field = table[key]
        serde.load(field.type, value, name(key))
        clause = "" if value is None else field.rule.broken_by(value)
        if clause:
            raise SpecError(f"{name(key)}{clause}, got {value!r}")
