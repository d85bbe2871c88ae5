"""The declarative service-session schema: :class:`ServiceSpec`.

A service session is described the same way an experiment is — one
typed, strictly-serializable spec — but instead of a pre-scheduled
traffic list it names **traffic sources** (entries in the source
registry, :mod:`repro.service.sources`) that generate arrivals while
the session runs, plus the session's operational envelope: slot
capacity, serving horizon, checkpoint cadence, and the windowed-metrics
sampling knobs.

The world the session runs in (chains, fee market, latency, engine
options, observability) is an embedded :class:`ExperimentSpec` under
``world`` — service mode reuses the entire experiment schema for
everything that is not about *when the next swap arrives*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import serde
from ..errors import SpecError
from ..experiment.spec import ExperimentSpec, FeeBudgetSpec

#: Source name reserved for swaps submitted through the in-process
#: :meth:`~repro.service.SwapService.submit_swap` API; request-log
#: records carry it so replay can re-drive manual submissions too.
EXTERNAL_SOURCE = "external"


@dataclass(frozen=True)
class SourceSpec:
    """One live traffic source feeding a service session.

    Attributes:
        kind: a registered source kind (see
            :func:`repro.service.sources.register_source`):
            ``"poisson"``, ``"diurnal"``, ``"flash-crowd"`` and
            ``"replay"`` ship built in.
        name: unique label for this source within the session; stamped
            into every request-log record it produces (and used as the
            checkpoint cursor key), so it must be stable across restore.
        protocol: protocol for this source's swaps — a registered name
            or ``"mixed"`` (round-robin over the four built-ins);
            empty inherits ``world.protocol``.
        rate: mean arrivals per sim-second (the *peak* rate for the
            diurnal source, the *baseline* rate for flash-crowd).
        amount: per-edge asset amount (None = ``world.traffic.amount``).
        fee_budget: per-swap fee envelope (None = unbudgeted).
        start: sim-seconds after session start before the first arrival
            can occur.
        period / trough: diurnal cycle length and the floor fraction of
            ``rate`` at the trough (``0 < trough <= 1``).
        burst_at / burst_every / burst_duration / burst_multiplier:
            flash-crowd bursts — the first burst begins ``burst_at``
            seconds into the session, repeats every ``burst_every``
            seconds (None = one burst only), lasts ``burst_duration``
            seconds, and multiplies the baseline rate by
            ``burst_multiplier`` while active.
        path: request-log file to re-emit (``"replay"`` sources only).
    """

    kind: str = "poisson"
    name: str = "source"
    protocol: str = ""
    rate: float = 4.0
    amount: int | None = None
    fee_budget: FeeBudgetSpec | None = None
    start: float = 0.0
    period: float = 60.0
    trough: float = 0.25
    burst_at: float = 5.0
    burst_every: float | None = None
    burst_duration: float = 3.0
    burst_multiplier: float = 4.0
    path: str = ""


@dataclass(frozen=True)
class ServiceSpec(serde.Serializable):
    """One complete, runnable, serializable service-session description.

    Attributes:
        name: session label (campaign identity in the datastore).
        world: the embedded :class:`ExperimentSpec` describing the
            simulated world; its ``traffic`` section sizes the
            pre-provisioned swap slots (participants per swap, default
            amount, participant name prefix) — ``num_swaps``/``rate``
            are ignored in service mode (arrivals come from sources).
        sources: the live traffic sources (may be empty for sessions
            driven purely through ``submit_swap``).
        capacity: pre-provisioned swap slots.  Genesis funding happens
            once, up front, so a session can accept at most ``capacity``
            swaps before it must be re-provisioned; the accept loop
            treats it as a hard max-swaps bound.
        duration: serving horizon in sim-seconds from session start
            (None = bounded only by ``max_swaps``/``capacity``).
        max_swaps: stop accepting after this many swaps (None = no cap
            below ``capacity``).
        checkpoint_every: write a checkpoint every N accepted swaps when
            the CLI/session is given a checkpoint path (None = only on
            demand).
        metrics_window: trailing sim-time window for the live windowed
            metrics (commit rate, p50/p99 latency, priced-out rate).
        metrics_interval: sim-seconds between windowed-metrics samples.
        drain_timeout: sim-seconds the post-serve drain may take before
            the session force-finalizes the remaining in-flight swaps.
    """

    name: str = "service"
    world: ExperimentSpec = field(default_factory=ExperimentSpec)
    sources: tuple[SourceSpec, ...] = ()
    capacity: int = 256
    duration: float | None = 30.0
    max_swaps: int | None = None
    checkpoint_every: int | None = None
    metrics_window: float = 10.0
    metrics_interval: float = 5.0
    drain_timeout: float = 120.0

    # -- validation --------------------------------------------------------

    def resolved_protocol(self, source: SourceSpec) -> str:
        """The protocol a source actually submits under."""
        return source.protocol or self.world.protocol

    def validate(self) -> "ServiceSpec":
        """Check semantic constraints; returns self for chaining."""
        from ..engine.engine import registered_protocols
        from .sources import registered_sources

        def fail(message: str) -> None:
            raise SpecError(f"invalid service spec {self.name!r}: {message}")

        self.world.validate()
        if self.capacity < 1:
            fail("capacity must be at least 1")
        if self.duration is not None and self.duration <= 0:
            fail("duration must be positive")
        if self.duration is None and self.max_swaps is None:
            # capacity always bounds the session, but an unbounded-time
            # session that must fill every slot is almost never intended.
            fail("set duration or max_swaps (capacity alone is a slot pool)")
        if self.max_swaps is not None and self.max_swaps < 1:
            fail("max_swaps must be at least 1")
        if self.max_swaps is not None and self.max_swaps > self.capacity:
            fail(
                f"max_swaps ({self.max_swaps}) exceeds capacity "
                f"({self.capacity}): provision more slots"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            fail("checkpoint_every must be at least 1")
        if self.metrics_window <= 0:
            fail("metrics_window must be positive")
        if self.metrics_interval <= 0:
            fail("metrics_interval must be positive")
        if self.drain_timeout <= 0:
            fail("drain_timeout must be positive")
        seen: set[str] = set()
        for index, source in enumerate(self.sources):
            where = f"sources[{index}]"
            if not source.name:
                fail(f"{where}: name must be non-empty")
            if source.name == EXTERNAL_SOURCE:
                fail(
                    f"{where}: name {EXTERNAL_SOURCE!r} is reserved for "
                    f"submit_swap submissions"
                )
            if source.name in seen:
                fail(f"{where}: duplicate source name {source.name!r}")
            seen.add(source.name)
            if source.kind not in registered_sources():
                fail(
                    f"{where}: unknown source kind {source.kind!r}; "
                    f"registered: {registered_sources()}"
                )
            protocol = self.resolved_protocol(source)
            if protocol != "mixed" and protocol not in registered_protocols():
                fail(
                    f"{where}: unknown protocol {protocol!r}; expected "
                    f"'mixed' or one of {registered_protocols()}"
                )
            if (
                protocol in ("nolan", "mixed")
                and self.world.traffic.participants_per_swap != 2
            ):
                fail(
                    f"{where}: protocol {protocol!r} includes Nolan, which is "
                    f"strictly two-party: world.traffic.participants_per_swap "
                    f"must be 2"
                )
            if source.start < 0:
                fail(f"{where}: start must be non-negative")
            if source.amount is not None and source.amount < 1:
                fail(f"{where}: amount must be at least 1")
            if source.kind == "replay":
                if not source.path:
                    fail(f"{where}: replay sources need a path")
                continue
            if source.rate <= 0:
                fail(f"{where}: rate must be positive")
            if source.kind == "diurnal":
                if source.period <= 0:
                    fail(f"{where}: period must be positive")
                if not 0.0 < source.trough <= 1.0:
                    fail(f"{where}: trough must be within (0, 1]")
            if source.kind == "flash-crowd":
                if source.burst_at < 0:
                    fail(f"{where}: burst_at must be non-negative")
                if source.burst_every is not None and source.burst_every <= 0:
                    fail(f"{where}: burst_every must be positive")
                if source.burst_duration <= 0:
                    fail(f"{where}: burst_duration must be positive")
                if source.burst_multiplier < 1.0:
                    fail(f"{where}: burst_multiplier must be at least 1")
                if (
                    source.burst_every is not None
                    and source.burst_duration > source.burst_every
                ):
                    fail(f"{where}: burst_duration exceeds burst_every")
        return self
