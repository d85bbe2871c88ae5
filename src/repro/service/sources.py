"""Pluggable live traffic sources for service sessions.

A :class:`TrafficSource` is an iterator of arrivals: each call to
:meth:`~TrafficSource.next` returns the *next* :class:`SourceItem`
(arrival time relative to session start, protocol, amount, fee budget)
or None when the source is exhausted.  Sources draw from their own
standalone :class:`~repro.sim.rng.RngStream` — seeded from the world
seed and the source *name* — so an arrival schedule is a pure function
of ``(seed, source spec)`` and never perturbs the simulation's other
randomness.  That purity is what makes checkpoint/restore work:
:meth:`~TrafficSource.skip` fast-forwards a fresh source past the
``n`` arrivals a restored session already accepted by regenerating
(and discarding) them, leaving the stream positioned exactly where the
interrupted session's was.

:data:`SOURCES` is the catalog a spec's ``kind`` names: ``poisson``
(homogeneous arrivals), ``diurnal`` (sinusoidal day/night cycle) and
``flash-crowd`` (baseline rate with multiplicative burst windows).  A recorded request log is re-driven by
:meth:`~repro.service.SwapService.replay`, not by a source.

The time-varying sources use *thinning* (Lewis & Shedler): candidates
are drawn homogeneously at the peak rate and accepted with probability
``rate(t) / peak`` — exactly two RNG draws per candidate, so the
stream position after ``n`` emissions is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..engine.engine import PROTOCOLS
from ..errors import ServiceError
from ..experiment.spec import FeeBudgetSpec
from ..sim.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - the spec reads this module's catalog
    from .spec import SourceSpec


@dataclass(frozen=True)
class SourceItem:
    """One arrival a source emitted.

    ``at`` is sim-seconds relative to session start; ``protocol`` is
    already concrete (sources resolve ``"mixed"`` themselves so the
    request log records exactly what ran).
    """

    at: float
    protocol: str
    amount: int
    fee_budget: FeeBudgetSpec | None


class TrafficSource:
    """Base class: deterministic arrival iterator with its own stream.

    Subclasses implement :meth:`_next_at` (the next arrival time after
    the current position, or None when exhausted); the base class
    handles protocol round-robin, amounts, budgets, and skip.
    """

    def __init__(self, spec: SourceSpec, seed: int, default_amount: int) -> None:
        self.spec = spec
        self.name = spec.name
        self.stream = RngStream(seed, f"service/source/{spec.name}")
        self.emitted = 0
        self._t = spec.start
        self._amount = spec.amount if spec.amount is not None else default_amount
        self._protocol = spec.protocol  # resolved by the service ("" = world's)

    def resolve_protocol(self, world_protocol: str) -> None:
        """Pin the session-level default before the first emission."""
        self._protocol = self.spec.protocol or world_protocol

    def _next_at(self) -> float | None:
        raise NotImplementedError

    def next(self) -> SourceItem | None:
        """The next arrival, or None when this source is exhausted."""
        at = self._next_at()
        if at is None:
            return None
        self._t = at
        protocol = self._protocol
        if protocol == "mixed":
            protocol = PROTOCOLS[self.emitted % len(PROTOCOLS)]
        self.emitted += 1
        return SourceItem(
            at=at,
            protocol=protocol,
            amount=self._amount,
            fee_budget=self.spec.fee_budget,
        )

    def skip(self, n: int) -> None:
        """Discard the next ``n`` emissions (checkpoint-cursor restore).

        Regenerating is the *point*: it consumes exactly the RNG draws
        the original session consumed, so the next real emission matches
        the interrupted session's pending arrival bit for bit.
        """
        for _ in range(n):
            if self.next() is None:
                raise ServiceError(
                    f"source {self.name!r} exhausted after fewer than the "
                    f"{n} emissions its checkpoint cursor records"
                )


class PoissonSource(TrafficSource):
    """Homogeneous Poisson arrivals at ``rate`` per sim-second."""

    def _next_at(self) -> float | None:
        return self._t + self.stream.expovariate(self.spec.rate)


class _ThinnedSource(TrafficSource):
    """Time-varying arrivals via thinning at a constant peak rate."""

    def _peak(self) -> float:
        raise NotImplementedError

    def _rate_at(self, t: float) -> float:
        raise NotImplementedError

    def _next_at(self) -> float | None:
        peak = self._peak()
        t = self._t
        while True:
            t += self.stream.expovariate(peak)
            if self.stream.random() < self._rate_at(t) / peak:
                return t


class DiurnalSource(_ThinnedSource):
    """A sinusoidal day/night cycle: rate swings between ``trough *
    rate`` (cycle start) and ``rate`` (half-cycle), period ``period``."""

    def _peak(self) -> float:
        return self.spec.rate

    def _rate_at(self, t: float) -> float:
        spec = self.spec
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / spec.period))
        return spec.rate * (spec.trough + (1.0 - spec.trough) * swing)


class FlashCrowdSource(_ThinnedSource):
    """Baseline arrivals with multiplicative burst windows.

    Rate is ``rate`` outside bursts and ``rate * burst_multiplier``
    inside; the first burst opens at ``burst_at`` and repeats every
    ``burst_every`` seconds (None = a single burst)."""

    def _peak(self) -> float:
        return self.spec.rate * self.spec.burst_multiplier

    def _rate_at(self, t: float) -> float:
        spec = self.spec
        since = t - spec.burst_at
        if since >= 0:
            if spec.burst_every is not None:
                since = since % spec.burst_every
            if since < spec.burst_duration:
                return spec.rate * spec.burst_multiplier
        return spec.rate


#: The source catalog, kind -> class (called with the spec, the world
#: seed and the default amount).  A new kind is an entry here.
SOURCES: dict[str, type[TrafficSource]] = {
    "diurnal": DiurnalSource,
    "flash-crowd": FlashCrowdSource,
    "poisson": PoissonSource,
}
