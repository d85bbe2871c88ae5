"""The adversary schema: attacks as declarative, sweepable spec nodes.

Section 6.3's threat model — a malicious participant who rents hash
power to fork the witness chain and flip an already-observed decision —
plus the companion Byzantine behaviours (censorship, signature
withholding, settle refusal, phase-keyed eclipses) are described here
as one strict-serde :class:`AdversarySpec` hanging off
:class:`~repro.experiment.spec.ExperimentSpec`.  Every actor is a
singleton node with an ``enabled`` flag so sweep axes can address its
parameters with plain dotted paths (``adversary.reorg.hashpower``,
``adversary.reorg.enabled``) — the mechanism behind the
``security-matrix`` campaign.

The spec layer contains no execution logic; see
:mod:`repro.adversary.actors` for the engine-scheduled actors and
:func:`repro.adversary.build_roster` for the wiring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .. import serde

#: Byzantine participant behaviours.
BYZANTINE_BEHAVIORS = ("withhold-settle", "decline", "withhold-signature")


def driver_phases() -> tuple[str, ...]:
    """Every phase a registered protocol's table declares.

    An eclipse keyed to a phase its protocol never enters would silently
    disarm, so the spec only accepts declared phases (and
    :meth:`ExperimentSpec.validate` those of the spec's own protocol).
    Read at every check, like the other registry-backed choice sets.
    """
    from ..engine.engine import registered_phases

    return registered_phases()


@dataclass(frozen=True)
class ReorgAttackSpec:
    """A rented-hashpower reorg attacker (Section 6.3's 51% attack).

    The attacker watches ``chain_id`` for a decision reaching
    ``trigger_depth`` confirmations — an AC3WN ``authorize_redeem``
    settling on the witness chain, or an HTLC ``redeem`` settling on an
    asset chain — then forks the chain from the block *before* the
    decision and mines a private branch at ``hashpower`` times the
    honest block rate.  The private branch censors the decision and
    (for witness targets) carries the attacker's own ``flip_function``
    call; it is published the moment it out-works the public branch.

    The budget comes from the paper's cost model: each private block
    costs ``hourly_cost / blocks_per_hour`` USD and a rational attacker
    never spends more than ``value_at_risk``, so at most
    ``floor(value_at_risk * blocks_per_hour / hourly_cost)`` blocks are
    ever mined per attack — precisely one block short of
    :func:`repro.analysis.security.required_depth`, which is why the
    measured violation rate drops to zero once ``d`` reaches the
    analytic bound.
    """

    enabled: bool = False
    chain_id: str | None = serde.field(
        None,
        doc="target (null = the decision chain: witness for ac3wn/mixed, "
        "else the first asset chain)",
    )
    hashpower: float = serde.field(
        2.0, gt=0, doc="attacker block rate relative to the honest chain"
    )
    value_at_risk: float = serde.field(
        175_000.0, ge=0, doc="Va: USD the attacker stands to gain"
    )
    hourly_cost: float = serde.field(
        300_000.0, gt=0, doc="Ch: USD per hour of 51% hash power"
    )
    blocks_per_hour: float = serde.field(
        6.0, gt=0, doc="dh: the modelled chain's block rate"
    )
    trigger_depth: int | None = serde.field(
        None,
        ge=1,
        doc="confirmations at which a decision counts as observed "
        "(null = the chain's confirmation_depth)",
    )
    trigger_functions: tuple[str, ...] = serde.field(
        ("authorize_redeem", "redeem"),
        nonempty=True,
        doc="calls that count as decisions worth flipping",
    )
    flip_function: str = serde.field(
        "authorize_refund",
        doc='counter-decision mined into the private branch, witness targets ("" = none)',
    )
    exploit: bool = serde.field(
        True, doc="after a won witness reorg, refund the victim's still-open contracts"
    )
    max_attacks: int | None = serde.field(
        None, ge=1, doc="cap on launched attacks (null = every affordable trigger)"
    )
    attacker: str = serde.field(
        "mallory", nonempty=True, doc="the adversary's funded on-chain identity"
    )

    def block_cost_usd(self) -> float:
        """Cost of renting 51% hash power for one block interval."""
        return self.hourly_cost / self.blocks_per_hour

    def budget_blocks(self) -> int:
        """Private blocks a rational attacker can afford per attack."""
        return math.floor(
            self.value_at_risk * self.blocks_per_hour / self.hourly_cost
        )

    def required_depth(self) -> int:
        """The analytic safety bound for these cost-model parameters."""
        from ..analysis.security import required_depth

        return required_depth(
            self.value_at_risk, self.hourly_cost, self.blocks_per_hour
        )


@dataclass(frozen=True)
class CensorSpec:
    """A censoring miner: excludes matching messages from its templates.

    The target chain's miner keeps mining normally but never includes a
    message matching any of the criteria (OR across criteria; a
    criterion left empty does not match).  Censored messages are
    re-queued, so they stay pending forever — the liveness attack of
    Section 5's discussion.
    """

    enabled: bool = False
    chain_id: str | None = serde.field(
        None, doc="chain whose miner censors (null = the decision chain, as for reorg)"
    )
    functions: tuple[str, ...] = serde.field((), doc="censor calls by function name")
    contract_classes: tuple[str, ...] = serde.field((), doc="censor deploys by class")
    participants: tuple[str, ...] = serde.field(
        (),
        doc='censor by sender: full name, role letter ("b"), or prefix ("swap0007.")',
    )


@dataclass(frozen=True)
class ByzantineSpec:
    """A Byzantine swap participant (one corrupted role per swap).

    ``"withhold-settle"`` participates honestly until the settle phase,
    then refuses every settle step; ``"decline"`` never publishes the
    role's asset contracts; ``"withhold-signature"`` withholds the
    role's signature from ``ms(D)`` so registration validity fails
    on-chain (falling back to ``decline`` for protocols without a
    multisignature).
    """

    enabled: bool = False
    role: str = serde.field(
        "b", nonempty=True, doc="corrupted swap-local role letter, or a literal name"
    )
    behavior: str = serde.field("withhold-settle", choices=BYZANTINE_BEHAVIORS)
    share: float = serde.field(
        1.0, ge=0, le=1, doc="fraction of swaps corrupted (adversary/byzantine stream)"
    )


@dataclass(frozen=True)
class EclipseSpec:
    """A phase-keyed eclipse: isolate a participant at a protocol step.

    Rather than a wall-clock :class:`~repro.sim.failures.FailureSchedule`
    window, the eclipse fires exactly when the victim's swap enters
    ``phase`` — the victim is crashed for ``duration`` seconds (an
    unreachable party *is* a crashed party), then recovers.
    ``"settle"`` fires for every protocol, the other phases are
    protocol-specific.
    """

    enabled: bool = False
    role: str = serde.field("a", nonempty=True, doc="victim role letter or literal name")
    phase: str = serde.field("settle", choices=driver_phases)
    duration: float = serde.field(3.0, gt=0, doc="seconds isolated, then recovery")
    share: float = serde.field(
        1.0, ge=0, le=1, doc="fraction of swaps eclipsed (adversary/eclipse stream)"
    )


@dataclass(frozen=True)
class AdversarySpec:
    """The adversarial roster of one experiment (all actors optional)."""

    reorg: ReorgAttackSpec = field(default_factory=ReorgAttackSpec)
    censor: CensorSpec = field(default_factory=CensorSpec)
    byzantine: ByzantineSpec = field(default_factory=ByzantineSpec)
    eclipse: EclipseSpec = field(default_factory=EclipseSpec)

    @property
    def any_enabled(self) -> bool:
        return (
            self.reorg.enabled
            or self.censor.enabled
            or self.byzantine.enabled
            or self.eclipse.enabled
        )

    def validate(self, fail, known_chains: set[str]) -> None:
        """What the field declarations cannot say — an armed actor has
        something to act on, a named chain exists — through ``fail(message)``."""
        for actor in ("reorg", "censor"):
            chain_id = getattr(self, actor).chain_id
            if chain_id is not None and chain_id not in known_chains:
                fail(f"adversary.{actor} names unknown chain {chain_id!r}")
        if self.reorg.enabled and not self.reorg.trigger_functions:
            fail("adversary.reorg.trigger_functions must not be empty")
        censor = self.censor
        if censor.enabled and not (
            censor.functions or censor.contract_classes or censor.participants
        ):
            fail(
                "adversary.censor needs at least one criterion "
                "(functions, contract_classes, or participants)"
            )
