"""Section 6.3: choosing the witness network and the depth ``d``.

A malicious participant could rent hash power and fork the witness chain
for ``d`` blocks to flip an already-observed decision.  The defense is
economic: pick ``d`` so that the attack costs more than the assets at
stake.  With ``Va`` the value at risk (USD), ``Ch`` the hourly 51%-attack
cost, and ``dh`` the chain's blocks per hour:

    attack cost for d blocks  =  d · Ch / dh
    safety requires            d > Va · dh / Ch

The paper's worked example: ``Va = $1M`` on Bitcoin (``Ch ≈ $300K/h``,
``dh = 6``) needs ``d > 20``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..chain.params import ATTACK_COST_PER_HOUR_USD


def attack_cost_usd(depth: int, hourly_cost: float, blocks_per_hour: float) -> float:
    """Cost of sustaining a 51% fork for ``depth`` blocks."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if hourly_cost <= 0 or blocks_per_hour <= 0:
        raise ValueError("costs and rates must be positive")
    return depth * hourly_cost / blocks_per_hour


def required_depth(
    value_at_risk: float, hourly_cost: float, blocks_per_hour: float
) -> int:
    """The smallest integer ``d`` satisfying ``d > Va · dh / Ch``."""
    if not 0 <= value_at_risk < math.inf:
        raise ValueError(f"value at risk must be a finite number >= 0, got {value_at_risk!r}")
    if hourly_cost <= 0 or blocks_per_hour <= 0:
        raise ValueError("costs and rates must be positive")
    threshold = value_at_risk * blocks_per_hour / hourly_cost
    depth = math.floor(threshold) + 1
    return max(depth, 1)


def is_depth_safe(
    depth: int, value_at_risk: float, hourly_cost: float, blocks_per_hour: float
) -> bool:
    """True iff an attacker loses money forking ``depth`` blocks."""
    return attack_cost_usd(depth, hourly_cost, blocks_per_hour) > value_at_risk


@dataclass(frozen=True)
class WitnessChoice:
    """A candidate witness network with its safety parameters."""

    chain_id: str
    blocks_per_hour: float
    hourly_attack_cost_usd: float

    def depth_for(self, value_at_risk: float) -> int:
        return required_depth(
            value_at_risk, self.hourly_attack_cost_usd, self.blocks_per_hour
        )

    def confirmation_latency_hours(self, value_at_risk: float) -> float:
        """Wall-clock time to bury a decision safely for this Va."""
        return self.depth_for(value_at_risk) / self.blocks_per_hour


#: The paper's Section 6.3 candidates (2019 figures from crypto51.app).
PAPER_WITNESS_CANDIDATES = [
    WitnessChoice("bitcoin", 6.0, ATTACK_COST_PER_HOUR_USD["bitcoin"]),
    WitnessChoice("ethereum", 240.0, ATTACK_COST_PER_HOUR_USD["ethereum"]),
    WitnessChoice("litecoin", 24.0, ATTACK_COST_PER_HOUR_USD["litecoin"]),
    WitnessChoice("bitcoin-cash", 6.0, ATTACK_COST_PER_HOUR_USD["bitcoin-cash"]),
]


def paper_worked_example() -> int:
    """The paper's example: $1M at risk witnessed by Bitcoin → d > 20."""
    return required_depth(1_000_000.0, 300_000.0, 6.0)


@dataclass(frozen=True)
class SecurityReportRow:
    """One empirical-vs-analytic cell of the security matrix.

    ``model_safe`` is the Section 6.3 prediction (``d >=
    required_depth``); ``empirically_safe`` is what the attacked run
    measured; ``agrees`` is whether the analytic bound was *sound* for
    the cell — an unsafe prediction with a safe measurement still
    agrees (the bound is conservative: losing the mining race or the
    settlement race can save a swap the cost model alone would give up).
    """

    protocol: str
    depth: int
    hashpower: float
    total: int
    violations: int
    violation_rate: float
    commit_rate: float
    attacks_launched: int
    reorgs_won: int
    reorgs_lost: int
    attack_cost: float
    value_at_risk: float
    required_depth: int
    model_safe: bool
    empirically_safe: bool

    @property
    def agrees(self) -> bool:
        """The depth rule is sound iff no model-safe cell was violated."""
        return self.empirically_safe or not self.model_safe


def security_report(sweep) -> list[SecurityReportRow]:
    """Compare a measured ``security-matrix`` sweep against the model.

    Takes a :class:`~repro.sweeps.result.SweepResult` (fresh or
    re-loaded from JSON) and returns one row per cell, expansion order.
    The paper's claim — atomicity holds wherever ``d`` meets the
    analytic bound — is equivalent to ``all(row.agrees)``.
    """
    from ..sweeps.figures import violation_rate_surface

    # A report row is a surface cell plus the empirical verdict, so a
    # new surface field fails loudly here instead of silently dropping.
    return [
        SecurityReportRow(
            **dataclasses.asdict(cell), empirically_safe=cell.violations == 0
        )
        for cell in violation_rate_surface(sweep)
    ]


def depth_table(values_at_risk: list[float]) -> list[dict]:
    """Required depth on each candidate witness for a sweep of ``Va``."""
    rows = []
    for va in values_at_risk:
        row: dict = {"value_at_risk_usd": va}
        for choice in PAPER_WITNESS_CANDIDATES:
            row[choice.chain_id] = choice.depth_for(va)
        rows.append(row)
    return rows
