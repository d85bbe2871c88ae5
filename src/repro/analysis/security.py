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

import math
from dataclasses import dataclass

#: Hourly 51%-attack cost in USD quoted in Section 6.3 (crypto51.app, 2019).
ATTACK_COST_PER_HOUR_USD: dict[str, float] = {
    "bitcoin": 300_000.0,
    "ethereum": 100_000.0,
    "litecoin": 25_000.0,
    "bitcoin-cash": 10_000.0,
}


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


def depth_table(values_at_risk: list[float]) -> list[dict]:
    """Required depth on each candidate witness for a sweep of ``Va``."""
    rows = []
    for va in values_at_risk:
        row: dict = {"value_at_risk_usd": va}
        for choice in PAPER_WITNESS_CANDIDATES:
            row[choice.chain_id] = choice.depth_for(va)
        rows.append(row)
    return rows
