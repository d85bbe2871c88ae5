"""Section 6.4 / Table 1: AC2T throughput.

An AC2T spanning chains ``i, j, …, n`` witnessed by chain ``w`` commits
at the rate of its slowest member:

    throughput = min(tps_i, tps_j, …, tps_n, tps_w)

so the witness should be chosen *from the involved chains* to avoid
becoming the bottleneck.  Table 1 lists the top-4 permissionless
cryptocurrencies by market cap with their published tps.

Two complementary views live here: the paper's *analytic* min() rule
over published per-chain tps, and the *measured* view distilled from a
:class:`~repro.engine.engine.SwapEngine` run, where hundreds of
concurrent AC2Ts share chains and the observed swaps/sec emerges from
actual block-capacity contention rather than a closed-form bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..engine.engine import EngineResult
    from ..engine.metrics import EngineMetrics

#: Table 1 throughput (tps) of the top-4 permissionless cryptocurrencies.
TABLE1_TPS: dict[str, int] = {
    "bitcoin": 7,
    "ethereum": 25,
    "litecoin": 56,
    "bitcoin-cash": 61,
}

#: Table 1 rows in the paper's order (market-cap ranked).
TABLE1_ROWS = [
    ("Bitcoin", "bitcoin", TABLE1_TPS["bitcoin"]),
    ("Ethereum", "ethereum", TABLE1_TPS["ethereum"]),
    ("Litecoin", "litecoin", TABLE1_TPS["litecoin"]),
    ("Bitcoin Cash", "bitcoin-cash", TABLE1_TPS["bitcoin-cash"]),
]


@dataclass(frozen=True)
class ThroughputResult:
    """Throughput of an AC2T configuration."""

    asset_chains: tuple[str, ...]
    witness_chain: str
    tps: float
    bottleneck: str


def chain_tps(chain_id: str, overrides: dict[str, float] | None = None) -> float:
    """Published tps of a chain (Table 1), with optional overrides."""
    table = dict(TABLE1_TPS)
    if overrides:
        table.update(overrides)
    if chain_id not in table:
        raise KeyError(f"no tps figure for chain {chain_id!r}")
    return table[chain_id]


def ac2t_throughput(
    asset_chains: list[str],
    witness_chain: str,
    overrides: dict[str, float] | None = None,
) -> ThroughputResult:
    """min() rule over asset chains plus the witness chain."""
    if not asset_chains:
        raise ValueError("an AC2T spans at least one asset chain")
    involved = list(asset_chains) + [witness_chain]
    rates = {chain: chain_tps(chain, overrides) for chain in involved}
    bottleneck = min(rates, key=lambda c: (rates[c], c))
    return ThroughputResult(
        asset_chains=tuple(asset_chains),
        witness_chain=witness_chain,
        tps=rates[bottleneck],
        bottleneck=bottleneck,
    )


def best_witness(
    asset_chains: list[str], overrides: dict[str, float] | None = None
) -> ThroughputResult:
    """Pick the involved chain that maximizes AC2T throughput as witness.

    Section 6.4: "The witness network should be chosen from the set of
    involved blockchains to avoid limiting the transaction throughput."
    """
    candidates = [
        ac2t_throughput(asset_chains, witness, overrides) for witness in asset_chains
    ]
    return max(candidates, key=lambda result: result.tps)


def paper_example() -> ThroughputResult:
    """The paper's example: ETH+LTC assets witnessed by Bitcoin → 7 tps."""
    return ac2t_throughput(["ethereum", "litecoin"], "bitcoin")


# ---------------------------------------------------------------------------
# Measured throughput: distilled from SwapEngine runs
# ---------------------------------------------------------------------------


def engine_throughput_report(result: "EngineResult") -> list["EngineMetrics"]:
    """Per-protocol measured throughput rows for one engine run.

    The overall row comes first (labelled by its protocol, or "mixed"),
    followed by one row per protocol in name order — ready to print next
    to the analytic Table 1 numbers.  Rows are plain
    :class:`~repro.engine.metrics.EngineMetrics` (which carries
    ``swaps_per_second``), so there is exactly one aggregate type to
    keep in sync.
    """
    rows = [result.metrics]
    if len(result.by_protocol) > 1:
        rows.extend(metrics for _, metrics in sorted(result.by_protocol.items()))
    return rows
