"""Per-chain parameters and presets modelled on real networks.

The evaluation (Section 6) quotes the throughput of the top-4
permissionless cryptocurrencies (Table 1), Bitcoin's 6-blocks/hour rate,
and per-operation fees.  These presets capture those published numbers so
experiments can instantiate "a Bitcoin-like chain" or "an Ethereum-like
chain" with one call.  Simulation-friendly presets (`fast_chain`) shrink
block intervals so integration tests finish in milliseconds without
changing any protocol-relevant ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class FeeSchedule:
    """Fees charged by miners, in the chain's smallest unit.

    ``fd`` (deploy) and ``ffc`` (function call) follow the paper's
    notation in Section 6.2; ``transfer`` is the plain-transaction fee.
    """

    deploy: int = 0
    call: int = 0
    transfer: int = 0


@dataclass(frozen=True)
class ChainParams:
    """Static configuration of one blockchain.

    Attributes:
        chain_id: unique name, e.g. ``"bitcoin"``.
        symbol: ticker used in displays, e.g. ``"BTC"``.
        block_interval: mean seconds between blocks.
        confirmation_depth: depth ``d`` at which a block is *stable*
            (Section 4.3's stable-block definition; 6 for Bitcoin).
        difficulty_bits: leading zero bits required of a block id.  Kept
            tiny so simulation mining is cheap; the *rule* is what the
            protocols rely on, not the work factor.
        max_messages_per_block: block capacity; together with
            ``block_interval`` this yields the chain's throughput (tps).
        fees: the chain's :class:`FeeSchedule`.
        deterministic_intervals: if True blocks arrive exactly every
            ``block_interval`` seconds; if False intervals are
            exponentially distributed with that mean (Poisson mining).
    """

    chain_id: str
    symbol: str = "TOK"
    block_interval: float = 10.0
    confirmation_depth: int = 6
    difficulty_bits: int = 8
    max_messages_per_block: int = 1000
    fees: FeeSchedule = field(default_factory=FeeSchedule)
    deterministic_intervals: bool = True

    @property
    def tps(self) -> float:
        """Maximum sustained transactions per second."""
        return self.max_messages_per_block / self.block_interval

    @property
    def blocks_per_hour(self) -> float:
        """Expected blocks mined per hour (``dh`` in Section 6.3)."""
        return 3600.0 / self.block_interval

    def with_overrides(self, **changes) -> "ChainParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


# ---------------------------------------------------------------------------
# Presets mirroring the paper's published numbers
# ---------------------------------------------------------------------------


def bitcoin_like() -> ChainParams:
    """Bitcoin: 10-minute blocks, depth 6, 7 tps."""
    return ChainParams(
        chain_id="bitcoin",
        symbol="BTC",
        block_interval=600.0,
        confirmation_depth=6,
        max_messages_per_block=4200,  # 7 tps * 600 s
        fees=FeeSchedule(deploy=200, call=100, transfer=50),
    )


def ethereum_like() -> ChainParams:
    """Ethereum (2019-era PoW): 15-second blocks, depth 12, 25 tps."""
    return ChainParams(
        chain_id="ethereum",
        symbol="ETH",
        block_interval=15.0,
        confirmation_depth=12,
        max_messages_per_block=375,  # 25 tps * 15 s
        fees=FeeSchedule(deploy=200, call=100, transfer=21),
    )


def litecoin_like() -> ChainParams:
    """Litecoin: 2.5-minute blocks, 56 tps."""
    return ChainParams(
        chain_id="litecoin",
        symbol="LTC",
        block_interval=150.0,
        confirmation_depth=6,
        max_messages_per_block=8400,  # 56 tps * 150 s
        fees=FeeSchedule(deploy=150, call=80, transfer=30),
    )


def bitcoin_cash_like() -> ChainParams:
    """Bitcoin Cash: 10-minute blocks, 61 tps."""
    return ChainParams(
        chain_id="bitcoin-cash",
        symbol="BCH",
        block_interval=600.0,
        confirmation_depth=6,
        max_messages_per_block=36600,  # 61 tps * 600 s
        fees=FeeSchedule(deploy=150, call=80, transfer=10),
    )


def fast_chain(
    chain_id: str,
    block_interval: float = 1.0,
    confirmation_depth: int = 2,
    **overrides,
) -> ChainParams:
    """A small, fast chain for tests and simulations.

    Protocol behaviour depends on ratios (Δ ≈ depth × interval), not on
    absolute durations, so tests use second-scale blocks.
    """
    params = ChainParams(
        chain_id=chain_id,
        symbol=chain_id[:3].upper(),
        block_interval=block_interval,
        confirmation_depth=confirmation_depth,
        difficulty_bits=4,
        max_messages_per_block=1000,
        fees=FeeSchedule(deploy=10, call=5, transfer=1),
    )
    if overrides:
        params = params.with_overrides(**overrides)
    return params


def table1_presets() -> list[ChainParams]:
    """The four chains of Table 1 in market-cap order."""
    return [bitcoin_like(), ethereum_like(), litecoin_like(), bitcoin_cash_like()]
