"""Per-chain fee-rate estimation from recent blocks.

A :class:`FeeEstimator` watches one chain through its on-block hook and
answers "what fee rate buys inclusion right now?" the way real wallets
do: from the fee rates of recently *included* messages.

The signal is block fullness.  While recent blocks leave block space
unused, the min-relay floor clears; once they run near the block-space
budget, inclusion is an auction and the estimate climbs to a percentile
of recently included fee rates (plus one unit to outbid the marginal
message).  Everything is a pure function of the observed block sequence,
so estimates are exactly as deterministic as the chain that produced
them.
"""

from __future__ import annotations

from collections import deque

from ..chain.block import Block
from ..chain.chain import Blockchain
from .policy import FeePolicy

#: A block using at least this fraction of its weight budget is "full".
FULLNESS_THRESHOLD = 0.9


class FeeEstimator:
    """Estimates the going fee rate on one chain (see module docstring).

    Args:
        chain: the chain to watch (subscribes to its block hook).
        policy: the chain's fee policy (weights + block budget).
        window: how many recent blocks inform the estimate.
        percentile: which percentile of included fee rates to quote under
            congestion (higher = more conservative, faster inclusion).
    """

    def __init__(
        self,
        chain: Blockchain,
        policy: FeePolicy | None = None,
        window: int = 8,
        percentile: float = 60.0,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        self.chain = chain
        self.policy = policy or FeePolicy()
        self.window = window
        self.percentile = percentile
        self.blocks_observed = 0
        #: (used_weight, sorted fee rates) of the last ``window`` blocks.
        self._recent: deque[tuple[int, tuple[float, ...]]] = deque(maxlen=window)
        chain.add_block_listener(self._observe)

    # -- observation ---------------------------------------------------------

    def _observe(self, block: Block) -> None:
        block_hash = block.block_id()
        used = 0
        rates: list[float] = []
        for message in block.messages:
            weight = self.policy.weight_of(message)
            used += weight
            receipt = self.chain.receipt(message.message_id(), block_hash)
            if receipt is not None and receipt.fee_paid > 0:
                rates.append(receipt.fee_paid / weight)
        self.blocks_observed += 1
        self._recent.append((used, tuple(sorted(rates))))

    # -- estimation ----------------------------------------------------------

    def _floor(self) -> int:
        return max(self.policy.min_relay_fee_rate, 1)

    def congestion(self) -> float:
        """Fraction of recent blocks that ran (near) full of block space."""
        budget = self.policy.block_weight_budget
        if budget is None or not self._recent:
            return 0.0
        full = sum(
            1 for used, _ in self._recent if used >= FULLNESS_THRESHOLD * budget
        )
        return full / len(self._recent)

    def estimate(self) -> int:
        """The fee rate (fee per weight unit) to attach right now.

        Uncongested chains clear at the relay floor; congested ones
        quote the configured percentile of recently included fee rates,
        plus one unit to outbid the marginal message.
        """
        if self.congestion() < 0.5:
            return self._floor()
        rates = sorted(
            rate for _, block_rates in self._recent for rate in block_rates
        )
        if not rates:
            return self._floor()
        rank = max(1, -(-int(len(rates) * self.percentile) // 100))  # ceiling division
        quoted = rates[min(rank, len(rates)) - 1]
        return max(self._floor(), int(quoted) + 1)
