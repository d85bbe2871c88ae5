"""Fee-market configuration: block space, relay rules, and swap budgets.

The paper's cost model (Section 5 / Table 1) prices AC2T protocols by
the messages they publish, which only bites when block space is scarce.
This module defines the knobs that make it scarce:

* :class:`FeePolicy` — one chain's economic consensus: message weights,
  block-space budget, mempool capacity, min-relay fee rate, and the
  replace-by-fee rule.  Attached to a
  :class:`~repro.chain.mempool.Mempool`.
* :class:`FeeBudget` — one *swap's* willingness to pay: a total fee cap
  plus the bump-or-abort rebroadcast parameters protocol drivers apply
  when their messages are evicted.

Weights are the simulation's gas: a deploy carries contract code and
constructor arguments, a call carries evidence payloads, a transfer is
the unit.  A message's *fee rate* is ``fee / weight`` — the quantity
miners maximize and mempools order by.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..chain.messages import CallMessage, ChainMessage, DeployMessage
from ..errors import FeeError


@dataclass(frozen=True)
class FeePolicy:
    """One chain's fee-market rules.

    Attributes:
        block_weight_budget: block space per block, in weight units
            (None = unlimited — block building falls back to the
            message-count cap alone).
        capacity_weight: mempool capacity, in weight units (None =
            unlimited, nothing is ever evicted).
        min_relay_fee_rate: lowest fee rate (fee per weight unit) the
            mempool relays; cheaper messages are rejected at submit.
        rbf_bump: multiplicative fee-rate improvement a replacement must
            offer over the conflicting pending message it displaces.
        deploy_weight / call_weight / transfer_weight: per-kind weights.
    """

    block_weight_budget: int | None = 40
    capacity_weight: int | None = 400
    min_relay_fee_rate: int = 1
    rbf_bump: float = 1.25
    deploy_weight: int = 4
    call_weight: int = 2
    transfer_weight: int = 1

    def __post_init__(self) -> None:
        if self.min_relay_fee_rate < 0:
            raise FeeError("min_relay_fee_rate must be non-negative")
        if self.rbf_bump < 1.0:
            raise FeeError("rbf_bump must be at least 1.0")
        for field_name in (
            "deploy_weight",
            "call_weight",
            "transfer_weight",
            "block_weight_budget",
            "capacity_weight",
        ):
            value = getattr(self, field_name)
            if value is not None and value < 1:
                raise FeeError(f"{field_name} must be at least 1 (or None)")

    # -- message pricing ----------------------------------------------------

    def weight_of_kind(self, kind: str) -> int:
        if kind == "deploy":
            return self.deploy_weight
        if kind == "call":
            return self.call_weight
        return self.transfer_weight

    def weight_of(self, message: ChainMessage) -> int:
        return self.weight_of_kind(message.kind)


#: Weights used when no fee market is configured (plain mempools).
DEFAULT_POLICY = FeePolicy()


@dataclass(frozen=True)
class FeeBudget:
    """One swap's fee-spending envelope and rebroadcast policy.

    Attributes:
        cap: maximum total fees this swap may commit across all chains.
        fee_rate: initial fee rate attached to every message (None = ask
            the chain's :class:`~repro.economy.estimator.FeeEstimator`,
            falling back to the chain's min-relay rate).
        bump_factor: fee-rate multiplier applied when a message is
            evicted and rebroadcast (replace-by-fee bump).
        max_bumps: rebroadcast attempts per message before the swap
            gives up on that message (bump-or-abort's "abort" arm).
    """

    cap: int
    fee_rate: int | None = None
    bump_factor: float = 2.0
    max_bumps: int = 3

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise FeeError("fee budget cap must be non-negative")
        if self.fee_rate is not None and self.fee_rate < 0:
            raise FeeError("fee_rate must be non-negative")
        if self.bump_factor < 1.0:
            raise FeeError("bump_factor must be at least 1.0")
        if self.max_bumps < 0:
            raise FeeError("max_bumps must be non-negative")

    def bumped_rate(self, rate: int) -> int:
        """The next fee rate after one bump (always strictly higher)."""
        return max(rate + 1, int(rate * self.bump_factor))


def bump_fee(
    message: DeployMessage | CallMessage, new_fee: int
) -> DeployMessage | CallMessage:
    """An unsigned copy of ``message`` paying ``new_fee``, funded from change.

    The fee increase is carved out of the message's change outputs (the
    funding inputs stay identical, which is what makes the copy a
    replace-by-fee candidate: it conflicts with the original).  Raises
    :class:`~repro.errors.FeeError` when the change cannot cover the
    increase — the caller must then abandon instead of bumping.
    """
    delta = new_fee - message.fee
    if delta <= 0:
        raise FeeError(f"bump must raise the fee (old {message.fee}, new {new_fee})")
    available = sum(out.value for out in message.change)
    if available < delta:
        raise FeeError(
            f"change {available} cannot fund a fee bump of {delta}"
        )
    remaining = delta
    new_change = []
    for out in message.change:
        take = min(out.value, remaining)
        remaining -= take
        if out.value - take > 0:
            new_change.append(replace(out, value=out.value - take))
    common = dict(
        sender=message.sender,
        args=message.args,
        value=message.value,
        fee=new_fee,
        inputs=message.inputs,
        change=tuple(new_change),
        nonce=message.nonce,
        signature=None,
    )
    if isinstance(message, DeployMessage):
        return DeployMessage(contract_class=message.contract_class, **common)
    return CallMessage(
        contract_id=message.contract_id, function=message.function, **common
    )
