"""Algorithm 1: the atomic-swap smart-contract template.

Every protocol-specific contract in the paper derives from one template:
a sender ``s``, a recipient ``r``, a locked asset ``a``, a state in
{Published, Redeemed, Refunded}, and a pair of commitment-scheme
instances (redemption and refund).  ``redeem`` transfers ``a`` to ``r``
when the redemption secret verifies; ``refund`` returns ``a`` to ``s``
when the refund secret verifies; both require state ``P``.

Subclasses specialize :meth:`is_redeemable` / :meth:`is_refundable`
exactly as Algorithms 2 and 4 do in the paper.
"""

from __future__ import annotations

from typing import Any

from ..chain.contracts import ExecutionContext, SmartContract, requires
from ..crypto.keys import Address


class SwapState:
    """The three states of an atomic-swap contract (Algorithm 1, line 1)."""

    PUBLISHED = "P"
    REDEEMED = "RD"
    REFUNDED = "RF"


class AtomicSwapContract(SmartContract):
    """The abstract template (Algorithm 1).

    Constructor arguments (beyond subclass-specific commitment data):
        recipient_raw: the 20-byte address of the recipient ``r``.

    The sender ``s`` is ``msg.sender``; the asset ``a`` is ``msg.value``
    (both implicit parameters of the deployment message, Section 2.3).
    """

    CLASS_NAME = "AtomicSwapTemplate"

    def constructor(self, ctx: ExecutionContext, recipient_raw: bytes, *args: Any) -> None:
        self.sender = ctx.sender  # s
        self.recipient = Address(recipient_raw)  # r
        self.asset = ctx.value  # a
        self.state = SwapState.PUBLISHED
        self.redeemed_at: float | None = None
        self.refunded_at: float | None = None

    # -- Algorithm 1, lines 13-17 -------------------------------------------

    def redeem(self, ctx: ExecutionContext, secret: Any) -> None:
        """Transfer ``a`` to ``r`` if the redemption secret verifies."""
        requires(self.state == SwapState.PUBLISHED, "contract is not in state P")
        requires(self.is_redeemable(ctx, secret), "redemption secret invalid")
        ctx.transfer(self.recipient, self.asset)
        self.state = SwapState.REDEEMED
        self.redeemed_at = ctx.block_time
        ctx.emit("redeemed", contract=self.contract_id, recipient=self.recipient.hex())

    # -- Algorithm 1, lines 18-22 --------------------------------------------

    def refund(self, ctx: ExecutionContext, secret: Any) -> None:
        """Return ``a`` to ``s`` if the refund secret verifies."""
        requires(self.state == SwapState.PUBLISHED, "contract is not in state P")
        requires(self.is_refundable(ctx, secret), "refund secret invalid")
        ctx.transfer(self.sender, self.asset)
        self.state = SwapState.REFUNDED
        self.refunded_at = ctx.block_time
        ctx.emit("refunded", contract=self.contract_id, sender=self.sender.hex())

    # -- Algorithm 1, lines 23-28 (specialized by subclasses) -------------------

    def is_redeemable(self, ctx: ExecutionContext, secret: Any) -> bool:
        """Verify the redemption commitment-scheme secret."""
        raise NotImplementedError

    def is_refundable(self, ctx: ExecutionContext, secret: Any) -> bool:
        """Verify the refund commitment-scheme secret."""
        raise NotImplementedError
