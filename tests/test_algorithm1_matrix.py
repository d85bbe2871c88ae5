"""Exhaustive state-transition matrix for Algorithm 1.

The template admits exactly two transitions — P→RD (valid redeem secret)
and P→RF (valid refund secret) — and nothing else.  We enumerate every
(state, action, secret-validity) combination against a minimal concrete
subclass and assert the full matrix.
"""

import pytest

from repro.chain.contracts import (
    ExecutionContext,
    SmartContract,
    register_contract,
)
from repro.core.contract_template import AtomicSwapContract, SwapState
from repro.errors import ContractRequireError
from repro.crypto.keys import KeyPair

ALICE = KeyPair.from_seed("alice")
BOB = KeyPair.from_seed("bob")


@register_contract
class TokenSwapSC(AtomicSwapContract):
    """Minimal concrete template: secrets are the literal tokens."""

    CLASS_NAME = "TestTokenSwap"

    def is_redeemable(self, ctx, secret):
        return secret == "redeem-token"

    def is_refundable(self, ctx, secret):
        return secret == "refund-token"


def make_contract(state=SwapState.PUBLISHED):
    contract = TokenSwapSC()
    contract.contract_id = b"\x01" * 32
    contract.balance = 100
    contract.owner = ALICE.address
    ctx = ExecutionContext(
        chain_id="t",
        block_height=1,
        block_time=1.0,
        sender=ALICE.address,
        sender_pubkey=ALICE.public_key,
        value=100,
    )
    contract.constructor(ctx, BOB.address.raw)
    contract.state = state
    return contract


def fresh_ctx():
    return ExecutionContext(
        chain_id="t",
        block_height=2,
        block_time=2.0,
        sender=BOB.address,
        sender_pubkey=BOB.public_key,
        value=0,
    )


# The full matrix: (initial state, function, secret, outcome-state or None
# for revert).
MATRIX = [
    (SwapState.PUBLISHED, "redeem", "redeem-token", SwapState.REDEEMED),
    (SwapState.PUBLISHED, "redeem", "refund-token", None),
    (SwapState.PUBLISHED, "redeem", "garbage", None),
    (SwapState.PUBLISHED, "refund", "refund-token", SwapState.REFUNDED),
    (SwapState.PUBLISHED, "refund", "redeem-token", None),
    (SwapState.PUBLISHED, "refund", "garbage", None),
    (SwapState.REDEEMED, "redeem", "redeem-token", None),
    (SwapState.REDEEMED, "refund", "refund-token", None),
    (SwapState.REFUNDED, "redeem", "redeem-token", None),
    (SwapState.REFUNDED, "refund", "refund-token", None),
]


@pytest.mark.parametrize("initial,function,secret,expected", MATRIX)
def test_transition(initial, function, secret, expected):
    contract = make_contract(initial)
    ctx = fresh_ctx()
    action = getattr(contract, function)
    if expected is None:
        with pytest.raises(ContractRequireError):
            action(ctx, secret)
        assert contract.state == initial  # unchanged on revert
    else:
        action(ctx, secret)
        assert contract.state == expected


class TestTransfersAndStamps:
    def test_redeem_pays_recipient(self):
        contract = make_contract()
        ctx = fresh_ctx()
        contract.redeem(ctx, "redeem-token")
        assert ctx._transfers == [(BOB.address, 100)]
        assert contract.redeemed_at == 2.0

    def test_refund_pays_sender(self):
        contract = make_contract()
        ctx = fresh_ctx()
        contract.refund(ctx, "refund-token")
        assert ctx._transfers == [(ALICE.address, 100)]
        assert contract.refunded_at == 2.0

    def test_events_emitted(self):
        contract = make_contract()
        ctx = fresh_ctx()
        contract.redeem(ctx, "redeem-token")
        assert ctx._events[0][0] == "redeemed"

    def test_refund_event_names_the_sender(self):
        contract = make_contract()
        ctx = fresh_ctx()
        contract.refund(ctx, "refund-token")
        assert [name for name, _ in ctx._events] == ["refunded"]
        assert ctx._events[0][1]["sender"] == ALICE.address.hex()

    @pytest.mark.parametrize("function", ["redeem", "refund"])
    def test_a_revert_moves_nothing(self, function):
        """A failed ``requires`` leaves no transfer, event or timestamp."""
        contract = make_contract()
        ctx = fresh_ctx()
        with pytest.raises(ContractRequireError):
            getattr(contract, function)(ctx, "garbage")
        assert ctx._transfers == [] and ctx._events == []
        assert contract.redeemed_at is None and contract.refunded_at is None
