"""What a wallet query and a state clone cost, counted, not timed.

``outpoints_of`` / ``balance_of`` must read one owner's coins however
many other owners the chain holds, and ``ChainState.clone`` plus the
writes that follow must leave every bucket they did not touch shared
with the parent — the two properties the per-block states in
``Blockchain._states`` rely on to stay cheap as the world and the
history grow.
"""

import hashlib

from repro.chain.chain import build_genesis
from repro.chain.contracts import OK_RECEIPT
from repro.chain.messages import TransferMessage
from repro.chain.params import fast_chain
from repro.chain.state import ChainState
from repro.chain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    sign_transaction,
)
from repro.chain.utxo import UTXOSet
from repro.crypto.keys import Address
from tests.conftest import ALICE, BOB

FOREIGN_OUTPUTS = 10_000
PARAMS = fast_chain("utxo-cost")


class CountingAddress(Address):
    """An owner that counts every comparison and hash made of it."""

    touched = 0

    def __eq__(self, other):
        CountingAddress.touched += 1
        return super().__eq__(other)

    def __hash__(self):
        CountingAddress.touched += 1
        return super().__hash__()


def digest(*parts) -> bytes:
    return hashlib.sha256(repr(parts).encode()).digest()


def test_wallet_queries_do_not_visit_foreign_owners():
    utxos = UTXOSet()
    for index in range(FOREIGN_OUTPUTS):
        owner = CountingAddress(digest("owner", index // 4)[:20])
        utxos.add(OutPoint(digest("tx", index), 0), TxOutput(owner, 1))
    mine = sorted(
        (OutPoint(digest("mine", index), index) for index in range(4)),
        key=lambda op: (op.txid, op.index),
    )
    for value, outpoint in enumerate(mine, start=1):
        utxos.add(outpoint, TxOutput(ALICE.address, value))
    assert len(utxos) == FOREIGN_OUTPUTS + 4

    CountingAddress.touched = 0
    assert utxos.outpoints_of(ALICE.address) == mine
    assert utxos.balance_of(ALICE.address) == 1 + 2 + 3 + 4
    assert utxos.outpoints_of(BOB.address) == []
    assert utxos.balance_of(BOB.address) == 0
    # A scan compares all 10 000 foreign owners, four times over; the
    # index meets a foreign owner only on a full 64-bit hash collision.
    assert CountingAddress.touched < 10


def funded_state(coins: int) -> ChainState:
    """A state holding ``coins`` genesis outputs (half ALICE's) and as many
    receipts, as if that many messages had been mined since."""
    state = build_genesis(
        (ALICE.address if index % 2 else Address(digest("owner", index)[:20]), 100)
        for index in range(coins)
    ).state.clone()
    for index in range(coins):
        state.receipts[digest("message", index)] = OK_RECEIPT
    return state


def rewritten(parent, child) -> list[int]:
    """Indices of the buckets ``child`` no longer shares with ``parent``."""
    pairs = zip(parent._buckets, child._buckets, strict=True)
    return [index for index, (ours, theirs) in enumerate(pairs) if ours is not theirs]


def test_clone_then_spend_shares_every_untouched_bucket():
    parent = funded_state(2_000)
    child = parent.clone()
    assert rewritten(parent.utxos._entries, child.utxos._entries) == []
    assert rewritten(parent.utxos._by_owner, child.utxos._by_owner) == []
    assert rewritten(parent.receipts, child.receipts) == []

    spent = child.utxos.outpoints_of(ALICE.address)[0]
    child.utxos.spend(spent)
    assert rewritten(parent.utxos._entries, child.utxos._entries) == [spent.txid[0]]
    assert rewritten(parent.utxos._by_owner, child.utxos._by_owner) == [ALICE.address.raw[0]]
    assert rewritten(parent.receipts, child.receipts) == []
    assert spent in parent.utxos and spent not in child.utxos


def test_clone_then_message_rewrites_only_what_the_message_touched():
    parent = funded_state(2_000)
    before = (len(parent.utxos), len(parent.receipts), parent.balance_of(ALICE.address))
    child = parent.clone()
    coin = child.utxos.outpoints_of(ALICE.address)[0]
    tx = sign_transaction(
        Transaction(inputs=(TxInput(coin),), outputs=(TxOutput(BOB.address, 60),)), ALICE
    )
    message = TransferMessage(tx)
    child.apply_message(message, PARAMS, block_height=1, block_time=1.0)

    touched_entries = {coin.txid[0], tx.txid()[0]}
    touched_owners = {ALICE.address.raw[0], BOB.address.raw[0]}
    assert set(rewritten(parent.utxos._entries, child.utxos._entries)) == touched_entries
    assert set(rewritten(parent.utxos._by_owner, child.utxos._by_owner)) == touched_owners
    assert rewritten(parent.receipts, child.receipts) == [message.message_id()[0]]
    # The parent did not see any of it, and can still write on its own.
    assert (len(parent.utxos), len(parent.receipts), parent.balance_of(ALICE.address)) == before
    parent.utxos.spend(coin)
    assert child.balance_of(BOB.address) == 60
    assert parent.balance_of(BOB.address) == 0
