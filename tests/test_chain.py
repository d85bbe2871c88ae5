"""Tests for the block tree: fork choice, reorgs, depth, state queries."""

import pytest

from repro.chain.block import encode_time
from repro.chain.chain import Blockchain
from repro.chain.messages import TransferMessage
from repro.chain.params import fast_chain
from repro.chain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    sign_transaction,
)
from repro.errors import InvalidBlockError, UnknownBlockError
from tests.conftest import ALICE, BOB, MINER


def transfer_message(chain, sender, recipient, amount, fee=1):
    state = chain.state_at()
    outpoints = state.utxos.outpoints_of(sender.address)
    total = 0
    chosen = []
    for op in outpoints:
        chosen.append(op)
        total += state.utxos.get(op).value
        if total >= amount + fee:
            break
    outputs = [TxOutput(recipient.address, amount)]
    if total > amount + fee:
        outputs.append(TxOutput(sender.address, total - amount - fee))
    tx = sign_transaction(
        Transaction(
            inputs=tuple(TxInput(op) for op in chosen), outputs=tuple(outputs)
        ),
        sender,
    )
    return TransferMessage(tx)


class TestGenesis:
    def test_genesis_allocations(self, chain):
        assert chain.balance_of(ALICE.address) == 100_000

    def test_genesis_is_head(self):
        c = Blockchain(fast_chain("t2"), [(ALICE.address, 10)])
        assert c.height == 0
        assert c.head_hash == c.block_at_height(0).block_id()

    def test_empty_genesis_allowed(self):
        c = Blockchain(fast_chain("t3"))
        assert c.state_at().utxos.total_value() == 0


class TestBlockBuilding:
    def test_extend_head(self, chain):
        block = chain.make_block([], MINER.address, 1.0)
        assert chain.add_block(block) is True
        assert chain.height == 1

    def test_transfer_applied(self, chain):
        msg = transfer_message(chain, ALICE, BOB, 500)
        block = chain.make_block([msg], MINER.address, 1.0)
        chain.add_block(block)
        assert chain.balance_of(BOB.address) == 100_500

    def test_fees_minted_to_miner(self, chain):
        msg = transfer_message(chain, ALICE, BOB, 500, fee=7)
        block = chain.make_block([msg], MINER.address, 1.0)
        chain.add_block(block)
        assert chain.balance_of(MINER.address) == 7

    def test_value_conserved(self, chain):
        before = chain.state_at().utxos.total_value()
        msg = transfer_message(chain, ALICE, BOB, 123, fee=3)
        chain.add_block(chain.make_block([msg], MINER.address, 1.0))
        assert chain.state_at().utxos.total_value() == before

    def test_duplicate_block_ignored(self, chain):
        block = chain.make_block([], MINER.address, 1.0)
        chain.add_block(block)
        assert chain.add_block(block) is False


class TestValidation:
    def test_unknown_parent_rejected(self, chain):
        block = chain.make_block([], MINER.address, 1.0)
        orphan = chain.make_block([], MINER.address, 2.0)
        # Build a block on `block` without connecting `block` first.
        chain.add_block(block)
        child = chain.make_block([], MINER.address, 3.0, parent_hash=block.block_id())
        fresh = Blockchain(
            chain.params, [(ALICE.address, 100_000), (BOB.address, 100_000)]
        )
        with pytest.raises(InvalidBlockError):
            fresh.add_block(child)
        del orphan

    def test_wrong_chain_id_rejected(self, chain):
        other = Blockchain(fast_chain("other"), [(ALICE.address, 10)])
        block = other.make_block([], MINER.address, 1.0)
        with pytest.raises(InvalidBlockError):
            chain.add_block(block)

    def test_double_spend_across_blocks_rejected(self, chain):
        from repro.errors import ChainError

        msg = transfer_message(chain, ALICE, BOB, 500)
        chain.add_block(chain.make_block([msg], MINER.address, 1.0))
        with pytest.raises(ChainError):
            # Same message again: replay is rejected at state level
            # (during the block build's trial application).
            chain.add_block(chain.make_block([msg], MINER.address, 2.0))

    def test_tampered_merkle_root_rejected(self, chain):
        from dataclasses import replace

        block = chain.make_block([], MINER.address, 1.0)
        bad_header = replace(block.header, merkle_root=b"\x00" * 32)
        from repro.chain.block import Block

        with pytest.raises(InvalidBlockError):
            chain.add_block(Block(header=bad_header, messages=block.messages))

    def test_tampered_receipts_root_rejected(self, chain):
        """The tree make_block left behind is reused at connect time only
        as the tree of the *executed* statuses; the header is still held
        to it."""
        from dataclasses import replace
        from repro.chain.block import Block, receipts_merkle_tree
        from repro.chain.pow import mine_header

        msg = transfer_message(chain, ALICE, BOB, 500)
        block = chain.make_block([msg], MINER.address, 1.0)
        claimed = receipts_merkle_tree([(msg.message_id(), "reverted")]).root()
        forged = mine_header(replace(block.header, receipts_root=claimed))
        with pytest.raises(InvalidBlockError, match="receipts root"):
            chain.add_block(Block(header=forged, messages=block.messages))
        assert chain.add_block(block)

    def test_supplied_statuses_do_not_replace_execution(self, chain):
        msg = transfer_message(chain, ALICE, BOB, 500)
        lying = chain.make_block(
            [msg], MINER.address, 1.0, statuses=[(msg.message_id(), "reverted")]
        )
        with pytest.raises(InvalidBlockError, match="receipts root"):
            chain.add_block(lying)

    def test_decreasing_timestamp_rejected(self, chain):
        chain.add_block(chain.make_block([], MINER.address, 10.0))
        from dataclasses import replace
        from repro.chain.block import Block
        from repro.chain.pow import mine_header

        template = chain.make_block([], MINER.address, 10.0).header
        bad = replace(template, time_ticks=encode_time(5.0))
        mined = mine_header(bad)
        with pytest.raises(InvalidBlockError):
            chain.add_block(Block(header=mined, messages=()))


class TestForksAndReorgs:
    def test_fork_keeps_first_seen_head(self, chain):
        base = chain.head_hash
        a = chain.make_block([], MINER.address, 1.0, parent_hash=base)
        chain.add_block(a)
        b = chain.make_block(
            [transfer_message(chain, ALICE, BOB, 1)], MINER.address, 1.0, parent_hash=base
        )
        chain.add_block(b)  # same height, equal work: a stays head
        assert chain.head_hash == a.block_id()

    def test_longer_branch_wins(self, chain):
        base = chain.head_hash
        a = chain.make_block([], MINER.address, 1.0, parent_hash=base)
        chain.add_block(a)
        b1 = chain.make_block(
            [transfer_message(chain, ALICE, BOB, 1)], MINER.address, 1.0, parent_hash=base
        )
        chain.add_block(b1)
        b2 = chain.make_block([], MINER.address, 2.0, parent_hash=b1.block_id())
        chain.add_block(b2)
        assert chain.head_hash == b2.block_id()

    def test_reorg_switches_state(self, chain):
        base = chain.head_hash
        spend_a = transfer_message(chain, ALICE, BOB, 111)
        a = chain.make_block([spend_a], MINER.address, 1.0, parent_hash=base)
        chain.add_block(a)
        assert chain.balance_of(BOB.address) == 100_111

        spend_b = transfer_message(chain, ALICE, BOB, 222)
        # Build the competing branch from `base`; craft messages against
        # the base state (transfer_message reads head state, so rebuild).
        b1 = chain.make_block([], MINER.address, 1.0, parent_hash=base)
        chain.add_block(b1)
        b2 = chain.make_block([], MINER.address, 2.0, parent_hash=b1.block_id())
        chain.add_block(b2)
        # The b-branch carries no spend: after reorg Bob is back to genesis.
        assert chain.head_hash == b2.block_id()
        assert chain.balance_of(BOB.address) == 100_000
        del spend_b

    def test_depth(self, chain):
        hashes = [chain.head_hash]
        for i in range(4):
            block = chain.make_block([], MINER.address, float(i + 1))
            chain.add_block(block)
            hashes.append(block.block_id())
        assert chain.depth_of(hashes[-1]) == 1
        assert chain.depth_of(hashes[0]) == 5

    def test_off_chain_block_depth_zero(self, chain):
        base = chain.head_hash
        a = chain.make_block([], MINER.address, 1.0, parent_hash=base)
        chain.add_block(a)
        b = chain.make_block(
            [transfer_message(chain, ALICE, BOB, 1)], MINER.address, 1.0, parent_hash=base
        )
        chain.add_block(b)
        assert chain.depth_of(b.block_id()) == 0


class TestQueries:
    def test_find_message(self, chain):
        msg = transfer_message(chain, ALICE, BOB, 10)
        chain.add_block(chain.make_block([msg], MINER.address, 1.0))
        location = chain.find_message(msg.message_id())
        assert location is not None
        assert location.height == 1

    def test_message_depth_grows(self, chain):
        msg = transfer_message(chain, ALICE, BOB, 10)
        chain.add_block(chain.make_block([msg], MINER.address, 1.0))
        assert chain.message_depth(msg.message_id()) == 1
        chain.add_block(chain.make_block([], MINER.address, 2.0))
        assert chain.message_depth(msg.message_id()) == 2

    def test_absent_message_depth_zero(self, chain):
        assert chain.message_depth(b"\x00" * 32) == 0

    def test_inclusion_proof_verifies(self, chain):
        msg = transfer_message(chain, ALICE, BOB, 10)
        chain.add_block(chain.make_block([msg], MINER.address, 1.0))
        proof, header = chain.inclusion_proof(msg.message_id())
        assert proof.verify(header.merkle_root)

    def test_header_chain_contiguous(self, chain):
        for i in range(3):
            chain.add_block(chain.make_block([], MINER.address, float(i + 1)))
        headers = chain.header_chain(0)
        assert [h.height for h in headers] == [0, 1, 2, 3]

    def test_block_at_height_bounds(self, chain):
        with pytest.raises(UnknownBlockError):
            chain.block_at_height(99)

    def test_unknown_block_raises(self, chain):
        with pytest.raises(UnknownBlockError):
            chain.block(b"\xff" * 32)

    def test_main_chain_iteration(self, chain):
        for i in range(3):
            chain.add_block(chain.make_block([], MINER.address, float(i + 1)))
        heights = [b.header.height for b in chain.main_chain()]
        assert heights == [0, 1, 2, 3]

    def test_stable_header(self, chain):
        for i in range(5):
            chain.add_block(chain.make_block([], MINER.address, float(i + 1)))
        stable = chain.stable_header()
        # depth-2 chain: stable header is at height height-1
        assert stable.height == chain.height - chain.params.confirmation_depth + 1
