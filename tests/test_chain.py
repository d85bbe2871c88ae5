"""Tests for the block tree: fork choice, reorgs, depth, state queries."""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.chain.block import encode_time
from repro.chain.chain import Blockchain, MessageLocation, build_genesis
from repro.chain.contracts import OK_RECEIPT
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
from repro.workloads import scenarios
from repro.workloads.scenarios import build_multi_scenario, build_scenario, swap_traffic_graphs
from tests.conftest import ALICE, BOB, CAROL, MINER, make_coinbase


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


OWNERS = (ALICE.address, BOB.address, CAROL.address, MINER.address)

# Runs of one (owner, value), as a world funds a participant in equal pieces.
allocation_lists = st.lists(
    st.tuples(st.sampled_from(OWNERS[:3]), st.sampled_from([0, 7, 50_000]), st.integers(1, 3)),
    max_size=8,
).map(lambda runs: [(owner, value) for owner, value, count in runs for _ in range(count)])


def genesis_bytes(chain):
    """Everything genesis commits to, as bytes, and the coins it holds."""
    block = chain.block_at_height(0)
    utxos = chain.state_at(block.block_id()).utxos
    return (
        block.header.wire_bytes(),
        block.block_id(),
        block.header.merkle_root,
        block.header.receipts_root,
        block.messages,
        {op: utxos.get(op) for owner in OWNERS for op in utxos.outpoints_of(owner)},
        len(chain.state_at(block.block_id()).receipts),
    )


def coin_ids(allocations):
    """The message id of the coinbase behind each genesis coin."""
    return [
        TransferMessage(make_coinbase(owner, value, nonce)).message_id()
        for nonce, (owner, value) in enumerate(allocations)
    ]


def observed(chain, message_ids):
    """What a reader of ``chain``'s head can see of its coins and messages."""
    state = chain.state_at()
    owned = {owner: state.utxos.outpoints_of(owner) for owner in OWNERS}
    return (
        owned,
        {op: state.utxos.get(op) for ops in owned.values() for op in ops},
        state.utxos.total_value(),
        {owner: chain.balance_of(owner) for owner in OWNERS},
        {message_id: chain.receipt(message_id) for message_id in message_ids},
        {message_id: chain.find_message(message_id) for message_id in message_ids},
    )


class TestSharedGenesis:
    """Chains funded alike share one genesis value and nothing else."""

    @given(allocation_lists)
    @example([])
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_a_shared_genesis_builds_what_each_chain_builds_alone(self, allocations):
        shared = build_genesis(allocations)
        for name in ("shared-a", "shared-b", "shared-c"):
            together = Blockchain(fast_chain(name), shared)
            alone = Blockchain(fast_chain(name), allocations)
            assert genesis_bytes(together) == genesis_bytes(alone)
            genesis = together.block_at_height(0)
            assert genesis.header.chain_id == name
            assert genesis.messages == () and genesis_bytes(together)[-1] == 0

    def test_one_chain_moving_leaves_its_twin_unchanged(self):
        allocations = [(ALICE.address, 50_000)] * 3 + [(CAROL.address, 100_000)] * 2
        shared = build_genesis(allocations)
        moved = Blockchain(fast_chain("moved"), shared)
        twin = Blockchain(fast_chain("twin"), shared)
        genesis_ids = coin_ids(allocations)

        spend = transfer_message(moved, ALICE, BOB, 500)
        paid = transfer_message(moved, CAROL, ALICE, 900, fee=7)
        ids = genesis_ids + [spend.message_id(), paid.message_id()]
        before = observed(twin, ids)
        base = moved.head_hash
        moved.add_block(moved.make_block([spend, paid], MINER.address, 1.0))
        assert moved.receipt(paid.message_id()).fee_paid == 7
        # A reorg onto an empty branch, then a write straight into the
        # moved chain's genesis state: its own clone, never the shared one.
        fork = moved.make_block([], MINER.address, 1.0, parent_hash=base)
        moved.add_block(fork)
        moved.add_block(moved.make_block([], MINER.address, 2.0, parent_hash=fork.block_id()))
        assert moved.reorgs == 1
        genesis_state = moved.state_at(moved.block_at_height(0).block_id())
        assert genesis_state is not shared.state
        genesis_state.utxos.add(OutPoint(b"\x01" * 32, 0), TxOutput(MINER.address, 5))

        assert observed(twin, ids) == before
        assert twin.reorgs == 0 and twin.height == 0
        assert shared.state.balance_of(MINER.address) == 0
        assert genesis_bytes(twin) == genesis_bytes(Blockchain(fast_chain("twin"), allocations))


def counted_genesis_builds(monkeypatch):
    """The genesis values a world assembly builds, in order."""
    built = []

    def build(allocations):
        built.append(build_genesis(allocations))
        return built[-1]

    monkeypatch.setattr(scenarios, "build_genesis", build)
    return built


class TestWorldGenesis:
    def test_chains_funded_alike_share_one_genesis(self, monkeypatch):
        built = counted_genesis_builds(monkeypatch)
        env = build_scenario(participants=["a", "b"], chain_ids=["chain-a", "chain-b"])
        assert len(built) == 1 and len(env.chains) == 3
        genesis = built[0]
        states = set()
        for chain_id, chain in env.chains.items():
            block = chain.block_at_height(0)
            assert block.messages == ()
            assert block.header.merkle_root == genesis.merkle_root
            assert block.header.chain_id == chain_id
            states.add(id(chain.state_at(block.block_id())))
        assert len(states) == 3 and id(genesis.state) not in states

    def test_member_lists_of_one_size_are_not_one_genesis(self, monkeypatch):
        # The engine-smoke shape: each two-party swap touches two of three
        # asset chains, so every asset chain has four members, each set
        # different, and the witness chain funds all six.
        built = counted_genesis_builds(monkeypatch)
        graphs = swap_traffic_graphs(3, ["chain-0", "chain-1", "chain-2"])
        env = build_multi_scenario(graphs, funding=1_000)
        assert len(built) == len(env.chains) == 4
        for graph in graphs:
            funded_on = graph.chains_used() | {"witness"}
            for name in graph.participant_names():
                address = env.participant(name).address
                for chain_id, chain in env.chains.items():
                    expected = 1_000 if chain_id in funded_on else 0
                    assert chain.balance_of(address) == expected, (name, chain_id)


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


class TestMessageIndex:
    """The index keeps block hashes; a location is built when asked."""

    def test_a_message_on_two_branches_follows_the_main_chain(self, chain):
        base = chain.head_hash
        msg = transfer_message(chain, ALICE, BOB, 10)
        other = transfer_message(chain, BOB, CAROL, 5)
        mid = msg.message_id()

        def located(block, index):
            assert chain.find_message(mid) == MessageLocation(
                block.block_id(), block.header.height, index
            )
            proof, header = chain.inclusion_proof(mid)
            assert header == block.header
            assert proof.leaf == mid and proof.verify(header.merkle_root)
            return chain.message_depth(mid)

        a1 = chain.make_block([msg], MINER.address, 1.0, parent_hash=base)
        chain.add_block(a1)
        assert located(a1, 0) == 1
        # The same message at another position on a competing branch.
        b1 = chain.make_block([other, msg], MINER.address, 1.0, parent_hash=base)
        chain.add_block(b1)
        assert located(a1, 0) == 1  # equal work: the first-seen branch stays
        b2 = chain.make_block([], MINER.address, 2.0, parent_hash=b1.block_id())
        chain.add_block(b2)
        assert chain.head_hash == b2.block_id()
        assert located(b1, 1) == 2
        # And back: the first branch's inclusion was kept, not replaced.
        a2 = chain.make_block([], MINER.address, 2.0, parent_hash=a1.block_id())
        chain.add_block(a2)
        a3 = chain.make_block([], MINER.address, 3.0, parent_hash=a2.block_id())
        chain.add_block(a3)
        assert chain.head_hash == a3.block_id() and chain.reorgs == 2
        assert located(a1, 0) == 3
        assert chain.find_message(other.message_id()) is None

    def test_a_genesis_coin_is_no_message(self):
        allocations = [(ALICE.address, 7), (ALICE.address, 7), (BOB.address, 9)]
        chain = Blockchain(fast_chain("coins"), allocations)
        genesis = chain.block_at_height(0)
        for message_id in coin_ids(allocations) + [b"\x00" * 32]:
            assert chain.find_message(message_id) is None
            assert chain.receipt(message_id) is None
            assert chain.inclusion_proof(message_id) is None
            assert chain.message_depth(message_id) == 0
        # Its root commits to receipts no chain holds: asking for them is
        # an error, not a tree that no longer matches the header.
        with pytest.raises(UnknownBlockError, match="no receipts"):
            chain.receipts_data(genesis.block_id())
        assert chain._message_index == {} and genesis.messages == ()
        block = chain.make_block([], MINER.address, 1.0)
        chain.add_block(block)
        assert chain.receipts_data(block.block_id())[1].root() == block.header.receipts_root


class TestReceipts:
    def test_fee_free_receipts_are_one_instance_and_fee_paying_are_not(self):
        params = fast_chain("fee-free")
        params = dataclasses.replace(params, fees=dataclasses.replace(params.fees, transfer=0))
        chain = Blockchain(params, [(ALICE.address, 100), (BOB.address, 100)])
        free = [transfer_message(chain, sender, CAROL, 10, fee=0) for sender in (ALICE, BOB)]
        chain.add_block(chain.make_block(free, MINER.address, 0.5))
        assert all(chain.receipt(m.message_id()) is OK_RECEIPT for m in free)
        msg = transfer_message(chain, ALICE, BOB, 10, fee=7)
        chain.add_block(chain.make_block([msg], MINER.address, 1.0))
        receipt = chain.receipt(msg.message_id())
        assert receipt is not OK_RECEIPT
        assert (receipt.status, receipt.fee_paid) == ("ok", 7)
        assert chain.receipts_data(chain.head_hash)[0] == [(msg.message_id(), "ok")]
