"""Tests for the mempool and miner actors."""

import pytest

from repro.chain.chain import Blockchain
from repro.chain.mempool import Mempool
from repro.chain.miner import AttackMiner, MinerNode
from repro.chain.messages import TransferMessage
from repro.chain.params import fast_chain
from repro.errors import ValidationError
from repro.sim.simulator import Simulator
from tests.conftest import ALICE, BOB, MINER, make_coinbase
from tests.test_chain import transfer_message


class TestMempool:
    def test_submit_and_take(self, chain, mempool):
        msg = transfer_message(chain, ALICE, BOB, 10)
        mempool.submit(msg)
        assert len(mempool) == 1
        assert mempool.take_block(10) == [msg]
        assert len(mempool) == 0

    def test_fifo_order(self, chain, mempool):
        m1 = transfer_message(chain, ALICE, BOB, 10)
        m2 = transfer_message(chain, BOB, ALICE, 20)
        mempool.submit(m1)
        mempool.submit(m2)
        assert mempool.take_block(2) == [m1, m2]

    def test_take_limit(self, chain, mempool):
        m1 = transfer_message(chain, ALICE, BOB, 10)
        m2 = transfer_message(chain, BOB, ALICE, 20)
        mempool.submit(m1)
        mempool.submit(m2)
        assert mempool.take_block(1) == [m1]
        assert len(mempool) == 1

    def test_duplicate_submission_rejected(self, chain, mempool):
        msg = transfer_message(chain, ALICE, BOB, 10)
        mempool.submit(msg)
        with pytest.raises(ValidationError):
            mempool.submit(msg)

    def test_already_included_rejected(self, chain, mempool):
        msg = transfer_message(chain, ALICE, BOB, 10)
        chain.add_block(chain.make_block([msg], MINER.address, 1.0))
        with pytest.raises(ValidationError):
            mempool.submit(msg)

    def test_coinbase_rejected(self, chain, mempool):
        with pytest.raises(ValidationError, match="coinbase"):
            mempool.submit(TransferMessage(make_coinbase(ALICE.address, 5)))

    def test_requeue_preserves_order(self, chain, mempool):
        m1 = transfer_message(chain, ALICE, BOB, 10)
        m2 = transfer_message(chain, BOB, ALICE, 20)
        mempool.submit(m1)
        mempool.submit(m2)
        batch = mempool.take_block(2)
        mempool.requeue(batch)
        assert mempool.take_block(2) == [m1, m2]


class TestMinerNode:
    def test_blocks_arrive_on_schedule(self, simulator, chain, mempool):
        miner = MinerNode(simulator, chain, mempool)
        miner.start()
        simulator.run_until(5.5)
        assert chain.height == 5  # 1-second deterministic intervals

    def test_messages_included(self, simulator, chain, mempool):
        miner = MinerNode(simulator, chain, mempool)
        msg = transfer_message(chain, ALICE, BOB, 42)
        mempool.submit(msg)
        miner.start()
        simulator.run_until(1.5)
        assert chain.find_message(msg.message_id()) is not None

    def test_invalid_message_dropped_not_fatal(self, simulator, chain, mempool):
        good = transfer_message(chain, ALICE, BOB, 10)
        conflicting = transfer_message(chain, ALICE, BOB, 11)
        # Both spend the same outpoints: the second is invalid once the
        # first applies.
        mempool.submit(good)
        mempool.submit(conflicting)
        miner = MinerNode(simulator, chain, mempool)
        miner.start()
        simulator.run_until(1.5)
        assert chain.find_message(good.message_id()) is not None
        assert chain.find_message(conflicting.message_id()) is None
        assert miner.messages_dropped == 1

    def test_crashed_miner_stops_producing(self, simulator, chain, mempool):
        miner = MinerNode(simulator, chain, mempool)
        miner.start()
        simulator.run_until(2.5)
        miner.crash()
        simulator.run_until(6.5)
        assert chain.height == 2

    def test_stop(self, simulator, chain, mempool):
        miner = MinerNode(simulator, chain, mempool)
        miner.start()
        simulator.run_until(1.5)
        miner.stop()
        simulator.run_until(10.0)
        assert chain.height == 1

    def test_poisson_intervals(self):
        sim = Simulator(seed=3)
        params = fast_chain("poisson").with_overrides(deterministic_intervals=False)
        chain = Blockchain(params, [(ALICE.address, 1000)])
        miner = MinerNode(sim, chain, Mempool(chain))
        miner.start()
        sim.run_until(30.0)
        # Mean interval 1s over 30s: expect ~30 blocks, loosely bounded.
        assert 10 <= chain.height <= 60

    def test_on_block_callbacks(self, simulator, chain, mempool):
        miner = MinerNode(simulator, chain, mempool)
        seen = []
        miner.on_block.append(lambda block: seen.append(block.header.height))
        miner.start()
        simulator.run_until(3.5)
        assert seen == [1, 2, 3]


class TestAttackMiner:
    def test_private_branch_reorgs_public_chain(self, simulator, chain, mempool):
        miner = MinerNode(simulator, chain, mempool)
        miner.start()
        simulator.run_until(3.5)
        fork_point = chain.block_at_height(1).block_id()
        public_head = chain.head_hash

        attacker = AttackMiner(chain)
        attacker.fork_from(fork_point)
        # Public chain has 2 blocks past the fork point; mine 3 privately.
        for i in range(3):
            attacker.extend([], timestamp=4.0 + i)
        assert attacker.private_length == 3
        assert attacker.release() is True
        assert chain.head_hash != public_head
        assert chain.height == 4  # height 1 + 3 private blocks

    def test_short_private_branch_loses(self, simulator, chain, mempool):
        miner = MinerNode(simulator, chain, mempool)
        miner.start()
        simulator.run_until(5.5)
        attacker = AttackMiner(chain)
        attacker.fork_from(chain.block_at_height(1).block_id())
        attacker.extend([], timestamp=6.0)
        public_head = chain.head_hash
        assert attacker.release() is False
        assert chain.head_hash == public_head

    def test_extend_requires_fork_point(self, chain):
        attacker = AttackMiner(chain)
        with pytest.raises(ValidationError):
            attacker.extend([], timestamp=1.0)
