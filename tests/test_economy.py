"""Tests for the fee-market economy subsystem.

Covers the :mod:`repro.economy` primitives (policy, priority mempool,
estimator), the O(1) main-chain height index they lean on, the driver
level bump-or-abort policy, workload crash injection, and the
end-to-end acceptance scenario: an oversubscribed engine run where
congestion prices low-fee-budget swaps out while high-fee-budget swaps
commit — with zero atomicity violations and a reproducible trace.
"""

import pytest

from repro.chain.chain import Blockchain
from repro.chain.mempool import Mempool
from repro.chain.miner import AttackMiner, MinerNode
from repro.chain.messages import TransferMessage
from repro.chain.params import fast_chain
from repro.chain.transaction import Transaction, TxInput, TxOutput, sign_transaction
from repro.economy import FeeBudget, FeeEstimator, FeePolicy, bump_fee
from repro.engine import SwapEngine
from repro.errors import FeeError, FeeTooLowError, ValidationError
from repro.sim.simulator import Simulator
from repro.workloads.scenarios import (
    HIGH_FEE_BUDGET,
    LOW_FEE_BUDGET,
    build_multi_scenario,
    congestion_budgets,
    schedule_fee_shock,
    swap_traffic,
)
from tests.conftest import ALICE, BOB, CAROL, MINER

#: Wallets with many independent UTXOs, so tests can build arbitrarily
#: many non-conflicting messages.
CHUNKS = 12
CHUNK_VALUE = 1_000


@pytest.fixture
def econ_chain():
    allocations = [
        (kp.address, CHUNK_VALUE)
        for kp in (ALICE, BOB, CAROL)
        for _ in range(CHUNKS)
    ]
    return Blockchain(fast_chain("econ"), allocations)


def spend(chain, sender, index, fee, pool_or_none=None):
    """A self-transfer spending the sender's ``index``-th UTXO at ``fee``."""
    state = chain.state_at()
    outpoint = state.utxos.outpoints_of(sender.address)[index]
    value = state.utxos.get(outpoint).value
    tx = sign_transaction(
        Transaction(
            inputs=(TxInput(outpoint),),
            outputs=(TxOutput(sender.address, value - fee),),
        ),
        sender,
    )
    return TransferMessage(tx)


class TestFeePolicy:
    def test_validation(self):
        with pytest.raises(FeeError):
            FeePolicy(min_relay_fee_rate=-1)
        with pytest.raises(FeeError):
            FeePolicy(rbf_bump=0.5)
        with pytest.raises(FeeError):
            FeePolicy(deploy_weight=0)

    def test_weights_by_kind(self):
        policy = FeePolicy(deploy_weight=4, call_weight=2, transfer_weight=1)
        assert policy.weight_of_kind("deploy") == 4
        assert policy.weight_of_kind("call") == 2
        assert policy.weight_of_kind("transfer") == 1

    def test_budget_validation(self):
        with pytest.raises(FeeError):
            FeeBudget(cap=-1)
        with pytest.raises(FeeError):
            FeeBudget(cap=10, bump_factor=0.9)
        assert FeeBudget(cap=10, fee_rate=2).bumped_rate(2) == 4
        assert FeeBudget(cap=10, bump_factor=1.0).bumped_rate(3) == 4  # strict


class TestBumpFee:
    def test_bump_carves_fee_out_of_change(self, econ_chain):
        message = spend(econ_chain, ALICE, 0, fee=5)
        # Transfers are not bumpable (no .fee field); use a deploy-like
        # message from the protocol path instead: covered in the driver
        # tests.  Here we exercise the pure helper on a CallMessage.
        from repro.chain.messages import CallMessage

        call = CallMessage(
            sender=ALICE.public_key,
            contract_id=b"\x01" * 32,
            function="redeem",
            args=(),
            fee=5,
            inputs=(),
            change=(TxOutput(ALICE.address, 10),),
        )
        bumped = bump_fee(call, 9)
        assert bumped.fee == 9
        assert sum(o.value for o in bumped.change) == 6
        assert bumped.signature is None

    def test_bump_must_raise_and_be_fundable(self):
        from repro.chain.messages import CallMessage

        call = CallMessage(
            sender=ALICE.public_key,
            contract_id=b"\x01" * 32,
            function="redeem",
            args=(),
            fee=5,
            change=(TxOutput(ALICE.address, 2),),
        )
        with pytest.raises(FeeError):
            bump_fee(call, 5)  # not an increase
        with pytest.raises(FeeError):
            bump_fee(call, 20)  # change cannot fund it


class TestPriorityMempool:
    def test_take_orders_by_fee_rate_then_arrival(self, econ_chain):
        pool = Mempool(econ_chain, FeePolicy())
        cheap = spend(econ_chain, ALICE, 0, fee=1)
        rich = spend(econ_chain, BOB, 0, fee=9)
        middle = spend(econ_chain, CAROL, 0, fee=5)
        tied = spend(econ_chain, ALICE, 1, fee=1)  # same rate as cheap, later
        for message in (cheap, rich, middle, tied):
            pool.submit(message)
        assert pool.take_block(10) == [rich, middle, cheap, tied]

    def test_min_relay_floor(self, econ_chain):
        pool = Mempool(econ_chain, FeePolicy(min_relay_fee_rate=3))
        with pytest.raises(FeeTooLowError):
            pool.submit(spend(econ_chain, ALICE, 0, fee=2))
        assert pool.rejected_fee == 1
        assert pool.rejected == 1
        pool.submit(spend(econ_chain, ALICE, 1, fee=3))
        assert len(pool) == 1

    def test_capacity_evicts_cheapest_newest_first(self, econ_chain):
        pool = Mempool(econ_chain, FeePolicy(capacity_weight=3))
        first = spend(econ_chain, ALICE, 0, fee=5)
        second = spend(econ_chain, BOB, 0, fee=2)
        third = spend(econ_chain, CAROL, 0, fee=4)
        for message in (first, second, third):
            pool.submit(message)
        # Pool full (weight 3).  A richer message displaces the cheapest.
        newcomer = spend(econ_chain, ALICE, 1, fee=6)
        pool.submit(newcomer)
        assert pool.evicted == 1
        assert second.message_id() not in pool
        # And a message cheaper than everything pending is refused.
        with pytest.raises(FeeTooLowError):
            pool.submit(spend(econ_chain, BOB, 1, fee=1))
        assert pool.rejected_fee == 1
        assert pool.take_block(10) == [newcomer, first, third]

    def test_rbf_requires_a_real_bump(self, econ_chain):
        pool = Mempool(econ_chain, FeePolicy(rbf_bump=1.5))
        original = spend(econ_chain, ALICE, 0, fee=4)
        pool.submit(original)
        # Same outpoint, fee not 1.5x better: refused.
        with pytest.raises(FeeTooLowError):
            pool.submit(spend(econ_chain, ALICE, 0, fee=5))
        replacement = spend(econ_chain, ALICE, 0, fee=7)
        pool.submit(replacement)
        assert pool.replaced == 1
        assert original.message_id() not in pool
        assert replacement.message_id() in pool
        assert len(pool) == 1

    def test_take_block_respects_weight_budget(self, econ_chain):
        policy = FeePolicy(transfer_weight=2, block_weight_budget=4)
        pool = Mempool(econ_chain, policy)
        a = spend(econ_chain, ALICE, 0, fee=8)
        b = spend(econ_chain, BOB, 0, fee=6)
        c = spend(econ_chain, CAROL, 0, fee=4)
        for message in (a, b, c):
            pool.submit(message)
        assert pool.take_block(10) == [a, b]  # 2 x weight 2 fills the block
        assert pool.take_block(10) == [c]  # survivors stay for later blocks

    def test_rejected_counters_distinguish_causes(self, econ_chain, chain):
        # No policy: duplicate vs invalid.
        base = Mempool(chain)
        from tests.test_chain import transfer_message

        message = transfer_message(chain, ALICE, BOB, 10)
        base.submit(message)
        with pytest.raises(ValidationError):
            base.submit(message)
        from tests.conftest import make_coinbase

        with pytest.raises(ValidationError):
            base.submit(TransferMessage(make_coinbase(ALICE.address, 5)))
        assert base.rejected == 2
        assert base.rejected_duplicate == 1
        assert base.rejected_invalid == 1
        # Under a policy: the same breakdown plus rejected_fee.
        pool = Mempool(econ_chain, FeePolicy(min_relay_fee_rate=2))
        good = spend(econ_chain, ALICE, 0, fee=4)
        pool.submit(good)
        with pytest.raises(ValidationError):
            pool.submit(good)
        with pytest.raises(FeeTooLowError):
            pool.submit(spend(econ_chain, BOB, 0, fee=1))
        assert pool.rejected == 2
        assert pool.rejected_duplicate == 1
        assert pool.rejected_fee == 1

    def test_included_message_rejected_via_index(self, econ_chain):
        pool = Mempool(econ_chain, FeePolicy())
        message = spend(econ_chain, ALICE, 0, fee=2)
        econ_chain.add_block(econ_chain.make_block([message], MINER.address, 1.0))
        with pytest.raises(ValidationError):
            pool.submit(message)
        assert pool.rejected_duplicate == 1


class TestFeeEstimator:
    def _mine(self, chain, messages, t):
        chain.add_block(chain.make_block(messages, MINER.address, t))

    def test_uncongested_quotes_the_floor(self, econ_chain):
        policy = FeePolicy(min_relay_fee_rate=2, block_weight_budget=10)
        estimator = FeeEstimator(econ_chain, policy)
        self._mine(econ_chain, [spend(econ_chain, ALICE, 0, fee=50)], 1.0)
        # One message of weight 1 in a 10-weight block: no congestion.
        assert estimator.congestion() == 0.0
        assert estimator.estimate() == 2

    def test_congested_estimate_converges(self, econ_chain):
        policy = FeePolicy(min_relay_fee_rate=1, block_weight_budget=3)
        estimator = FeeEstimator(econ_chain, policy, window=4)
        # Full blocks (3 x weight 1) paying rates 4/6/8, repeatedly.
        estimates = []
        for round_ in range(4):
            messages = [
                spend(econ_chain, kp, round_, fee=fee)
                for kp, fee in ((ALICE, 4), (BOB, 6), (CAROL, 8))
            ]
            self._mine(econ_chain, messages, float(round_ + 1))
            estimates.append(estimator.estimate())
        assert estimator.congestion() == 1.0
        # 60th percentile of {4,6,8} is 6; +1 to outbid the marginal.
        assert estimates[-1] == 7
        # Convergence: once the window is saturated the estimate is stable.
        assert estimates[-1] == estimates[-2]


class TestHeightIndex:
    def test_reorg_repoints_the_index(self, econ_chain):
        simulator = Simulator(seed=5)
        miner = MinerNode(simulator, econ_chain, Mempool(econ_chain))
        message = spend(econ_chain, ALICE, 0, fee=2)
        miner.mempool.submit(message)
        miner.start()
        simulator.run_until(4.5)
        assert econ_chain.height == 4
        depth_before = econ_chain.message_depth(message.message_id())
        assert depth_before > 0

        attacker = AttackMiner(econ_chain)
        attacker.fork_from(econ_chain.block_at_height(0).block_id())
        for i in range(6):
            attacker.extend([], timestamp=5.0 + i)
        assert attacker.release() is True

        # The height index now describes the attacker's branch exactly.
        assert econ_chain.height == 6
        for height in range(econ_chain.height + 1):
            block = econ_chain.block_at_height(height)
            assert block.header.height == height
            assert econ_chain.is_in_main_chain(block.block_id())
        # The honest block carrying the message fell off the main chain.
        assert econ_chain.message_depth(message.message_id()) == 0
        assert econ_chain.find_message(message.message_id()) is None

    def test_index_matches_bruteforce_walk(self, econ_chain):
        for i in range(5):
            econ_chain.add_block(econ_chain.make_block([], MINER.address, float(i)))
        cursor = econ_chain.head
        walked = {cursor.header.height: cursor.block_id()}
        while cursor.header.height > 0:
            cursor = econ_chain.block(cursor.header.prev_hash)
            walked[cursor.header.height] = cursor.block_id()
        assert walked == econ_chain._height_index


class TestCrashInjection:
    def test_crash_rate_marks_the_expected_fraction(self):
        traffic = swap_traffic(
            200, rate=10.0, seed=3, chain_ids=["x"], crash_rate=0.25
        )
        crashed = [item for item in traffic if item.crash is not None]
        assert 0.15 <= len(crashed) / len(traffic) <= 0.35
        for item in crashed:
            assert item.crash.participant in item.graph.participant_names()
            assert item.crash.delay >= 0.0
        # And the knob is deterministic per seed.
        again = swap_traffic(
            200, rate=10.0, seed=3, chain_ids=["x"], crash_rate=0.25
        )
        assert [item.crash for item in traffic] == [item.crash for item in again]

    def test_engine_surfaces_injected_crashes(self):
        traffic = swap_traffic(
            8, rate=6.0, seed=21, chain_ids=["x", "y"], crash_rate=0.5
        )
        assert any(item.crash is not None for item in traffic)
        env = build_multi_scenario([item.graph for item in traffic], seed=21)
        env.warm_up(2)
        engine = SwapEngine(env, default_protocol="ac3wn")
        engine.submit_many(traffic, offset=env.simulator.now)
        result = engine.run()
        metrics = result.metrics
        expected = sum(1 for item in traffic if item.crash is not None)
        assert metrics.injected_crashes == expected
        marked = [o for o in result.outcomes if o.injected_crash is not None]
        assert len(marked) == expected
        # The witness protocol stays atomic through injected crashes.
        assert metrics.atomicity_violations == 0
        assert metrics.total == 8


SMOKE_POLICY = FeePolicy(block_weight_budget=16, capacity_weight=96)


def run_congested(num_swaps=104, rate=14.0, seed=13):
    traffic = swap_traffic(
        num_swaps, rate=rate, seed=seed, chain_ids=["x", "y"],
        budget_sampler=congestion_budgets(),
    )
    env = build_multi_scenario(
        [item.graph for item in traffic], seed=seed, fee_policy=SMOKE_POLICY
    )
    env.warm_up(2)
    engine = SwapEngine(env)
    engine.submit_many(traffic, offset=env.simulator.now)
    return engine.run()


class TestCongestedEngine:
    def test_oversubscribed_run_prices_out_the_poor_atomically(self):
        """The acceptance scenario: 100+ swaps, arrival demand above the
        block-space budget — low-fee-budget swaps are priced out, the
        high-fee-budget swaps commit, and atomicity never breaks."""
        result = run_congested()
        metrics = result.metrics
        assert metrics.total == 104
        assert metrics.atomicity_violations == 0

        low = [o for o in result.outcomes if o.fee_cap == LOW_FEE_BUDGET.cap]
        high = [o for o in result.outcomes if o.fee_cap == HIGH_FEE_BUDGET.cap]
        assert len(low) + len(high) == metrics.total
        assert metrics.priced_out > 0
        assert metrics.evictions > 0

        def commit_rate(outcomes):
            return sum(1 for o in outcomes if o.decision == "commit") / len(outcomes)

        assert commit_rate(high) > commit_rate(low)

        def priced_out_rate(outcomes):
            return sum(1 for o in outcomes if o.priced_out) / len(outcomes)

        # Pricing out concentrates on the budget-capped class (at this
        # intensity a few high-budget swaps may still be outbid at the
        # SCw registration door — that is the market working, not a bug).
        assert priced_out_rate(low) > priced_out_rate(high)
        assert sum(1 for o in low if o.priced_out) > sum(1 for o in high if o.priced_out)
        # Every committed swap actually paid fees.
        assert all(o.fees_paid > 0 for o in result.outcomes if o.decision == "commit")
        assert metrics.fee_per_commit > 0

    def test_oversubscribed_run_is_seed_reproducible(self):
        first = run_congested(num_swaps=40, rate=14.0, seed=29)
        second = run_congested(num_swaps=40, rate=14.0, seed=29)
        assert [(o.decision, o.started_at, o.finished_at) for o in first.outcomes] == [
            (o.decision, o.started_at, o.finished_at) for o in second.outcomes
        ]
        assert first.metrics == second.metrics
        assert [o.evictions for o in first.outcomes] == [
            o.evictions for o in second.outcomes
        ]
        assert [o.priced_out for o in first.outcomes] == [
            o.priced_out for o in second.outcomes
        ]

    def test_fee_shock_displaces_pending_messages(self):
        traffic = swap_traffic(
            20, rate=10.0, seed=41, chain_ids=["x"],
            budget_sampler=congestion_budgets(low_fee_share=1.0),
        )
        env = build_multi_scenario(
            [item.graph for item in traffic],
            seed=41,
            fee_policy=SMOKE_POLICY,
            extra_participants=["whale"],
        )
        env.warm_up(2)
        schedule_fee_shock(
            env, "witness", at=env.simulator.now + 2.0, count=48, fee_rate=16
        )
        engine = SwapEngine(env)
        engine.submit_many(traffic, offset=env.simulator.now)
        result = engine.run()
        pool = env.mempools["witness"]
        assert pool.evicted > 0 or pool.rejected_fee > 0
        assert result.metrics.atomicity_violations == 0
        # The whale's burst displaced at least some budgeted swaps.
        assert result.metrics.evictions + result.metrics.priced_out > 0
