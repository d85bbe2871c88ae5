"""Generated schedules for the one :class:`~repro.chain.mempool.Mempool`.

Random interleavings of ``submit`` (fresh, duplicate, invalid, and
conflicting spends at higher and lower fees), ``take_block`` (random
``limit``, with and without a censor's ``exclude`` predicate) and
``requeue`` (a failed block build puts part of its template back), run
without a policy and under small random policies.  A small model tracks
what should be pending; the pool is checked against it after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.chain.chain import Blockchain
from repro.chain.mempool import Mempool
from repro.chain.messages import CallMessage, DeployMessage, TransferMessage
from repro.chain.params import fast_chain
from repro.chain.transaction import Transaction, TxInput, TxOutput
from repro.crypto.ecdsa import EcdsaSignature
from repro.economy import FeePolicy
from repro.errors import FeeTooLowError, ValidationError
from tests.conftest import ALICE, make_coinbase

COINS = 6
COIN_VALUE = 100
KINDS = ("transfer", "call", "deploy")

# The pool never mines here, so one chain (read-only) serves every example.
CHAIN = Blockchain(fast_chain("pool-props"), [(ALICE.address, COIN_VALUE)] * COINS)
OUTPOINTS = CHAIN.state_at().utxos.outpoints_of(ALICE.address)
# Admission checks that a signature is present, not that it verifies.
SIGNED = EcdsaSignature(1, 1)


def message(kind: str, coin: int, fee: int):
    """A ``kind`` message spending coin ``coin`` and paying ``fee``; two
    messages on one coin are conflicting spends."""
    inputs = (TxInput(OUTPOINTS[coin]),)
    if kind == "transfer":
        outputs = (TxOutput(ALICE.address, COIN_VALUE - fee),)
        return TransferMessage(Transaction(inputs=inputs, outputs=outputs))
    common = dict(sender=ALICE.public_key, args=(), fee=fee, inputs=inputs, signature=SIGNED)
    if kind == "call":
        return CallMessage(contract_id=b"\x07" * 32, function="f", **common)
    return DeployMessage(contract_class="C", **common)


policies = st.builds(
    FeePolicy,
    block_weight_budget=st.integers(1, 10) | st.none(),
    capacity_weight=st.integers(2, 12) | st.none(),
    min_relay_fee_rate=st.integers(0, 2),
    rbf_bump=st.sampled_from([1.0, 1.25, 2.0]),
    transfer_weight=st.integers(1, 3),
)
excludes = st.none() | st.sampled_from(KINDS)
submits = st.tuples(
    st.just("submit"),
    st.sampled_from(KINDS),
    st.integers(0, COINS - 1),
    st.integers(0, 12),
)
steps = st.lists(
    st.one_of(
        # Mostly submits, so pools fill up and spends collide.
        submits,
        submits,
        submits,
        submits,
        st.tuples(st.just("resubmit"), st.integers(0, 50)),
        st.tuples(st.just("coinbase")),
        st.tuples(st.just("take"), st.integers(0, 6), excludes),
        # A failed block build: take a template, requeue the masked part.
        st.tuples(st.just("rebuild"), st.integers(0, 6), excludes, st.integers(0, 63)),
    ),
    min_size=20,
    max_size=60,
)


class Model:
    """What should be pending, in submission order, with model-side seqs."""

    def __init__(self, policy):
        self.policy = policy
        self.pending: dict[bytes, tuple] = {}  # id -> (message, fee, weight, seq)
        self.seq = 0

    def weight_of(self, msg) -> int:
        return 0 if self.policy is None else self.policy.weight_of(msg)

    def add(self, msg, fee: int, front: bool = False) -> None:
        entry = {msg.message_id(): (msg, fee, self.weight_of(msg), self.seq)}
        self.seq += 1
        self.pending = {**entry, **self.pending} if front else {**self.pending, **entry}

    def weight(self) -> int:
        return sum(weight for _, _, weight, _ in self.pending.values())

    def conflicts(self, msg) -> list[bytes]:
        spent = {inp.outpoint for inp in spends(msg)}
        return [
            mid
            for mid, (other, *_) in self.pending.items()
            if spent & {inp.outpoint for inp in spends(other)}
        ]

    def template(self, limit: int, exclude) -> list:
        """Reference block template: submission order, or fee rate then
        seq with a greedy knapsack under a policy."""
        order = list(self.pending.values())
        budget = None
        if self.policy is not None:
            order.sort(key=lambda e: (-e[1] / e[2], e[3]))
            budget = self.policy.block_weight_budget
        chosen, used = [], 0
        for msg, _, weight, _ in order:
            if len(chosen) >= limit:
                break
            if exclude(msg) or (budget is not None and used + weight > budget):
                continue
            used += weight
            chosen.append(msg)
        return chosen


def spends(msg):
    return msg.tx.inputs if isinstance(msg, TransferMessage) else msg.inputs


def fee_of(msg) -> int:
    if isinstance(msg, TransferMessage):
        return COIN_VALUE - msg.tx.outputs[0].value
    return msg.fee


class TestMempoolSchedules:
    @given(steps)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_without_a_policy(self, schedule):
        self.run_schedule(None, schedule)

    @given(policies, steps)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_under_a_policy(self, policy, schedule):
        self.run_schedule(policy, schedule)

    def run_schedule(self, policy, schedule) -> None:
        """Drive ``schedule`` through a fresh pool, checking it against
        the model after every step."""
        pool = Mempool(CHAIN, policy)
        model = Model(policy)
        announced: list[bytes] = []
        pool.add_eviction_listener(announced.append)

        for step in schedule:
            before = set(model.pending)
            weight_before = pool._weight
            lost_before = pool.evicted + pool.replaced
            announced.clear()
            taken: list = []

            if step[0] == "submit":
                self.submit(pool, model, message(*step[1:]))
            elif step[0] == "resubmit" and model.pending:
                again = list(model.pending.values())[step[1] % len(model.pending)][0]
                duplicates = pool.rejected_duplicate
                with pytest.raises(ValidationError):
                    pool.submit(again)
                assert pool.rejected_duplicate == duplicates + 1
            elif step[0] == "coinbase":
                invalid = pool.rejected_invalid
                with pytest.raises(ValidationError):
                    pool.submit(TransferMessage(make_coinbase(ALICE.address, 5)))
                assert pool.rejected_invalid == invalid + 1
            elif step[0] in ("take", "rebuild"):
                taken = self.take(pool, model, limit=step[1], excluded_kind=step[2])
                assert pool._weight <= weight_before
                if step[0] == "rebuild":
                    back = [m for i, m in enumerate(taken) if step[3] >> i & 1]
                    pool.requeue(back)
                    # Without a policy the requeued part is back at the
                    # front in its original order; with one it queues
                    # behind its fee-rate ties (fresh seqs).
                    for msg in reversed(back) if policy is None else back:
                        model.add(msg, fee_of(msg), front=policy is None)
                    taken = [m for m in taken if m not in back]
                    assert pool._weight <= weight_before

            # Whatever left the pool without being taken was announced to
            # the eviction listeners exactly once, and counted.
            gone = before - set(model.pending) - {m.message_id() for m in taken}
            assert sorted(announced) == sorted(gone)
            assert pool.evicted + pool.replaced - lost_before == len(gone)
            if policy is None:
                assert not gone
            # The pool holds exactly the model's messages and weight.
            assert len(pool) == len(model.pending)
            assert all(mid in pool for mid in model.pending)
            assert pool._weight == model.weight()
            assert pool._weight == sum(e.weight for e in pool._pending.values())
            assert pool.rejected == (
                pool.rejected_duplicate + pool.rejected_invalid + pool.rejected_fee
            )

        assert pool.take_block(10**6) == model.template(10**6, lambda m: False)

    def submit(self, pool, model, msg) -> None:
        policy = model.policy
        mid = msg.message_id()
        if mid in model.pending:
            with pytest.raises(ValidationError):
                pool.submit(msg)
            return
        fee = fee_of(msg)
        if policy is None:
            # No fee market: conflicting spends are the miner's problem.
            assert pool.submit(msg) == mid
            model.add(msg, fee)
            return
        weight = policy.weight_of(msg)
        rate = fee / weight
        # Only spends of *pending* messages conflict: a coin whose spender
        # was mined, evicted or replaced is free again.
        conflicts = model.conflicts(msg)
        rivals = [model.pending[c] for c in conflicts]
        outbid = all(
            rate >= r_fee / r_weight * policy.rbf_bump for _, r_fee, r_weight, _ in rivals
        ) and all(fee > r_fee for _, r_fee, _, _ in rivals)
        relayable = rate >= policy.min_relay_fee_rate
        rejected_fee, replaced, evicted = pool.rejected_fee, pool.replaced, pool.evicted
        try:
            assert pool.submit(msg) == mid
        except FeeTooLowError:
            # Refused: nothing moved, and the refusal was due — below the
            # relay floor, not outbidding a conflict, or no room.
            assert pool.rejected_fee == rejected_fee + 1
            assert not (relayable and outbid and policy.capacity_weight is None)
            return
        assert relayable and outbid
        for conflict in conflicts:
            del model.pending[conflict]
        # Capacity victims: strictly cheaper than the newcomer, and the
        # cheapest there were (the newest first among equal rates).
        victims = [v for v in model.pending if v not in pool]
        evicted_keys = [
            (v_fee / v_weight, -v_seq)
            for _, v_fee, v_weight, v_seq in map(model.pending.pop, victims)
        ]
        assert all(v_rate < rate for v_rate, _ in evicted_keys)
        for _, s_fee, s_weight, s_seq in model.pending.values():
            assert all(key < (s_fee / s_weight, -s_seq) for key in evicted_keys)
        model.add(msg, fee)
        assert pool.replaced == replaced + len(conflicts)
        assert pool.evicted == evicted + len(victims)
        if policy.capacity_weight is not None:
            assert pool._weight <= policy.capacity_weight

    def take(self, pool, model, limit: int, excluded_kind) -> list:
        def exclude(msg) -> bool:
            return msg.kind == excluded_kind

        expected = model.template(limit, exclude)
        taken = pool.take_block(limit, exclude if excluded_kind else None)
        assert taken == expected
        assert len(taken) <= limit
        assert not any(m.kind == excluded_kind for m in taken)
        budget = model.policy.block_weight_budget if model.policy else None
        if budget is not None:
            assert sum(model.weight_of(m) for m in taken) <= budget
        for msg in taken:
            assert msg.message_id() not in pool
            del model.pending[msg.message_id()]
        return taken
