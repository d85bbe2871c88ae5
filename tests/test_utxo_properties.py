"""Generated schedules for the structure-shared chain state.

Random interleavings of ``add`` / ``spend`` / ``apply_transaction``
(valid and invalid) / ``copy`` over several live
:class:`~repro.chain.utxo.UTXOSet` copies, each shadowed by a plain dict.
The dict is the reference: ``outpoints_of`` and ``balance_of`` are the
linear scan the set used to run.  Every live copy is checked against its
own dict after every step, so a write that leaks through a shared bucket
— parent to child or child to parent — fails at the step that made it.
The same for :meth:`~repro.chain.state.ChainState.clone` and receipts.
"""

import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.chain.block import receipt_leaf
from repro.chain.chain import Blockchain, build_genesis
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
from repro.crypto.merkle import merkle_root
from repro.errors import DoubleSpendError, ValidationError
from tests.conftest import ALICE, BOB, genesis_by_coin, make_coinbase

LIVE = 5
SIGNERS = (ALICE, BOB)
# The two keyless owners share an owner-index bucket (same leading byte).
OWNERS = (
    ALICE.address,
    BOB.address,
    Address(b"\x00" * 20),
    Address(b"\x00" * 19 + b"\x01"),
)
# Eight txids over three entry buckets.
TXIDS = tuple(bytes([i % 3]) + bytes([i]) * 31 for i in range(8))
PARAMS = fast_chain("utxo-props")

copies = st.integers(0, LIVE - 1)
adds = st.tuples(
    st.just("add"),
    copies,
    st.sampled_from(TXIDS),
    st.integers(0, 2),
    st.sampled_from(OWNERS),
    st.integers(0, 50),
)
steps = st.lists(
    st.one_of(
        # Mostly adds, so sets fill up and owners hold several coins.
        adds,
        adds,
        adds,
        st.tuples(st.just("spend"), copies, st.integers(0, 63)),
        st.tuples(st.just("spend_unknown"), copies, st.sampled_from(TXIDS)),
        st.tuples(
            st.just("apply"),
            copies,
            st.sampled_from(
                ["ok", "ok", "ok", "coinbase", "overspend", "unsigned", "thief", "twice", "unknown"]
            ),
            st.integers(0, 1),
            st.integers(0, 63),
            st.integers(0, 5),
        ),
        st.tuples(st.just("copy"), copies, copies),
    ),
    min_size=20,
    max_size=60,
)


def scan_outpoints(model: dict, owner: Address) -> list[OutPoint]:
    """The linear scan ``UTXOSet.outpoints_of`` replaced."""
    owned = [op for op, out in model.items() if out.owner == owner]
    return sorted(owned, key=lambda op: (op.txid, op.index))


def scan_balance(model: dict, owner: Address) -> int:
    return sum(out.value for out in model.values() if out.owner == owner)


def check_set(utxos: UTXOSet, model: dict, universe) -> None:
    assert len(utxos) == len(model)
    assert utxos.total_value() == sum(out.value for out in model.values())
    for outpoint in universe:
        assert (outpoint in utxos) == (outpoint in model)
        if outpoint in model:
            assert utxos.get(outpoint) == model[outpoint]
    for owner in OWNERS:
        assert utxos.outpoints_of(owner) == scan_outpoints(model, owner)
        assert utxos.balance_of(owner) == scan_balance(model, owner)
    # The owner index holds exactly the entries, and no emptied owner.
    indexed = {}
    for bucket in utxos._by_owner._buckets:
        for owner, coins in bucket.items():
            assert coins
            assert all(out.owner == owner for out in coins.values())
            indexed.update(coins)
    assert indexed == model


def build_transaction(kind: str, signer, model: dict, pick: int, fee: int):
    """A transaction of ``kind`` over ``signer``'s coins in ``model``, or
    ``None`` when the model cannot supply its inputs."""
    mine = scan_outpoints(model, signer.address)
    if kind == "coinbase":
        return make_coinbase(signer.address, 7, nonce=pick)
    if kind == "unknown":
        spent = [OutPoint(b"\xee" * 32, pick)]
    elif not mine:
        return None
    else:
        spent = [mine[pick % len(mine)]]
        if len(mine) > 1 and pick % 2:
            spent.append(mine[(pick + 1) % len(mine)])
    if kind == "twice":
        spent.append(spent[0])
    value = sum(model[op].value for op in spent if op in model)
    paid = value + 1 if kind == "overspend" else max(value - fee, 0)
    other = OWNERS[pick % len(OWNERS)]
    tx = Transaction(
        inputs=tuple(TxInput(op) for op in spent),
        outputs=(TxOutput(other, paid // 2), TxOutput(signer.address, paid - paid // 2)),
    )
    if kind == "unsigned":
        return tx
    if kind == "thief":
        return sign_transaction(tx, SIGNERS[1 - SIGNERS.index(signer)])
    return sign_transaction(tx, signer)


def apply_to_model(model: dict, tx: Transaction) -> None:
    for inp in tx.inputs:
        del model[inp.outpoint]
    for index, out in enumerate(tx.outputs):
        model[OutPoint(tx.txid(), index)] = out


class TestUtxoSchedules:
    @given(steps)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_live_copies_agree_with_the_scan(self, schedule):
        live: list[tuple[UTXOSet, dict]] = [(UTXOSet(), {})]
        universe = {OutPoint(txid, index) for txid in TXIDS for index in range(3)}

        for step in schedule:
            utxos, model = live[step[1] % len(live)]

            if step[0] == "add":
                outpoint, output = OutPoint(step[2], step[3]), TxOutput(step[4], step[5])
                if outpoint in model:
                    with pytest.raises(ValidationError):
                        utxos.add(outpoint, output)
                else:
                    utxos.add(outpoint, output)
                    model[outpoint] = output
            elif step[0] == "spend" and model:
                outpoint = sorted(model, key=lambda op: (op.txid, op.index))[step[2] % len(model)]
                assert utxos.spend(outpoint) == model.pop(outpoint)
            elif step[0] == "spend_unknown":
                with pytest.raises(DoubleSpendError):
                    utxos.spend(OutPoint(step[2], 9))
            elif step[0] == "apply":
                _, _, kind, signer, pick, fee = step
                tx = build_transaction(kind, SIGNERS[signer], model, pick, fee)
                if tx is None:
                    continue
                produced = [OutPoint(tx.txid(), i) for i in range(len(tx.outputs))]
                universe.update(produced)
                if kind == "ok":
                    spent = sum(model[inp.outpoint].value for inp in tx.inputs)
                    assert utxos.apply_transaction(tx) == spent - tx.total_output()
                    apply_to_model(model, tx)
                else:
                    expected = DoubleSpendError if kind in ("twice", "unknown") else ValidationError
                    with pytest.raises(expected):
                        utxos.apply_transaction(tx)
            elif step[0] == "copy":
                twin = (utxos.copy(), dict(model))
                if len(live) < LIVE:
                    live.append(twin)
                else:
                    live[step[2]] = twin

            # Every copy, not only the one written: a write must be
            # invisible to its parent, its children and its siblings, and
            # a refused one (the raises above) must have changed nothing.
            for other, other_model in live:
                check_set(other, other_model, universe)


#: The coins the clone schedules spend: coin ``k`` is ``SIGNERS[k % 2]``'s.
COINS = 41
clones = st.integers(0, LIVE - 1)
state_steps = st.lists(
    st.one_of(
        st.tuples(st.just("spend"), clones, st.sampled_from(OWNERS), st.integers(0, COINS - 1)),
        st.tuples(st.just("spend"), clones, st.sampled_from(OWNERS), st.integers(0, COINS - 1)),
        st.tuples(st.just("replay"), clones, st.integers(0, 63)),
        st.tuples(st.just("refused"), clones, st.integers(0, 40)),
        st.tuples(st.just("clone"), clones, clones),
    ),
    min_size=15,
    max_size=50,
)


# Runs of one (owner, value), as a world funds a participant in equal pieces.
allocations = st.lists(
    st.tuples(st.sampled_from(OWNERS), st.sampled_from([0, 5, 7]), st.integers(1, 3)),
    max_size=10,
).map(lambda runs: [(owner, value) for owner, value, count in runs for _ in range(count)])


def entries(utxos: UTXOSet) -> dict:
    return {op: out for bucket in utxos._entries._buckets for op, out in bucket.items()}


class TestGenesisState:
    """A genesis against the coinbase-by-coinbase model it replaced: each
    allocation a ``TransferMessage(make_coinbase(…))``, the roots over
    their ids and ``"ok"`` receipt leaves, the coins a plain dict."""

    @given(allocations)
    @example([])
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_genesis_equals_the_coinbases_it_hashes(self, drawn):
        chain = Blockchain(PARAMS, drawn)
        genesis = chain.block_at_height(0)
        built = chain.state_at(genesis.block_id())

        messages = [
            TransferMessage(make_coinbase(owner, value, nonce))
            for nonce, (owner, value) in enumerate(drawn)
        ]
        ids = [message.message_id() for message in messages]
        assert genesis.header.merkle_root == merkle_root(ids)
        assert genesis.header.receipts_root == merkle_root(
            [receipt_leaf(message_id, "ok") for message_id in ids]
        )
        model = {
            OutPoint(message.tx.txid(), 0): TxOutput(owner, value)
            for message, (owner, value) in zip(messages, drawn, strict=True)
        }
        assert entries(built.utxos) == model
        check_set(built.utxos, model, model)
        for owner in OWNERS:
            assert built.utxos.outpoints_of(owner) == scan_outpoints(model, owner)
        # Nothing of the coinbases is kept but the coins.
        assert genesis.messages == () and len(built.receipts) == 0
        assert chain._message_index == {}
        for counter in ("transfer_count", "fees_collected", "deploy_count", "call_count"):
            assert getattr(built, counter) == 0
        # Consecutive equal allocations share one output, others never.
        outputs = [built.utxos.get(outpoint) for outpoint in model]
        for before, after, pair_before, pair_after in zip(outputs, outputs[1:], drawn, drawn[1:]):
            assert (before is after) == (pair_before == pair_after)

    def test_genesis_keeps_the_output_refusals(self):
        with pytest.raises(ValidationError, match="non-negative"):
            Blockchain(PARAMS, [(ALICE.address, 5), (BOB.address, -1)])
        # A second coin under the first's outpoint (a txid collision).
        coin = OutPoint(make_coinbase(ALICE.address, 5).txid(), 0)
        state = Blockchain(PARAMS, [(ALICE.address, 5)]).state_at().clone()
        with pytest.raises(ValidationError, match="already exists"):
            state.utxos.add(coin, TxOutput(BOB.address, 5))
        assert state.utxos.outpoints_of(BOB.address) == []


#: Up to 70 coins in runs: equal runs, alternating owners, and ``1``
#: beside ``True`` (equal in Python, encoded apart, so a run splits there).
run_allocations = st.lists(
    st.tuples(st.sampled_from(OWNERS), st.sampled_from([1, True, 0, False, 7]), st.integers(1, 9)),
    max_size=24,
).map(lambda runs: [(owner, value) for owner, value, count in runs for _ in range(count)][:70])


class TestGenesisOracle:
    """``build_genesis`` (one encoding per run, root-only Merkle passes)
    against :func:`tests.conftest.genesis_by_coin`, coin by coin."""

    @given(run_allocations)
    @example([])
    @example([(OWNERS[k % 2], 1) for k in range(70)])
    @example([(ALICE.address, 1), (ALICE.address, True), (ALICE.address, 1), (BOB.address, True)])
    @example([(ALICE.address, value) for value in (True, 1, 1, True, True, 1)])
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_build_genesis_equals_the_coin_by_coin_oracle(self, drawn):
        genesis = build_genesis(drawn)
        coins, merkle, receipts = genesis_by_coin(drawn)
        assert (genesis.merkle_root, genesis.receipts_root) == (merkle, receipts)
        built = entries(genesis.state.utxos)
        assert built == coins
        # 1 == True: the outputs' value types must match too.
        assert {op: type(out.value) for op, out in built.items()} == {
            op: type(out.value) for op, out in coins.items()
        }


FUNDED = build_genesis(
    [(SIGNERS[k % 2].address, 5 + PARAMS.fees.transfer) for k in range(COINS)]
)


@functools.cache
def spend_of(recipient: Address, k: int) -> TransferMessage:
    """The transfer of coin ``k`` paying ``recipient`` 5 (fee taken)."""
    signer = SIGNERS[k % 2]
    coin = OutPoint(make_coinbase(signer.address, 5 + PARAMS.fees.transfer, k).txid(), 0)
    tx = Transaction(inputs=(TxInput(coin),), outputs=(TxOutput(recipient, 5),))
    return TransferMessage(sign_transaction(tx, signer))


def apply(state: ChainState, message):
    return state.apply_message(message, PARAMS, block_height=1, block_time=1.0)


class TestChainStateClones:
    @given(state_steps)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_live_clones_keep_their_own_receipts(self, schedule):
        # model: message id -> (message, receipt) in application order
        live: list[tuple[ChainState, dict]] = [(FUNDED.state.clone(), {})]
        universe: dict[bytes, TransferMessage] = {}
        supply = FUNDED.state.utxos.total_value()

        for step in schedule:
            state, model = live[step[1] % len(live)]

            if step[0] == "spend":
                message = spend_of(step[2], step[3])
                universe[message.message_id()] = message
                spent = {m.tx.inputs[0].outpoint for m, _ in model.values()}
                if message.tx.inputs[0].outpoint in spent:
                    # The same transfer again, or another spend of its coin.
                    with pytest.raises(ValidationError):
                        apply(state, message)
                else:
                    model[message.message_id()] = (message, apply(state, message))
            elif step[0] == "replay" and model:
                message, _ = list(model.values())[step[2] % len(model)]
                with pytest.raises(ValidationError):
                    apply(state, message)
            elif step[0] == "refused":
                # A coinbase: refused before any write.
                message = TransferMessage(make_coinbase(ALICE.address, 5, nonce=100 + step[2]))
                universe[message.message_id()] = message
                with pytest.raises(ValidationError, match="coinbase"):
                    apply(state, message)
            elif step[0] == "clone":
                twin = (state.clone(), dict(model))
                if len(live) < LIVE:
                    live.append(twin)
                else:
                    live[step[2]] = twin

            for other, other_model in live:
                assert len(other.receipts) == len(other_model)
                assert other.transfer_count == len(other_model)
                for message_id, message in universe.items():
                    applied = other_model.get(message_id)
                    assert (message_id in other.receipts) == (applied is not None)
                    assert other.receipts.get(message_id) is (applied and applied[1])
                    assert (OutPoint(message.tx.txid(), 0) in other.utxos) == (applied is not None)
                fees = PARAMS.fees.transfer * len(other_model)
                assert other.utxos.total_value() == supply - fees
                assert other.fees_collected == fees
