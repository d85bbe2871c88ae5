"""Tests for UTXO transactions: merge/split semantics, double spends,
signatures, and value conservation (Section 2.3 of the paper)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    sign_transaction,
)
from repro.chain.utxo import UTXOSet
from repro.crypto.keys import KeyPair
from repro.errors import DoubleSpendError, ValidationError
from tests.conftest import make_coinbase

ALICE = KeyPair.from_seed("alice")
BOB = KeyPair.from_seed("bob")
CAROL = KeyPair.from_seed("carol")


def fresh_utxos(*allocations):
    """UTXO set with genesis allocations [(keypair, value), ...]: output 0
    of each coinbase, added the way genesis adds it."""
    utxos = UTXOSet()
    coinbases = []
    for i, (kp, value) in enumerate(allocations):
        cb = make_coinbase(kp.address, value, nonce=i)
        utxos.add(OutPoint(cb.txid(), 0), cb.outputs[0])
        coinbases.append(cb)
    return utxos, coinbases


class TestCoinbase:
    def test_mints_value(self):
        utxos, _ = fresh_utxos((ALICE, 100))
        assert utxos.balance_of(ALICE.address) == 100

    def test_nonce_distinguishes_identical_coinbases(self):
        a = make_coinbase(ALICE.address, 100, nonce=0)
        b = make_coinbase(ALICE.address, 100, nonce=1)
        assert a.txid() != b.txid()

    def test_is_coinbase(self):
        assert make_coinbase(ALICE.address, 5).is_coinbase

    def test_a_coinbase_is_never_applied(self):
        utxos = UTXOSet()
        for value in (0, 5):
            with pytest.raises(ValidationError, match="coinbase"):
                utxos.apply_transaction(make_coinbase(ALICE.address, value))
        assert len(utxos) == 0


class TestTransfer:
    def test_simple_transfer(self):
        utxos, (cb,) = fresh_utxos((ALICE, 100))
        tx = sign_transaction(
            Transaction(
                inputs=(TxInput(OutPoint(cb.txid(), 0)),),
                outputs=(TxOutput(BOB.address, 100),),
            ),
            ALICE,
        )
        fee = utxos.apply_transaction(tx)
        assert fee == 0
        assert utxos.balance_of(BOB.address) == 100
        assert utxos.balance_of(ALICE.address) == 0

    def test_merge_figure2_tx1(self):
        """TX1 of Figure 2: three inputs merged into one output to Bob."""
        utxos, cbs = fresh_utxos((ALICE, 5), (ALICE, 10), (ALICE, 3))
        tx = sign_transaction(
            Transaction(
                inputs=tuple(TxInput(OutPoint(cb.txid(), 0)) for cb in cbs),
                outputs=(TxOutput(BOB.address, 18),),
            ),
            ALICE,
        )
        utxos.apply_transaction(tx)
        assert utxos.balance_of(BOB.address) == 18
        assert len(utxos.outpoints_of(BOB.address)) == 1

    def test_split_figure2_tx2(self):
        """TX2 of Figure 2: one input split into two outputs."""
        utxos, (cb,) = fresh_utxos((BOB, 18))
        tx = sign_transaction(
            Transaction(
                inputs=(TxInput(OutPoint(cb.txid(), 0)),),
                outputs=(TxOutput(ALICE.address, 3), TxOutput(BOB.address, 15)),
            ),
            BOB,
        )
        utxos.apply_transaction(tx)
        assert utxos.balance_of(ALICE.address) == 3
        assert utxos.balance_of(BOB.address) == 15

    def test_fee_is_input_minus_output(self):
        utxos, (cb,) = fresh_utxos((ALICE, 100))
        tx = sign_transaction(
            Transaction(
                inputs=(TxInput(OutPoint(cb.txid(), 0)),),
                outputs=(TxOutput(BOB.address, 90),),
            ),
            ALICE,
        )
        assert utxos.apply_transaction(tx) == 10


class TestValidation:
    def _signed_spend(self, cb, signer, recipient, amount):
        return sign_transaction(
            Transaction(
                inputs=(TxInput(OutPoint(cb.txid(), 0)),),
                outputs=(TxOutput(recipient, amount),),
            ),
            signer,
        )

    def test_double_spend_rejected(self):
        utxos, (cb,) = fresh_utxos((ALICE, 100))
        tx1 = self._signed_spend(cb, ALICE, BOB.address, 100)
        utxos.apply_transaction(tx1)
        tx2 = self._signed_spend(cb, ALICE, CAROL.address, 100)
        with pytest.raises(DoubleSpendError):
            utxos.apply_transaction(tx2)

    def test_internal_double_spend_rejected(self):
        utxos, (cb,) = fresh_utxos((ALICE, 100))
        outpoint = OutPoint(cb.txid(), 0)
        tx = sign_transaction(
            Transaction(
                inputs=(TxInput(outpoint), TxInput(outpoint)),
                outputs=(TxOutput(BOB.address, 200),),
            ),
            ALICE,
        )
        with pytest.raises(DoubleSpendError):
            utxos.apply_transaction(tx)

    def test_spending_others_assets_rejected(self):
        """Miners enforce that end-users transact only on their own assets."""
        utxos, (cb,) = fresh_utxos((ALICE, 100))
        theft = self._signed_spend(cb, BOB, BOB.address, 100)
        with pytest.raises(ValidationError):
            utxos.apply_transaction(theft)

    def test_overspending_rejected(self):
        utxos, (cb,) = fresh_utxos((ALICE, 100))
        tx = self._signed_spend(cb, ALICE, BOB.address, 150)
        with pytest.raises(ValidationError):
            utxos.apply_transaction(tx)

    def test_fee_requirement_enforced(self):
        utxos, (cb,) = fresh_utxos((ALICE, 100))
        tx = self._signed_spend(cb, ALICE, BOB.address, 100)
        with pytest.raises(ValidationError):
            utxos.apply_transaction(tx, min_fee=1)

    def test_unsigned_input_rejected(self):
        utxos, (cb,) = fresh_utxos((ALICE, 100))
        tx = Transaction(
            inputs=(TxInput(OutPoint(cb.txid(), 0)),),
            outputs=(TxOutput(BOB.address, 100),),
        )
        with pytest.raises(ValidationError):
            utxos.apply_transaction(tx)

    def test_tampered_output_breaks_signature(self):
        utxos, (cb,) = fresh_utxos((ALICE, 100))
        tx = self._signed_spend(cb, ALICE, BOB.address, 100)
        tampered = Transaction(
            inputs=tx.inputs, outputs=(TxOutput(CAROL.address, 100),), nonce=tx.nonce
        )
        with pytest.raises(ValidationError):
            utxos.apply_transaction(tampered)

    def test_negative_output_rejected(self):
        with pytest.raises(ValidationError):
            TxOutput(ALICE.address, -1)

    def test_keypair_count_mismatch(self):
        tx = Transaction(
            inputs=(TxInput(OutPoint(b"\x00" * 32, 0)),),
            outputs=(TxOutput(BOB.address, 1),),
        )
        with pytest.raises(ValidationError):
            sign_transaction(tx, [ALICE, BOB])


class TestUTXOSet:
    def test_copy_is_independent(self):
        utxos, (cb,) = fresh_utxos((ALICE, 100))
        snapshot = utxos.copy()
        tx = sign_transaction(
            Transaction(
                inputs=(TxInput(OutPoint(cb.txid(), 0)),),
                outputs=(TxOutput(BOB.address, 100),),
            ),
            ALICE,
        )
        utxos.apply_transaction(tx)
        assert snapshot.balance_of(ALICE.address) == 100
        assert utxos.balance_of(ALICE.address) == 0

    def test_outpoints_of_sorted_deterministically(self):
        utxos, _ = fresh_utxos((ALICE, 1), (ALICE, 2), (ALICE, 3))
        assert utxos.outpoints_of(ALICE.address) == utxos.outpoints_of(ALICE.address)

    def test_get_unknown_raises(self):
        with pytest.raises(DoubleSpendError):
            UTXOSet().get(OutPoint(b"\x00" * 32, 0))
        with pytest.raises(DoubleSpendError):
            UTXOSet().spend(OutPoint(b"", 0))  # no leading byte to bucket on
        assert OutPoint(b"", 0) not in UTXOSet()

    def test_total_value(self):
        utxos, _ = fresh_utxos((ALICE, 10), (BOB, 20))
        assert utxos.total_value() == 30


@st.composite
def random_splits(draw):
    total = draw(st.integers(min_value=1, max_value=1000))
    n_outputs = draw(st.integers(min_value=1, max_value=5))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=total),
                min_size=n_outputs - 1,
                max_size=n_outputs - 1,
            )
        )
    )
    bounds = [0] + cuts + [total]
    return total, [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]


class TestConservationProperty:
    @given(random_splits())
    @settings(max_examples=30, deadline=None)
    def test_value_conserved_across_splits(self, case):
        """Splitting an asset never creates or destroys value."""
        total, splits = case
        utxos, (cb,) = fresh_utxos((ALICE, total))
        recipients = [ALICE, BOB, CAROL]
        outputs = tuple(
            TxOutput(recipients[i % 3].address, amount)
            for i, amount in enumerate(splits)
        )
        tx = sign_transaction(
            Transaction(inputs=(TxInput(OutPoint(cb.txid(), 0)),), outputs=outputs),
            ALICE,
        )
        fee = utxos.apply_transaction(tx)
        assert fee == 0
        assert utxos.total_value() == total
