"""How often a wire object is encoded, counted, not timed.

Every id, leaf and signing digest is a hash of canonical bytes, so the
encoder sits under all of them; each object must pass through
``canonical_encode`` once however many digests are then asked of it —
and a copy that differs in any encoded field must never be handed the
original's bytes.
"""

import contextlib
import dataclasses
import sys

from repro.chain.block import BlockHeader
from repro.chain.chain import Blockchain
from repro.chain.messages import CallMessage, DeployMessage, sign_message
from repro.chain.params import fast_chain
from repro.chain.transaction import OutPoint, TxInput, TxOutput
from repro.chain.wire import canonical_encode
from repro.crypto.keys import Address
from repro.economy.policy import bump_fee
from tests.conftest import ALICE, BOB

GENESIS_TRANSFERS = 64


@contextlib.contextmanager
def counted_encodes():
    """Count entries into ``canonical_encode`` the way the ledger's
    profile does: by code object, whichever module holds the name."""
    calls = [0]
    code = canonical_encode.__code__

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def unsigned_messages():
    funding = dict(
        inputs=(TxInput(OutPoint(b"\x07" * 32, 0), ALICE.public_key),),
        change=(TxOutput(ALICE.address, 500),),
    )
    deploy = DeployMessage(
        sender=ALICE.public_key,
        contract_class="AnyContract",
        args=(BOB.address.raw, 7),
        value=100,
        fee=5,
        **funding,
    )
    call = CallMessage(
        sender=ALICE.public_key,
        contract_id=b"\x09" * 32,
        function="redeem",
        args=(b"secret",),
        fee=5,
        **funding,
    )
    return deploy, call


def all_digests(message):
    digests = [message.message_id(), message.signing_digest()]
    if isinstance(message, DeployMessage):
        digests.append(message.contract_id())
    return digests


def test_genesis_encodes_each_transfer_once():
    allocations = [
        (Address(index.to_bytes(20, "big")), 1_000 + index)
        for index in range(GENESIS_TRANSFERS)
    ]
    with counted_encodes() as calls:
        chain = Blockchain(fast_chain("encode-cost"), allocations)
    # One per transfer (message id and txid share it; receipt leaves and
    # both Merkle trees need none) plus the genesis header.
    assert calls[0] == GENESIS_TRANSFERS + 1
    assert chain.state_at().utxos.total_value() == sum(v for _, v in allocations)
    genesis = chain.block_at_height(0)
    utxos = chain.state_at().utxos
    with counted_encodes() as calls:
        for message, (owner, value) in zip(genesis.messages, allocations):
            assert utxos.get(OutPoint(message.tx.txid(), 0)) == TxOutput(owner, value)
        assert genesis.compute_merkle_root() == genesis.header.merkle_root
        chain.receipts_data(genesis.block_id())[1].root()
    assert calls[0] == 0


def test_signing_encodes_a_message_once_in_total():
    for unsigned in unsigned_messages():
        with counted_encodes() as calls:
            signed = sign_message(unsigned, ALICE)
            assert all_digests(signed) == all_digests(unsigned)
        assert calls[0] == 1  # the unsigned message's signing digest
        assert signed.wire_bytes() == canonical_encode(signed.to_wire())

        warm = sign_message(unsigned, ALICE)
        with counted_encodes() as calls:
            all_digests(sign_message(warm, ALICE))
        assert calls[0] == 0


def test_fee_change_encodes_afresh():
    for unsigned in unsigned_messages():
        signed = sign_message(unsigned, ALICE)
        replacements = (
            bump_fee(signed, signed.fee + 3),
            dataclasses.replace(signed, fee=signed.fee + 3),
        )
        for replacement in replacements:
            assert replacement._enc is None
            with counted_encodes() as calls:
                digests = all_digests(replacement)
            assert calls[0] == 1
            assert set(digests).isdisjoint(all_digests(signed))
            assert replacement.wire_bytes() != signed.wire_bytes()
            assert replacement.wire_bytes() == canonical_encode(replacement.to_wire())


def test_header_is_encoded_once_and_never_stale():
    header = BlockHeader(
        chain_id="encode-cost",
        height=3,
        prev_hash=b"\x01" * 32,
        merkle_root=b"\x02" * 32,
        receipts_root=b"\x03" * 32,
        time_ticks=9,
        difficulty_bits=2,
        nonce=0,
        miner=BOB.address,
    )
    with counted_encodes() as calls:
        header.block_id()
        embedded = canonical_encode({"headers": [header, header]})
    assert calls[0] == 2  # the header, then the envelope that splices it twice
    assert embedded == canonical_encode({"headers": [header.to_wire()] * 2})

    for copy in (header.with_nonce(1), dataclasses.replace(header, height=4)):
        assert copy._enc is None and copy._id is None
        assert copy.wire_bytes() == canonical_encode(copy.to_wire())
        assert copy.block_id() != header.block_id()
        assert canonical_encode([copy]) != canonical_encode([header])
