"""How often a wire object is encoded, counted, not timed.

Every id, leaf and signing digest is a hash of canonical bytes, so the
encoder sits under all of them; each object must pass through
``canonical_encode`` once however many digests are then asked of it —
and a copy that differs in any encoded field must never be handed the
original's bytes.
"""

import contextlib
import dataclasses
import enum
import gc
import sys
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.chain.chain import Blockchain
from repro.chain.messages import CallMessage, DeployMessage, TransferMessage, sign_message
from repro.chain.params import fast_chain
from repro.chain.transaction import (
    TXID_DOMAIN,
    OutPoint,
    TxInput,
    TxOutput,
    make_coinbase,
)
from repro.chain.wire import canonical_encode, wire_hash
from repro.crypto.keys import Address
from repro.economy.policy import bump_fee
from repro.errors import ValidationError
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
    # The genesis header alone: a coinbase's bytes are its fixed template
    # (message id and txid share them), receipt leaves are a template too,
    # and neither Merkle tree encodes.
    assert calls[0] == 1
    assert chain.state_at().utxos.total_value() == sum(v for _, v in allocations)
    genesis = chain.block_at_height(0)
    utxos = chain.state_at().utxos
    with counted_encodes() as calls:
        for message, (owner, value) in zip(genesis.messages, allocations):
            assert utxos.get(OutPoint(message.tx.txid(), 0)) == TxOutput(owner, value)
        assert genesis.compute_merkle_root() == genesis.header.merkle_root
        chain.receipts_data(genesis.block_id())[1].root()
    assert calls[0] == 0


def generic_ids(message: TransferMessage) -> tuple[bytes, bytes]:
    """Message id and txid through the generic encoder (no template)."""
    return (
        wire_hash(message.to_wire(), domain="repro/message"),
        wire_hash(message.tx.to_wire(), domain=TXID_DOMAIN),
    )


owners = st.binary(min_size=20, max_size=20).map(Address)
amounts = st.one_of(st.sampled_from([0, 1, 2**63, 10**30]), st.integers(0, 2**80))


@given(owners, amounts, st.one_of(amounts, st.integers(-(2**40), -1)))
@settings(max_examples=300, derandomize=True)
def test_coinbase_template_is_the_canonical_encoding(owner, value, nonce):
    coinbase = make_coinbase(owner, value, nonce)
    assert coinbase.encoded() == canonical_encode(coinbase)
    message = TransferMessage(make_coinbase(owner, value, nonce))
    assert (message.message_id(), message.tx.txid()) == generic_ids(message)
    assert make_coinbase(owner, value, nonce).txid() == message.tx.txid()


class Shown(int):
    """An int whose decimal form is not its value's."""

    def __str__(self):
        return "shown"


class Level(enum.IntEnum):
    ONE = 1


def odd_coinbases():
    plain = Address(b"\x05" * 20)
    short = Address(b"\x06" * 20)
    object.__setattr__(short, "raw", b"\x06" * 19)
    text = Address(b"\x07" * 20)
    object.__setattr__(text, "raw", "t" * 20)
    yield plain, True, 0
    yield plain, 5, False
    yield plain, Shown(5), 0
    yield plain, 5, Shown(0)
    yield plain, Level.ONE, Level.ONE
    yield Address(bytearray(b"\x08" * 20)), 5, 0
    yield short, 5, 0
    yield text, 5, 0
    yield plain, -1, 0


def test_odd_coinbase_fields_encode_as_the_encoder_does_or_are_refused():
    encoded = 0
    for owner, value, nonce in odd_coinbases():
        try:
            message = TransferMessage(make_coinbase(owner, value, nonce))
            ids = (message.message_id(), message.tx.txid())
        except ValidationError:
            continue
        assert message.tx.encoded() == canonical_encode(message.tx)
        assert ids == generic_ids(message)
        encoded += 1
    assert encoded == 8  # every one but the negative value


def genesis_cost(allocations):
    """A chain over ``allocations``, and the gc-tracked objects and live
    bytes it leaves behind."""
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chain = Blockchain(fast_chain("coin-cost"), allocations)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return chain, len(gc.get_objects()) - tracked, live


def test_a_genesis_coin_costs_its_hashes():
    coins = 4096
    owners = [Address(bytes([index + 1]) * 20) for index in range(16)]
    # World-shaped: each owner's funding split into a run of equal pieces;
    # the baseline pays the same owners a different value every coin.
    runs = [(owners[index * 16 // coins], 1_000) for index in range(coins)]
    distinct = [(owner, 1_000 + index) for index, (owner, _) in enumerate(runs)]
    chain, objects, live = genesis_cost(runs)
    _, distinct_objects, distinct_live = genesis_cost(distinct)

    # A coin repeating its predecessor's (owner, value) shares its TxOutput
    # and outputs tuple: two objects and their bytes fewer, measured in this
    # interpreter against the baseline, so no object layout is assumed
    # (90 %: tracemalloc misses the few tuples a free list hands out).
    shared = coins - len(owners)
    outputs = chain.block_at_height(0).messages[0].tx.outputs
    assert distinct_objects - objects >= 2 * shared
    record = sys.getsizeof(outputs) + sys.getsizeof(outputs[0])
    assert distinct_live - live >= 0.9 * shared * record
    # No genesis tree outlives construction: nothing proves inclusion in
    # genesis, and a tree is two digests a coin.
    genesis = chain.block_at_height(0).block_id()
    assert chain._receipts_memo is None and genesis not in chain._receipt_data
    assert chain.block_at_height(0)._tree is None
    assert chain.state_at().utxos.total_value() == 1_000 * coins
    if sys.version_info[:2] == (3, 11):
        # Absolute per-coin cost, measured on CPython 3.11 (CI's; the layout
        # of objects differs between versions): the transaction, its
        # message, outpoint, receipt and message-index location in a list.
        assert objects / coins <= 6.5
        assert live / coins <= 800


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
