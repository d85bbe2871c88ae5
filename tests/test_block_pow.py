"""Tests for block headers, Merkle commitments, and proof of work."""

import dataclasses
import itertools

import pytest

from repro.chain.block import (
    Block,
    BlockHeader,
    decode_time,
    encode_time,
    receipt_leaf,
    receipts_merkle_tree,
)
from repro.chain.messages import TransferMessage
from repro.chain.pow import (
    _around_nonce,
    check_pow,
    mine_header,
    target_for_bits,
    work_for_bits,
)
from repro.chain.wire import canonical_encode
from repro.crypto.hashing import double_sha256
from repro.crypto.keys import KeyPair
from repro.errors import InvalidBlockError
from tests.conftest import make_coinbase

MINER = KeyPair.from_seed("miner").address


def header_template(difficulty_bits=4, height=1, prev=b"\x01" * 32):
    return BlockHeader(
        chain_id="test",
        height=height,
        prev_hash=prev,
        merkle_root=b"\x02" * 32,
        receipts_root=b"\x03" * 32,
        time_ticks=1000,
        difficulty_bits=difficulty_bits,
        nonce=0,
        miner=MINER,
    )


class TestTimeEncoding:
    def test_roundtrip(self):
        assert decode_time(encode_time(12.345)) == pytest.approx(12.345, abs=1e-3)

    def test_integer_ticks(self):
        assert isinstance(encode_time(1.5), int)


class TestBlockHeader:
    def test_block_id_deterministic(self):
        assert header_template().block_id() == header_template().block_id()

    def test_block_id_depends_on_nonce(self):
        h = header_template()
        assert h.block_id() != h.with_nonce(1).block_id()

    def test_block_id_depends_on_receipts_root(self):
        a = header_template()
        b = BlockHeader(
            chain_id=a.chain_id,
            height=a.height,
            prev_hash=a.prev_hash,
            merkle_root=a.merkle_root,
            receipts_root=b"\x04" * 32,
            time_ticks=a.time_ticks,
            difficulty_bits=a.difficulty_bits,
            nonce=a.nonce,
            miner=a.miner,
        )
        assert a.block_id() != b.block_id()

    def test_timestamp_property(self):
        assert header_template().timestamp == pytest.approx(1.0)


class TestProofOfWork:
    def test_target_monotone_in_bits(self):
        assert target_for_bits(4) > target_for_bits(8)

    def test_work_doubles_per_bit(self):
        assert work_for_bits(5) == 2 * work_for_bits(4)

    def test_mine_then_check(self):
        mined = mine_header(header_template(difficulty_bits=8))
        assert check_pow(mined)

    def test_mining_deterministic(self):
        a = mine_header(header_template(difficulty_bits=6))
        b = mine_header(header_template(difficulty_bits=6))
        assert a.nonce == b.nonce

    def test_zero_bits_always_passes(self):
        assert check_pow(header_template(difficulty_bits=0))

    def test_unmined_header_usually_fails_high_difficulty(self):
        header = header_template(difficulty_bits=24)
        # nonce 0 at 24 bits is overwhelmingly unlikely to satisfy PoW.
        assert not check_pow(header)

    def test_mine_exhaustion_raises(self):
        with pytest.raises(InvalidBlockError):
            mine_header(header_template(difficulty_bits=40), max_iterations=10)

    def test_bad_bits_rejected(self):
        with pytest.raises(InvalidBlockError):
            target_for_bits(-1)
        with pytest.raises(InvalidBlockError):
            target_for_bits(256)


class TestNonceSplice:
    """Mining encodes the template once and hashes each trial nonce's leaf
    spliced between the bytes around it."""

    @pytest.mark.parametrize("bits", [0, 1, 4, 8, 17, 255])
    @pytest.mark.parametrize("odd", [False, True])
    def test_spliced_bytes_are_the_canonical_encoding(self, bits, odd):
        template = header_template(difficulty_bits=bits, height=bits * 1_000_003)
        if odd:
            # Fields holding the encoder's ``None`` tag byte (``N``) must not
            # move the cut: it is made at the nonce's position, not by search.
            template = dataclasses.replace(template, chain_id="N\x00N", prev_hash=b"N" * 32)
        prefix, suffix = _around_nonce(template)
        for nonce in (0, 255, 256, 10**9):
            header = template.with_nonce(nonce)
            spliced = prefix + canonical_encode(nonce) + suffix
            assert spliced == canonical_encode(header.to_wire())

    @pytest.mark.parametrize("bits", [0, 2, 5, 9])
    def test_mined_header_is_the_header_by_header_search(self, bits):
        template = header_template(difficulty_bits=bits)
        target = target_for_bits(bits)
        reference = next(
            header
            for header in map(template.with_nonce, itertools.count())
            if int.from_bytes(header.block_id(), "big") < target
        )
        mined = mine_header(template)
        assert mined == reference and mined.nonce == reference.nonce
        encoded = canonical_encode(mined.to_wire())
        assert mined.wire_bytes() == encoded and type(mined.wire_bytes()) is bytes
        assert mined.block_id() == double_sha256(encoded) == reference.block_id()


class TestBlockCommitments:
    def _messages(self, n=3):
        return tuple(
            TransferMessage(make_coinbase(MINER, 10 + i, nonce=i)) for i in range(n)
        )

    def test_merkle_root_covers_messages(self):
        msgs = self._messages()
        block = Block(header=None, messages=msgs)  # type: ignore[arg-type]
        root_a = block.compute_merkle_root()
        other = Block(header=None, messages=msgs[:-1])  # type: ignore[arg-type]
        assert root_a != other.compute_merkle_root()

    def test_message_proofs_verify(self):
        msgs = self._messages(5)
        block = Block(header=None, messages=msgs)  # type: ignore[arg-type]
        tree = block.merkle_tree()
        for i, msg in enumerate(msgs):
            proof = tree.proof(i)
            assert proof.leaf == msg.message_id()
            assert proof.verify(block.compute_merkle_root())

    def test_receipt_leaf_distinguishes_status(self):
        assert receipt_leaf(b"\x01" * 32, "ok") != receipt_leaf(b"\x01" * 32, "reverted")

    def test_receipts_tree_proof(self):
        statuses = [(bytes([i]) * 32, "ok") for i in range(4)]
        tree = receipts_merkle_tree(statuses)
        proof = tree.proof(2)
        assert proof.leaf == receipt_leaf(bytes([2]) * 32, "ok")
        assert proof.verify(tree.root())
