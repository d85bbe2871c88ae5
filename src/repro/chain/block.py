"""Blocks and block headers.

A header commits to its parent (hash chaining — the "tamper-proof chain
of blocks" of Section 2.1), to its message set (Merkle root), and to the
proof of work (nonce + difficulty).  Everything a light client or the
Section 4.3 relay validator needs lives in the header.

Headers and blocks are immutable, so the header's canonical encoding
(the block hash is taken over it, and evidence embeds it verbatim), the
block hash, message-id list, and messages Merkle tree are each computed
once and cached on the instance (evidence construction walks these
repeatedly).  The caches are ``init=False`` slots: ``dataclasses.replace``
— how tests forge tampered headers — and ``with_nonce`` reset them, and
the copy encodes and hashes afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.hashing import double_sha256
from ..crypto.keys import Address
from ..crypto.merkle import MerkleTree
from .wire import canonical_encode

#: Millisecond fixed-point factor for header timestamps (headers are
#: consensus data, so they store ints, not floats).
TIME_SCALE = 1000


def encode_time(seconds: float) -> int:
    """Convert simulator seconds to integer header time."""
    return round(seconds * TIME_SCALE)


def decode_time(ticks: int) -> float:
    """Convert integer header time back to simulator seconds."""
    return ticks / TIME_SCALE


@dataclass(frozen=True, slots=True)
class BlockHeader:
    """The consensus-critical summary of a block."""

    chain_id: str
    height: int
    prev_hash: bytes
    merkle_root: bytes
    receipts_root: bytes
    time_ticks: int
    difficulty_bits: int
    nonce: int
    miner: Address
    _enc: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _id: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def to_wire(self):
        return {
            "chain_id": self.chain_id,
            "height": self.height,
            "prev_hash": self.prev_hash,
            "merkle_root": self.merkle_root,
            "receipts_root": self.receipts_root,
            "time_ticks": self.time_ticks,
            "difficulty_bits": self.difficulty_bits,
            "nonce": self.nonce,
            "miner": self.miner.raw,
        }

    def wire_bytes(self) -> bytes:
        enc = self._enc
        if enc is None:
            enc = canonical_encode(self.to_wire())
            object.__setattr__(self, "_enc", enc)
        return enc

    def block_id(self) -> bytes:
        """The block hash (double SHA-256 of the header, Bitcoin-style)."""
        block_id = self._id
        if block_id is None:
            block_id = double_sha256(self.wire_bytes())
            object.__setattr__(self, "_id", block_id)
        return block_id

    @property
    def timestamp(self) -> float:
        return decode_time(self.time_ticks)

    def with_nonce(self, nonce: int) -> "BlockHeader":
        """Copy with a different nonce (used during mining)."""
        return BlockHeader(
            chain_id=self.chain_id,
            height=self.height,
            prev_hash=self.prev_hash,
            merkle_root=self.merkle_root,
            receipts_root=self.receipts_root,
            time_ticks=self.time_ticks,
            difficulty_bits=self.difficulty_bits,
            nonce=nonce,
            miner=self.miner,
        )

    def __repr__(self) -> str:
        return (
            f"BlockHeader({self.chain_id} h={self.height} "
            f"id={self.block_id().hex()[:8]}…)"
        )


_LEAF_MSG = b"D\x00\x00\x00\x02" + canonical_encode("msg") + b"B"
_LEAF_STATUS = canonical_encode("status") + b"S"


def receipt_leaf(message_id: bytes, status: str) -> bytes:
    """Canonical leaf bytes committing to one message's execution status.

    Headers carry a ``receipts_root`` over these leaves so that light
    clients can verify not only that a call was *included* but that it
    *succeeded* — a reverted ``AuthorizeRedeem`` must not count as a
    commit decision (Section 4.3 evidence).  The bytes are
    ``canonical_encode({"msg": message_id, "status": status})``, spelled
    out as the fixed two-field template that always is.
    """
    status_bytes = status.encode("utf-8")
    return b"".join(
        (
            _LEAF_MSG,
            len(message_id).to_bytes(4, "big"),
            message_id,
            _LEAF_STATUS,
            len(status_bytes).to_bytes(4, "big"),
            status_bytes,
        )
    )


def receipts_merkle_tree(statuses: list[tuple[bytes, str]]) -> MerkleTree:
    """Merkle tree over ``(message_id, status)`` receipt leaves."""
    return MerkleTree([receipt_leaf(mid, status) for mid, status in statuses])


@dataclass(frozen=True, slots=True)
class Block:
    """A header plus the ordered list of messages it includes.

    ``messages`` are chain messages (transfers, deployments, calls — see
    :mod:`repro.chain.messages`); the header's ``merkle_root`` must equal
    the root over their ids.
    """

    header: BlockHeader
    messages: tuple
    _tree: MerkleTree | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def with_tree(cls, header: BlockHeader, messages: tuple, tree: MerkleTree) -> "Block":
        """A block whose builder already holds ``tree``, the Merkle tree
        over exactly ``messages``' ids, so it is not built a second time."""
        block = cls(header=header, messages=messages)
        object.__setattr__(block, "_tree", tree)
        return block

    def block_id(self) -> bytes:
        return self.header.block_id()

    def merkle_tree(self) -> MerkleTree:
        tree = self._tree
        if tree is None:
            # MerkleTree memoizes its levels internally and is read-only
            # after construction, so one shared instance per block is safe.
            tree = MerkleTree([message.message_id() for message in self.messages])
            object.__setattr__(self, "_tree", tree)
        return tree

    def compute_merkle_root(self) -> bytes:
        return self.merkle_tree().root()

    def __repr__(self) -> str:
        return (
            f"Block({self.header.chain_id} h={self.header.height} "
            f"msgs={len(self.messages)} id={self.block_id().hex()[:8]}…)"
        )
