"""Merkle trees and inclusion proofs.

Block headers commit to their transaction set through a Merkle root
(Section 2.1).  The relay-contract validator of Section 4.3 verifies
that a transaction occurred in a block by checking a Merkle *inclusion
proof* against the committed root, without downloading the block body.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import InvalidProofError
from .hashing import sha256

# Leaves and nodes are tagged so one can never pass for the other.
_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"
_EMPTY_ROOT = sha256(b"empty-merkle-tree")
#: The 8-byte big-endian length prefix of a 32-byte digest — every tree node's child.
_DIGEST_PREFIX = (32).to_bytes(8, "big")
_BYTES_LIKE = (bytes, bytearray, memoryview)


def _node_hash(left: bytes, right: bytes) -> bytes:
    """Hash an interior node from its two children:
    ``sha256(0x01 || sha256(len(left) || left || len(right) || right))``
    with 8-byte big-endian lengths (a proof's siblings may be any length)."""
    pair = b"".join(
        (len(left).to_bytes(8, "big"), left, len(right).to_bytes(8, "big"), right)
    )
    return hashlib.sha256(_NODE_TAG + hashlib.sha256(pair).digest()).digest()


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof for one leaf of a Merkle tree.

    Attributes:
        leaf: the raw leaf payload being proven.
        index: the position of the leaf in the original leaf list.
        siblings: bottom-up list of sibling digests on the path to the root.
        tree_size: number of leaves in the tree the proof was built from.
    """

    leaf: bytes
    index: int
    siblings: tuple[bytes, ...]
    tree_size: int

    def to_wire(self):
        return {
            "leaf": self.leaf,
            "index": self.index,
            "siblings": list(self.siblings),
            "tree_size": self.tree_size,
        }

    def root(self) -> bytes:
        """Recompute the Merkle root implied by this proof."""
        if self.tree_size <= 0:
            raise InvalidProofError("proof over an empty tree")
        if not 0 <= self.index < self.tree_size:
            raise InvalidProofError(
                f"leaf index {self.index} out of range for tree of "
                f"{self.tree_size} leaves"
            )
        digest = sha256(_LEAF_TAG + self.leaf)
        position = self.index
        level_size = self.tree_size
        consumed = 0
        while level_size > 1:
            # An odd node at the end of a level is promoted unchanged.
            if position % 2 or position + 1 < level_size:
                if consumed >= len(self.siblings):
                    raise InvalidProofError("proof has too few sibling digests")
                sibling = self.siblings[consumed]
                consumed += 1
                if position % 2 == 0:
                    digest = _node_hash(digest, sibling)
                else:
                    digest = _node_hash(sibling, digest)
            position //= 2
            level_size = (level_size + 1) // 2
        if consumed != len(self.siblings):
            raise InvalidProofError("proof has extra sibling digests")
        return digest

    def verify(self, expected_root: bytes) -> bool:
        """Return True iff this proof binds ``leaf`` to ``expected_root``."""
        try:
            return self.root() == expected_root
        except InvalidProofError:
            return False


@dataclass
class MerkleTree:
    """A Merkle tree over an ordered list of byte-string leaves.

    The tree handles non-power-of-two leaf counts by promoting the odd
    last node of each level (Certificate-Transparency style), which keeps
    proofs unambiguous without duplicating leaves.
    """

    leaves: list[bytes] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Only bytes-like leaves: bytes(3) is three zero bytes, so a
        # coerced [3] and [b"\0\0\0"] would share a root.
        leaves = []
        for index, leaf in enumerate(self.leaves):
            if not isinstance(leaf, _BYTES_LIKE):
                raise TypeError(f"merkle leaf {index} is a {type(leaf).__name__}, not bytes")
            leaves.append(bytes(leaf))
        self.leaves = leaves
        self._levels: list[list[bytes]] | None = None

    # -- construction ------------------------------------------------------

    def _build(self) -> list[list[bytes]]:
        """The levels, leaf digests first, each in one comprehension: a pair
        is hashed as :func:`_node_hash` hashes it, the odd last node is
        promoted unchanged."""
        if self._levels is None:
            sha = hashlib.sha256
            level = [sha(_LEAF_TAG + leaf).digest() for leaf in self.leaves] or [_EMPTY_ROOT]
            self._levels = [level]
            while len(level) > 1:
                parents = [
                    sha(_NODE_TAG + sha(_DIGEST_PREFIX + a + _DIGEST_PREFIX + b).digest()).digest()
                    for a, b in zip(level[::2], level[1::2])
                ]
                if len(level) % 2:
                    parents.append(level[-1])
                self._levels.append(parents)
                level = parents
        return self._levels

    # -- queries -----------------------------------------------------------

    def root(self) -> bytes:
        """Return the Merkle root digest."""
        return self._build()[-1][0]

    def proof(self, index: int) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``index``."""
        if not self.leaves:
            raise InvalidProofError("cannot prove inclusion in an empty tree")
        if not 0 <= index < len(self.leaves):
            raise InvalidProofError(
                f"leaf index {index} out of range for {len(self.leaves)} leaves"
            )
        levels = self._build()
        siblings: list[bytes] = []
        position = index
        for level in levels[:-1]:
            if position % 2 == 0:
                if position + 1 < len(level):
                    siblings.append(level[position + 1])
            else:
                siblings.append(level[position - 1])
            position //= 2
        return MerkleProof(
            leaf=self.leaves[index],
            index=index,
            siblings=tuple(siblings),
            tree_size=len(self.leaves),
        )


def merkle_root(leaves: list[bytes]) -> bytes:
    """Convenience: the Merkle root of ``leaves``."""
    return MerkleTree(list(leaves)).root()
