"""Hash primitives used across the library.

All hashing in the repo funnels through this module so that the digest
algorithm is swappable in one place.  The paper relies on a cryptographic
one-way hash ``h = H(s)`` both for hashlocks (Section 1) and for chaining
blocks / Merkle trees (Section 2); we use SHA-256 throughout, like Bitcoin.
"""

from __future__ import annotations

import hashlib

DIGEST_SIZE = 32


def sha256(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data``."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"sha256 expects bytes, got {type(data).__name__}")
    return hashlib.sha256(bytes(data)).digest()


def double_sha256(data: bytes) -> bytes:
    """Return SHA-256(SHA-256(data)), the digest Bitcoin uses for block ids."""
    return sha256(sha256(data))


def hashlock(secret: bytes) -> bytes:
    """Return the hashlock ``h = H(s)`` for a hash secret ``s``.

    A hashlock locks assets in a smart contract until the preimage ``s``
    is revealed (Section 1 of the paper).
    """
    return sha256(secret)


def verify_hashlock(lock: bytes, secret: bytes) -> bool:
    """Return True iff ``H(secret) == lock``."""
    return hashlock(secret) == lock


def hash_str(text: str) -> bytes:
    """Hash a unicode string (UTF-8 encoded)."""
    return sha256(text.encode("utf-8"))


def tagged_hash(tag: str, data: bytes) -> bytes:
    """BIP-340 style tagged hash: SHA256(SHA256(tag) || SHA256(tag) || data).

    Domain separation keeps digests computed for different purposes
    (transaction ids, block ids, signature challenges) from colliding.
    """
    tag_digest = hash_str(tag)
    return sha256(tag_digest + tag_digest + data)
