"""Cryptographic primitives: hashing, Merkle trees, ECDSA, commitments.

Everything the protocols need is implemented from first principles in
pure Python — see the individual modules for details.
"""

from .keys import KeyPair

__all__ = [
    "KeyPair",
]
