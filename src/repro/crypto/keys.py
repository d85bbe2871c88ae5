"""Key-pair and address abstractions on top of the raw curve arithmetic.

End-users in the paper's application layer are identified by their public
keys, and their digital signatures are "the end-users' way to generate
transactions" (Section 2.1).  :class:`KeyPair` bundles the private scalar
with its public point; :class:`Address` is the short identity derived by
hashing the public key, used as the owner field of assets and contracts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..errors import InvalidKeyError
from . import ecdsa
from .hashing import sha256, tagged_hash

# ---------------------------------------------------------------------------
# ECDSA verification memo
# ---------------------------------------------------------------------------
#
# A chain message's signature is re-verified at every state application:
# the miner's template trial-apply, the block connect, and every fork
# trial repeat the exact same ``u2·Q + u1·G`` (an endomorphism-split
# wNAF pass of ~128 doublings over the key plus the generator-table
# additions; the ledger reports the miss as
# ``crypto.verify_first_sight_per_s`` and the hit as
# ``crypto.verify_memo_hit_per_s``).  The verdict is a pure function of
# (public point, digest, signature), so it is memoized content-keyed and
# bounded, same idiom as the multisignature memo in
# :mod:`repro.crypto.signatures`.  ``is_on_curve`` admits one
# representation per point, so one key never occupies two memo entries.

_VERIFY_CACHE: "OrderedDict[tuple, bool]" = OrderedDict()
_VERIFY_CACHE_MAX = 8192
_verify_cache_hits = 0
_verify_cache_misses = 0


def verify_cache_info() -> dict:
    """Hit/miss counters of the ``PublicKey.verify`` memo."""
    return {
        "hits": _verify_cache_hits,
        "misses": _verify_cache_misses,
        "size": len(_VERIFY_CACHE),
    }


def clear_verify_cache() -> None:
    """Empty the memo and reset its counters (tests, benchmarks)."""
    global _verify_cache_hits, _verify_cache_misses
    _VERIFY_CACHE.clear()
    _verify_cache_hits = 0
    _verify_cache_misses = 0


# ---------------------------------------------------------------------------
# Seed-derivation memo
# ---------------------------------------------------------------------------
#
# A world names each identity by a seed string and asks for it more than
# once (the graph builder and the participant actor both derive
# ``participant/<name>``; a service restore derives the whole roster
# again), and every derivation is a ``k·G``.  A :class:`KeyPair` is
# immutable and a pure function of the seed bytes, so the second request
# is answered from here — same idiom as the verification memo above,
# ``str`` seeds stored under their UTF-8 bytes.

_SEED_CACHE: "OrderedDict[bytes, KeyPair]" = OrderedDict()
_SEED_CACHE_MAX = 8192


def clear_seed_cache() -> None:
    """Empty the :meth:`KeyPair.from_seed` memo (tests)."""
    _SEED_CACHE.clear()


@dataclass(frozen=True)
class PublicKey:
    """An secp256k1 public key (end-user identity)."""

    point: ecdsa.Point

    def __post_init__(self) -> None:
        if self.point.is_infinity or not ecdsa.is_on_curve(self.point):
            raise InvalidKeyError("public key point must be on the curve")

    def to_bytes(self) -> bytes:
        """SEC1 compressed encoding."""
        encoded = self.__dict__.get("_bytes")
        if encoded is None:
            encoded = ecdsa.compress_point(self.point)
            object.__setattr__(self, "_bytes", encoded)
        return encoded

    def to_wire(self):
        return {"pubkey": self.to_bytes()}

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        return cls(ecdsa.decompress_point(data))

    def address(self) -> "Address":
        """Derive the address (hash of the compressed public key)."""
        address = self.__dict__.get("_address")
        if address is None:
            address = Address(tagged_hash("repro/address", self.to_bytes())[:20])
            object.__setattr__(self, "_address", address)
        return address

    def verify(self, digest: bytes, signature: ecdsa.EcdsaSignature) -> bool:
        """Verify a signature over a 32-byte digest (memoized)."""
        global _verify_cache_hits, _verify_cache_misses
        key = (self.point.x, self.point.y, digest, signature.r, signature.s)
        cached = _VERIFY_CACHE.get(key)
        if cached is not None:
            _verify_cache_hits += 1
            _VERIFY_CACHE.move_to_end(key)
            return cached
        _verify_cache_misses += 1
        result = ecdsa.verify_digest(self.point, digest, signature)
        _VERIFY_CACHE[key] = result
        while len(_VERIFY_CACHE) > _VERIFY_CACHE_MAX:
            _VERIFY_CACHE.popitem(last=False)
        return result

    def __repr__(self) -> str:
        return f"PublicKey({self.to_bytes().hex()[:16]}…)"


@dataclass(frozen=True)
class Address:
    """A 20-byte identity derived from a public key.

    Assets and smart contracts record their owner / sender / recipient as
    addresses, mirroring how Bitcoin and Ethereum identify parties.
    """

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != 20:
            raise InvalidKeyError("address must be 20 bytes")

    def hex(self) -> str:
        return self.raw.hex()

    def to_wire(self):
        return {"address": self.raw}

    def __str__(self) -> str:
        return self.hex()[:12]

    def __repr__(self) -> str:
        return f"Address({self.hex()[:12]}…)"


@dataclass(frozen=True)
class KeyPair:
    """A private scalar plus its derived public key.

    Use :meth:`from_seed` for deterministic, reproducible identities in
    simulations, or :meth:`generate` with an RNG-provided scalar.
    """

    private_scalar: int
    public_key: PublicKey

    @classmethod
    def from_scalar(cls, private_scalar: int) -> "KeyPair":
        ecdsa.validate_private_scalar(private_scalar)
        return cls(private_scalar, PublicKey(ecdsa.derive_public_point(private_scalar)))

    @classmethod
    def from_seed(cls, seed: bytes | str) -> "KeyPair":
        """Derive a key pair deterministically from an arbitrary seed (memoized)."""
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        pair = _SEED_CACHE.get(seed)
        if pair is not None:
            _SEED_CACHE.move_to_end(seed)
            return pair
        counter = 0
        while True:
            digest = sha256(seed + counter.to_bytes(4, "big"))
            scalar = int.from_bytes(digest, "big")
            if 1 <= scalar < ecdsa.N:
                break
            counter += 1
        pair = _SEED_CACHE[seed] = cls.from_scalar(scalar)
        while len(_SEED_CACHE) > _SEED_CACHE_MAX:
            _SEED_CACHE.popitem(last=False)
        return pair

    @property
    def address(self) -> Address:
        return self.public_key.address()

    def sign(self, digest: bytes) -> ecdsa.EcdsaSignature:
        """Sign a 32-byte digest with the private scalar."""
        return ecdsa.sign_digest(self.private_scalar, digest)

    def __repr__(self) -> str:
        return f"KeyPair(address={self.address})"
