"""Signed messages and the multisignature ``ms(D)``.

Section 4 of the paper has all participants of an AC2T multisign the
transaction graph ``D`` at a timestamp ``t``:

    ms(D) = sig(..., sig((D, t), p1), ..., p|V|)

The order of participant signatures is not important; any order indicates
that all participants agree on ``(D, t)``.  We therefore implement
``ms(D)`` as a *set* of independent signatures over the same canonical
digest, one per participant, which verifies under any ordering.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from .ecdsa import EcdsaSignature
from .hashing import tagged_hash
from .keys import KeyPair, PublicKey

# ---------------------------------------------------------------------------
# Multisignature verification memo
# ---------------------------------------------------------------------------
#
# Witness contracts re-verify the same ms(D) every time their deploy
# message is applied to a state: the miner's template trial-apply, the
# block connect, and every evidence re-validation all repeat identical
# ECDSA work.  The verdict is a pure function of (digest, signature set,
# required keyset), so it is memoized here; the cache is content-keyed
# (tampering with any byte yields a different key) and bounded.

_VERIFY_CACHE: "OrderedDict[tuple, bool]" = OrderedDict()
_VERIFY_CACHE_MAX = 4096
_verify_cache_hits = 0
_verify_cache_misses = 0


def verify_cache_info() -> dict:
    """Hit/miss counters of the ``Multisignature.verify`` memo."""
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


@dataclass(frozen=True)
class SignedMessage:
    """A message digest signed by a single key."""

    digest: bytes
    signature: EcdsaSignature
    signer: PublicKey

    def verify(self) -> bool:
        """Return True iff the signature is valid for the digest."""
        return self.signer.verify(self.digest, self.signature)

    def to_wire(self):
        return {
            "digest": self.digest,
            "signature": self.signature.to_bytes(),
            "signer": self.signer.to_bytes(),
        }


@dataclass(frozen=True)
class Multisignature:
    """The multisignature ``ms(D)`` over a payload digest.

    Attributes:
        digest: the canonical digest of ``(D, t)``.
        signatures: one :class:`SignedMessage` per required signer.

    The multisignature is *complete* when every required public key has
    contributed a valid signature over the shared digest.
    """

    digest: bytes
    signatures: tuple[SignedMessage, ...] = field(default_factory=tuple)

    def to_wire(self):
        return {"digest": self.digest, "signatures": list(self.signatures)}

    def id(self) -> bytes:
        """A stable identifier for this multisignature (keying Trent's store).

        The identifier covers only the digest, not the signature bytes, so
        that re-signing the same ``(D, t)`` pair cannot be used to register
        the same AC2T twice (the paper's timestamp ``t`` is what
        distinguishes identical swaps between the same participants).
        """
        return tagged_hash("repro/ms-id", self.digest)

    def verify(self, required_signers: Iterable[PublicKey | bytes]) -> bool:
        """Return True iff every required signer signed the digest validly.

        Signature order is irrelevant, matching the paper's remark that
        "the order of participant signatures in ms(D) is not important".
        A signer is named by its key or by its compressed bytes, compared
        as bytes (``SCw`` stores bytes and never decodes them): bytes
        that are no curve point are no verified signer's compression, so
        they fail.  The verdict is memoized by (digest, signature set,
        keyset) — see the module-level cache — so repeated validations of
        the same multisigned graph skip the component ECDSA verifications.
        """
        global _verify_cache_hits, _verify_cache_misses
        need = {pk if isinstance(pk, bytes) else pk.to_bytes() for pk in required_signers}
        key = (
            self.digest,
            tuple(
                sorted(
                    (sig.digest, sig.signer.to_bytes(), sig.signature.to_bytes())
                    for sig in self.signatures
                )
            ),
            tuple(sorted(need)),
        )
        cached = _VERIFY_CACHE.get(key)
        if cached is not None:
            _verify_cache_hits += 1
            _VERIFY_CACHE.move_to_end(key)
            return cached
        _verify_cache_misses += 1
        have = {
            sig.signer.to_bytes()
            for sig in self.signatures
            if sig.digest == self.digest and sig.verify()
        }
        result = need <= have
        _VERIFY_CACHE[key] = result
        while len(_VERIFY_CACHE) > _VERIFY_CACHE_MAX:
            _VERIFY_CACHE.popitem(last=False)
        return result


def multisign(keypairs: list[KeyPair], domain: str, payload: bytes) -> Multisignature:
    """Have every keypair sign ``payload``; returns the combined ``ms``."""
    digest = tagged_hash(domain, payload)
    signatures = tuple(
        SignedMessage(digest, kp.sign(digest), kp.public_key) for kp in keypairs
    )
    return Multisignature(digest, signatures)
