"""Tests for key pairs, addresses, signed messages, and ms(D)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import Address, KeyPair, PublicKey
from repro.crypto.hashing import sha256, tagged_hash
from repro.crypto.signatures import (
    Multisignature,
    SignedMessage,
    clear_verify_cache,
    multisign,
    verify_cache_info,
)
from repro.errors import InvalidKeyError


class TestKeyPair:
    def test_from_seed_deterministic(self):
        assert KeyPair.from_seed("alice").address == KeyPair.from_seed("alice").address

    def test_different_seeds_different_keys(self):
        assert KeyPair.from_seed("a").address != KeyPair.from_seed("b").address

    def test_from_seed_accepts_bytes(self):
        assert KeyPair.from_seed(b"alice").address == KeyPair.from_seed("alice").address

    def test_sign_verify(self):
        kp = KeyPair.from_seed("signer")
        digest = sha256(b"payload")
        assert kp.public_key.verify(digest, kp.sign(digest))


class TestPublicKey:
    def test_bytes_roundtrip(self):
        pk = KeyPair.from_seed("x").public_key
        assert PublicKey.from_bytes(pk.to_bytes()).to_bytes() == pk.to_bytes()

    def test_address_is_20_bytes(self):
        assert len(KeyPair.from_seed("x").address.raw) == 20

    def test_address_deterministic(self):
        pk = KeyPair.from_seed("x").public_key
        assert pk.address() == pk.address()


class TestAddress:
    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidKeyError):
            Address(b"short")

    def test_hex(self):
        addr = Address(b"\xab" * 20)
        assert addr.hex() == "ab" * 20


class TestSignedMessage:
    def test_sign_and_verify_payload(self):
        kp = KeyPair.from_seed("p")
        (msg,) = multisign([kp], "domain", b"payload").signatures
        assert msg.digest == tagged_hash("domain", b"payload")
        assert msg.signer.to_bytes() == kp.public_key.to_bytes()
        assert msg.verify()

    def test_domain_binding(self):
        kp = KeyPair.from_seed("p")
        (msg,) = multisign([kp], "domain-a", b"payload").signatures
        other = tagged_hash("domain-b", b"payload")
        assert msg.digest != other
        assert not SignedMessage(other, msg.signature, msg.signer).verify()

    def test_payload_binding(self):
        kp = KeyPair.from_seed("p")
        (msg,) = multisign([kp], "d", b"payload").signatures
        other = tagged_hash("d", b"other")
        assert not SignedMessage(other, msg.signature, msg.signer).verify()

    def test_tampered_signer_fails(self):
        kp = KeyPair.from_seed("p")
        other = KeyPair.from_seed("q")
        (msg,) = multisign([kp], "d", b"x").signatures
        assert msg.verify()
        forged = SignedMessage(msg.digest, msg.signature, other.public_key)
        assert not forged.verify()


class TestMultisignature:
    def _keys(self, n):
        return [KeyPair.from_seed(f"signer-{i}") for i in range(n)]

    def test_complete_multisig_verifies(self):
        kps = self._keys(3)
        ms = multisign(kps, "swap", b"graph")
        assert ms.verify([kp.public_key for kp in kps])

    def test_missing_signer_fails(self):
        kps = self._keys(3)
        ms = multisign(kps[:2], "swap", b"graph")
        assert not ms.verify([kp.public_key for kp in kps])

    def test_signature_order_irrelevant(self):
        kps = self._keys(4)
        forward = multisign(kps, "swap", b"graph")
        backward = multisign(list(reversed(kps)), "swap", b"graph")
        required = [kp.public_key for kp in kps]
        assert forward.verify(required) and backward.verify(required)

    def test_extra_signers_do_not_hurt(self):
        kps = self._keys(3)
        ms = multisign(kps, "swap", b"graph")
        assert ms.verify([kp.public_key for kp in kps[:2]])

    def test_id_stable_across_signature_order(self):
        kps = self._keys(3)
        a = multisign(kps, "swap", b"graph")
        b = multisign(list(reversed(kps)), "swap", b"graph")
        assert a.id() == b.id()

    def test_id_differs_per_payload(self):
        kps = self._keys(2)
        assert multisign(kps, "swap", b"g1").id() != multisign(kps, "swap", b"g2").id()

    def test_invalid_signature_not_counted(self):
        kps = self._keys(2)
        ms = multisign(kps, "swap", b"graph")
        # Corrupt one signature: swap the signer key of the first entry.
        bad = SignedMessage(
            ms.signatures[0].digest, ms.signatures[0].signature, kps[1].public_key
        )
        corrupted = Multisignature(ms.digest, (bad, ms.signatures[1]))
        assert not corrupted.verify([kp.public_key for kp in kps])

    def test_separately_gathered_signatures_combine(self):
        """Signatures collected one participant at a time form a complete
        ms(D) once every required signer is present."""
        kps = self._keys(3)
        parts = [multisign([kp], "swap", b"graph") for kp in kps]
        combined = Multisignature(
            parts[0].digest, tuple(sig for part in parts for sig in part.signatures)
        )
        assert combined.verify([kp.public_key for kp in kps])
        assert combined.id() == multisign(kps, "swap", b"graph").id()

    def test_signature_over_another_digest_not_counted(self):
        """A valid signature over a different graph does not stand in for
        the missing signer."""
        kps = self._keys(2)
        base = multisign(kps[:1], "swap", b"graph")
        foreign = multisign(kps[1:], "swap", b"DIFFERENT").signatures[0]
        assert foreign.verify()
        mixed = Multisignature(base.digest, base.signatures + (foreign,))
        assert not mixed.verify([kp.public_key for kp in kps])

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_property_n_of_n(self, n):
        kps = self._keys(n)
        ms = multisign(kps, "d", b"p")
        assert ms.verify([kp.public_key for kp in kps])


class TestMultisignVerifyMemo:
    """`Multisignature.verify` is memoized by (digest, sigs, keyset)."""

    def _ms(self, n=3, payload=b"memo-graph"):
        kps = [KeyPair.from_seed(f"memo-{i}") for i in range(n)]
        return multisign(kps, "swap", payload), [kp.public_key for kp in kps]

    def test_repeat_verification_hits_the_cache(self):
        clear_verify_cache()
        ms, keys = self._ms()
        assert ms.verify(keys)
        first = verify_cache_info()
        assert first["misses"] == 1 and first["hits"] == 0
        for _ in range(5):
            assert ms.verify(keys)
        after = verify_cache_info()
        assert after["misses"] == 1 and after["hits"] == 5

    def test_cache_keyed_on_content_not_identity(self):
        clear_verify_cache()
        ms, keys = self._ms()
        ms.verify(keys)
        # An equal-content copy reuses the entry...
        copy = Multisignature(ms.digest, tuple(ms.signatures))
        assert copy.verify(keys)
        assert verify_cache_info()["hits"] == 1
        # ...but a different keyset or tampered signature set does not.
        assert not ms.verify(keys + [KeyPair.from_seed("memo-x").public_key])
        tampered = Multisignature(ms.digest, ms.signatures[:-1])
        assert not tampered.verify(keys)
        info = verify_cache_info()
        assert info["misses"] == 3

    def test_cached_negative_result(self):
        clear_verify_cache()
        ms, keys = self._ms(2)
        missing = Multisignature(ms.digest, ms.signatures[:1])
        assert not missing.verify(keys)
        assert not missing.verify(keys)
        info = verify_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1
