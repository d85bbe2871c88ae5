"""Unit tests for repro.crypto.hashing."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import hashing


class TestSha256:
    def test_matches_stdlib(self):
        assert hashing.sha256(b"abc") == hashlib.sha256(b"abc").digest()

    def test_empty_input(self):
        assert hashing.sha256(b"") == hashlib.sha256(b"").digest()

    def test_rejects_str(self):
        with pytest.raises(TypeError):
            hashing.sha256("not bytes")

    def test_accepts_bytearray(self):
        assert hashing.sha256(bytearray(b"xy")) == hashing.sha256(b"xy")

    def test_digest_size(self):
        assert len(hashing.sha256(b"x")) == hashing.DIGEST_SIZE


class TestDoubleSha256:
    def test_is_double_application(self):
        once = hashing.sha256(b"block")
        assert hashing.double_sha256(b"block") == hashing.sha256(once)


class TestHashlock:
    def test_roundtrip(self):
        secret = b"my-secret"
        lock = hashing.hashlock(secret)
        assert hashing.verify_hashlock(lock, secret)

    def test_wrong_secret_fails(self):
        lock = hashing.hashlock(b"right")
        assert not hashing.verify_hashlock(lock, b"wrong")

    @given(st.binary(min_size=0, max_size=128))
    def test_any_secret_verifies_against_own_lock(self, secret):
        assert hashing.verify_hashlock(hashing.hashlock(secret), secret)

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    def test_distinct_secrets_do_not_cross_verify(self, a, b):
        if a != b:
            assert not hashing.verify_hashlock(hashing.hashlock(a), b)


class TestTaggedHash:
    def test_domain_separation(self):
        assert hashing.tagged_hash("a", b"x") != hashing.tagged_hash("b", b"x")

    def test_same_tag_same_data(self):
        assert hashing.tagged_hash("t", b"d") == hashing.tagged_hash("t", b"d")

    def test_is_the_bip340_construction(self):
        tag = hashlib.sha256("repro/ms-id".encode("utf-8")).digest()
        expected = hashlib.sha256(tag + tag + b"payload").digest()
        assert hashing.tagged_hash("repro/ms-id", b"payload") == expected

    @given(st.binary(max_size=64))
    def test_never_the_untagged_digest(self, data):
        assert hashing.tagged_hash("t", data) != hashing.sha256(data)


class TestHelpers:
    def test_hash_str_utf8(self):
        assert hashing.hash_str("héllo") == hashing.sha256("héllo".encode("utf-8"))
