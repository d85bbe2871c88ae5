"""Unit + property tests for the pure-Python secp256k1 ECDSA."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa, keys
from repro.crypto.hashing import sha256
from repro.crypto.keys import PublicKey
from repro.errors import InvalidKeyError, InvalidSignatureError

N, P, G = ecdsa.N, ecdsa.P, ecdsa.G
LAMBDA, BETA = ecdsa.LAMBDA, ecdsa.BETA

scalars = st.integers(min_value=1, max_value=N - 1)
digests = st.binary(min_size=32, max_size=32)


def reference_mult(k, point):
    """Affine double-and-add over ``point_add`` only: the oracle for the kernel.

    One modular inversion per group operation and none of the kernel's
    machinery (no Jacobian coordinates, no table, no wNAF), so an error in
    either is visible as a disagreement.
    """
    k %= N
    result = ecdsa.INFINITY
    addend = point
    while k:
        if k & 1:
            result = ecdsa.point_add(result, addend)
        addend = ecdsa.point_add(addend, addend)
        k >>= 1
    return result


def reference_verify(public_point, digest, signature):
    """Textbook ECDSA verification over :func:`reference_mult`."""
    z = int.from_bytes(digest, "big") % N
    w = pow(signature.s, -1, N)
    point = ecdsa.point_add(
        reference_mult(z * w % N, G),
        reference_mult(signature.r * w % N, public_point),
    )
    return not point.is_infinity and point.x % N == signature.r


class TestCurveArithmetic:
    def test_generator_on_curve(self):
        assert ecdsa.is_on_curve(ecdsa.G)

    def test_infinity_on_curve(self):
        assert ecdsa.is_on_curve(ecdsa.INFINITY)

    def test_point_plus_infinity(self):
        assert ecdsa.point_add(ecdsa.G, ecdsa.INFINITY) == ecdsa.G
        assert ecdsa.point_add(ecdsa.INFINITY, ecdsa.G) == ecdsa.G

    def test_point_plus_negation_is_infinity(self):
        assert ecdsa.point_add(ecdsa.G, ecdsa.point_neg(ecdsa.G)).is_infinity

    def test_doubling_matches_addition(self):
        assert ecdsa.point_add(ecdsa.G, ecdsa.G) == ecdsa.scalar_mult(2, ecdsa.G)

    def test_scalar_mult_distributes(self):
        # (a + b)G == aG + bG
        a, b = 123456789, 987654321
        lhs = ecdsa.scalar_mult(a + b, ecdsa.G)
        rhs = ecdsa.point_add(ecdsa.scalar_mult(a, ecdsa.G), ecdsa.scalar_mult(b, ecdsa.G))
        assert lhs == rhs

    def test_order_times_g_is_infinity(self):
        assert ecdsa.scalar_mult(ecdsa.N, ecdsa.G).is_infinity

    @given(scalars)
    @settings(max_examples=10, deadline=None)
    def test_derived_points_on_curve(self, d):
        assert ecdsa.is_on_curve(ecdsa.derive_public_point(d))


#: Long runs of set bits (all of them, or in alternating 6-bit groups):
#: a wNAF recodes them into negative digits and carries that ripple up
#: through the 33-position base boundaries; and the all-ones 256-bit word.
WINDOW_EDGES = [
    2**252 - 1,
    sum(33 << (6 * row) for row in range(42)),
    sum(63 << (6 * row) for row in range(0, 42, 2)),
    2**256 - 1,
]

#: Where the endomorphism split changes shape: a half that is zero, one,
#: the full 128 bits, or a basis vector of the lattice itself.
SPLIT_EDGES = [
    LAMBDA,
    N - LAMBDA,
    LAMBDA + 1,
    LAMBDA - 1,
    2**127,
    2**128 - 1,
    2**128 + 1,
    ecdsa._A1,
    ecdsa._MINUS_B1,
    ecdsa._A2,
    (ecdsa._A1 + ecdsa._A2) // 2,
    N // 2,
]


class TestKernelAgainstReference:
    EDGE_SCALARS = [0, 1, 2, 15, 16, 17, N - 1, N, N + 1, 2**255] + SPLIT_EDGES

    @given(st.integers(min_value=-N, max_value=2**257))
    @settings(max_examples=25, deadline=None)
    def test_generator_multiples_match_reference(self, k):
        assert ecdsa.scalar_mult(k, G) == reference_mult(k, G)

    @given(st.integers(min_value=-N, max_value=2**257), scalars)
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_point_multiples_match_reference(self, k, d):
        q = reference_mult(d, G)
        assert ecdsa.scalar_mult(k, q) == reference_mult(k, q)

    @pytest.mark.parametrize("k", EDGE_SCALARS + [-k for k in EDGE_SCALARS])
    @pytest.mark.parametrize(
        "point",
        [G, ecdsa.point_neg(G), reference_mult(0xC0FFEE, G), ecdsa.INFINITY],
        ids=["G", "-G", "Q", "infinity"],
    )
    def test_edge_scalars(self, k, point):
        assert ecdsa.scalar_mult(k, point) == reference_mult(k, point)

    def test_known_multiples_of_g(self):
        assert ecdsa.scalar_mult(2, G) == ecdsa.Point(
            0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
            0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A,
        )
        assert ecdsa.scalar_mult(3, G) == ecdsa.Point(
            0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9,
            0x388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672,
        )
        assert ecdsa.scalar_mult(N - 1, G) == ecdsa.Point(ecdsa.GX, P - ecdsa.GY)

    def test_table_is_built_on_first_use_not_at_import(self):
        script = (
            "import repro.crypto\n"
            "from repro.crypto import ecdsa\n"
            "assert ecdsa._G_TABLE == (), 'table built at import'\n"
            "ecdsa.sign_digest(7, bytes(32))\n"
            "assert len(ecdsa._G_TABLE) == 4 * 256  # four bases, width 10\n"
            "assert all(len(entry) == 2 for entry in ecdsa._G_TABLE)\n"
            "assert not ecdsa._KEY_TABLES, 'signing built a key table'\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=60)


def table_entry(table, j, m):
    """``m·2^(33j)·T`` as the kernel reads it from ``T``'s table."""
    return ecdsa.Point(*table[j * len(table) // 4 + m // 2])


#: Scalars with a digit on either side of each base boundary (positions
#: 32/33, 65/66, 98/99) and at the top of a 128-bit half.
BASE_EDGES = [1 << p for p in (32, 33, 65, 66, 98, 99, 127, 128)] + [
    (1 << 33) - 1,
    (1 << 66) - 1,
    (1 << 128) - 1,
    ((1 << 33) - 1) << 66,
]


class TestGeneratorWindows:
    """``G``'s width-10 wNAF over the four bases ``2^(33j)·G``."""

    @pytest.mark.parametrize(
        "k", WINDOW_EDGES + BASE_EDGES + [0, 31, 32, 33, 63, 64, 2**252, N - 1]
    )
    def test_window_edges_match_reference(self, k):
        assert ecdsa.scalar_mult(k, G) == reference_mult(k, G)

    def test_rows_hold_the_multiples_they_are_read_as(self):
        table = ecdsa._generator_table()
        for j in range(4):
            base = reference_mult(2 ** (33 * j), G)
            for m in (1, 3, 255, 511):
                assert table_entry(table, j, m) == reference_mult(m, base)

    @given(scalars, scalars, scalars)
    @settings(max_examples=25, deadline=None)
    def test_adds_onto_any_accumulator(self, k, e, d):
        # k·G from G's table and e·Q from Q's, on one chain.
        q = reference_mult(d, G)
        summed = ecdsa._multiply((k, ecdsa._generator_table()), (e, ecdsa._key_table(q)))
        assert ecdsa._jacobian_to_point(*summed) == reference_mult(k + e * d, G)


class TestEndomorphism:
    """``λ·(x, y) = (β·x, y)`` and the split ``k = k1 + k2·λ`` the loop runs on."""

    def test_constants(self):
        assert pow(LAMBDA, 3, N) == 1 and LAMBDA != 1
        assert pow(BETA, 3, P) == 1 and BETA != 1
        assert reference_mult(LAMBDA, G) == ecdsa.Point(BETA * ecdsa.GX % P, ecdsa.GY)

    def test_basis_vectors_are_in_the_lattice(self):
        assert (ecdsa._A1 - ecdsa._MINUS_B1 * LAMBDA) % N == 0
        assert (ecdsa._A2 + ecdsa._A1 * LAMBDA) % N == 0
        assert ecdsa._A1 * ecdsa._A1 + ecdsa._MINUS_B1 * ecdsa._A2 == N

    @staticmethod
    def check_split(k):
        k1, k2 = ecdsa._glv_split(k)
        assert (k1 + k2 * LAMBDA - k) % N == 0
        # One chain of at most 129 doublings serves both streams.
        assert abs(k1).bit_length() <= 128 and abs(k2).bit_length() <= 128
        return k1, k2

    @pytest.mark.parametrize("k", [1, 2, N - 1, N - 2] + SPLIT_EDGES + WINDOW_EDGES[:3])
    def test_split_edges(self, k):
        self.check_split(k % N)

    @given(scalars)
    @settings(max_examples=200, deadline=None)
    def test_split_recombines_and_fits(self, k):
        self.check_split(k)

    def test_rounding_is_to_nearest(self):
        # Half the basis in each coordinate is what rounding to nearest
        # guarantees; floor allows twice that, which is 129 bits.
        halves = [self.check_split(step * (N >> 9) + 1) for step in range(512)]
        assert max(abs(k1) for k1, _ in halves) <= (ecdsa._A1 + ecdsa._A2 + 1) // 2
        assert max(abs(k2) for _, k2 in halves) <= (ecdsa._MINUS_B1 + ecdsa._A1 + 1) // 2

    def test_every_sign_pattern_of_the_halves(self):
        q = reference_mult(0xC0FFEE, G)
        seen = {}
        counter = 0
        while len(seen) < 4:
            k = int.from_bytes(sha256(b"glv-signs-%d" % counter), "big") % N
            counter += 1
            k1, k2 = self.check_split(k)
            seen.setdefault((k1 < 0, k2 < 0), k)
        for k in seen.values():
            assert ecdsa.scalar_mult(k, q) == reference_mult(k, q)
            assert ecdsa.scalar_mult(k, ecdsa.point_neg(G)) == reference_mult(N - k, G)

    @given(scalars)
    @settings(max_examples=10, deadline=None)
    def test_odd_multiples_table(self, d):
        # Every row of a key's table reads back as m·2^(33j)·Q, and its
        # λ-image, taken on the fly as (β·x, y), as m·2^(33j)·λ·Q.
        q = reference_mult(d, G)
        table = ecdsa._base_table(q, 5)
        assert len(table) == 32
        for j in range(4):
            base = reference_mult(2 ** (33 * j), q)
            for m in range(1, 16, 2):
                entry = table_entry(table, j, m)
                assert entry == reference_mult(m, base)
                image = ecdsa.Point(BETA * entry.x % P, entry.y)
                assert image == reference_mult(m * LAMBDA, base)


class TestCanonicalPoints:
    """One representation per point: coordinates outside [0, P) are off-curve."""

    NON_CANONICAL = [
        ecdsa.Point(ecdsa.GX + P, ecdsa.GY),
        ecdsa.Point(ecdsa.GX, ecdsa.GY + P),
        ecdsa.Point(ecdsa.GX - P, ecdsa.GY),
        ecdsa.Point(ecdsa.GX, ecdsa.GY - P),
    ]

    @pytest.mark.parametrize("point", NON_CANONICAL)
    def test_not_on_curve(self, point):
        assert not ecdsa.is_on_curve(point)

    @pytest.mark.parametrize("point", NON_CANONICAL)
    def test_public_key_raises_named_error(self, point):
        with pytest.raises(InvalidKeyError):
            PublicKey(point)

    @pytest.mark.parametrize("point", NON_CANONICAL)
    def test_verify_rejects(self, point):
        digest = sha256(b"m")
        signature = ecdsa.sign_digest(1, digest)
        assert ecdsa.verify_digest(G, digest, signature)
        assert not ecdsa.verify_digest(point, digest, signature)


class TestPointEncoding:
    def test_compress_roundtrip(self):
        point = ecdsa.derive_public_point(42)
        assert ecdsa.decompress_point(ecdsa.compress_point(point)) == point

    def test_compressed_length(self):
        assert len(ecdsa.compress_point(ecdsa.G)) == 33

    def test_reject_bad_prefix(self):
        data = b"\x05" + ecdsa.GX.to_bytes(32, "big")
        with pytest.raises(InvalidKeyError):
            ecdsa.decompress_point(data)

    def test_reject_short_encoding(self):
        with pytest.raises(InvalidKeyError):
            ecdsa.decompress_point(b"\x02" + b"\x00" * 16)

    def test_reject_x_not_on_curve(self):
        # x = 5 yields a non-residue for secp256k1.
        data = b"\x02" + (5).to_bytes(32, "big")
        with pytest.raises(InvalidKeyError):
            ecdsa.decompress_point(data)

    def test_reject_infinity_compression(self):
        with pytest.raises(InvalidKeyError):
            ecdsa.compress_point(ecdsa.INFINITY)

    @given(scalars)
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_random_points(self, d):
        point = ecdsa.derive_public_point(d)
        assert ecdsa.decompress_point(ecdsa.compress_point(point)) == point


class TestKeyValidation:
    def test_zero_scalar_invalid(self):
        with pytest.raises(InvalidKeyError):
            ecdsa.validate_private_scalar(0)

    def test_order_scalar_invalid(self):
        with pytest.raises(InvalidKeyError):
            ecdsa.validate_private_scalar(ecdsa.N)

    def test_non_int_invalid(self):
        with pytest.raises(InvalidKeyError):
            ecdsa.validate_private_scalar("nope")


class TestSignVerify:
    def test_roundtrip(self):
        digest = sha256(b"message")
        sig = ecdsa.sign_digest(7, digest)
        assert ecdsa.verify_digest(ecdsa.derive_public_point(7), digest, sig)

    def test_wrong_key_fails(self):
        digest = sha256(b"message")
        sig = ecdsa.sign_digest(7, digest)
        assert not ecdsa.verify_digest(ecdsa.derive_public_point(8), digest, sig)

    def test_wrong_digest_fails(self):
        sig = ecdsa.sign_digest(7, sha256(b"a"))
        assert not ecdsa.verify_digest(ecdsa.derive_public_point(7), sha256(b"b"), sig)

    def test_deterministic_signatures(self):
        digest = sha256(b"same message")
        assert ecdsa.sign_digest(99, digest) == ecdsa.sign_digest(99, digest)

    def test_low_s_normalization(self):
        digest = sha256(b"any")
        sig = ecdsa.sign_digest(1234, digest)
        assert sig.s <= ecdsa.N // 2

    def test_rejects_short_digest(self):
        with pytest.raises(InvalidSignatureError):
            ecdsa.sign_digest(7, b"short")

    def test_verify_rejects_zero_r(self):
        digest = sha256(b"m")
        bad = ecdsa.EcdsaSignature(0, 1)
        assert not ecdsa.verify_digest(ecdsa.derive_public_point(7), digest, bad)

    def test_verify_rejects_infinity_key(self):
        digest = sha256(b"m")
        sig = ecdsa.sign_digest(7, digest)
        assert not ecdsa.verify_digest(ecdsa.INFINITY, digest, sig)

    def test_verify_rejects_bad_digest_length(self):
        sig = ecdsa.sign_digest(7, sha256(b"m"))
        assert not ecdsa.verify_digest(ecdsa.derive_public_point(7), b"xx", sig)

    @given(scalars, digests)
    @settings(max_examples=15, deadline=None)
    def test_property_roundtrip(self, d, digest):
        sig = ecdsa.sign_digest(d, digest)
        assert ecdsa.verify_digest(ecdsa.derive_public_point(d), digest, sig)

    @given(scalars, digests, digests)
    @settings(max_examples=10, deadline=None)
    def test_property_digest_binding(self, d, d1, d2):
        if d1 == d2:
            return
        sig = ecdsa.sign_digest(d, d1)
        assert not ecdsa.verify_digest(ecdsa.derive_public_point(d), d2, sig)


def forget(point):
    """Drop ``point``'s table so its next verify is cold."""
    ecdsa._KEY_TABLES.pop((point.x, point.y), None)


class TestKeyTables:
    """The per-key tables: built by a key's first verify, kept in an LRU."""

    @given(scalars, digests, st.sampled_from(["valid", "r", "s", "digest"]))
    @settings(max_examples=20, deadline=None)
    def test_cold_and_warm_agree_with_reference(self, d, digest, tamper):
        public = reference_mult(d, G)
        signature = ecdsa.sign_digest(d, digest)
        r, s = signature.r, signature.s
        if tamper == "r":
            r = r % (N - 1) + 1
        elif tamper == "s":
            s = s % (N - 1) + 1
        elif tamper == "digest":
            digest = sha256(digest)
        signature = ecdsa.EcdsaSignature(r, s)
        expected = reference_verify(public, digest, signature)
        assert expected == (tamper == "valid")
        forget(public)
        assert ecdsa.verify_digest(public, digest, signature) == expected  # cold
        assert (public.x, public.y) in ecdsa._KEY_TABLES
        assert ecdsa.verify_digest(public, digest, signature) == expected  # warm

    def test_lru_evicts_the_oldest_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(ecdsa, "_KEY_TABLES_MAX", 2)
        keys.clear_verify_cache()
        a, b, c = (reference_mult(d, G) for d in (11, 12, 13))
        digest = sha256(b"lru")
        for point in (a, b, a, c):  # a is refreshed, so b is the oldest
            ecdsa.verify_digest(point, digest, ecdsa.sign_digest(1, digest))
        assert list(ecdsa._KEY_TABLES) == [(a.x, a.y), (c.x, c.y)]
        keys.clear_verify_cache()
        assert not ecdsa._KEY_TABLES

    def test_a_warm_table_never_accepts_another_keys_signature(self):
        a, b = 0xA11CE, 0xB0B
        key_a, key_b = reference_mult(a, G), reference_mult(b, G)
        minus_a = ecdsa.point_neg(key_a)  # same x: the LRU keys on (x, y)
        for index in range(4):
            digest = sha256(b"warm-%d" % index)
            by_a, by_b = ecdsa.sign_digest(a, digest), ecdsa.sign_digest(b, digest)
            by_minus_a = ecdsa.sign_digest(N - a, digest)
            assert ecdsa.verify_digest(key_a, digest, by_a)
            assert not ecdsa.verify_digest(key_a, digest, by_b)
            assert not ecdsa.verify_digest(key_a, digest, by_minus_a)
            assert not ecdsa.verify_digest(minus_a, digest, by_a)
            assert ecdsa.verify_digest(minus_a, digest, by_minus_a)
            assert ecdsa.verify_digest(key_b, digest, by_b)
            assert not ecdsa.verify_digest(key_b, digest, by_a)


class TestVerifyAccumulatorCollisions:
    """``u2·Q`` meeting ``±u1·G`` inside the shared Jacobian accumulator.

    With ``Q = d·G`` and digest ``z = ±r·d`` the two halves of the
    verification sum are ``±t·G`` and ``t·G`` for ``t = z/s``; when an
    addend of one stream is the accumulator (or its negation) the mixed
    addition takes the doubling (or the infinity) branch.
    """

    @staticmethod
    def colliding(t, d, sign):
        r = ecdsa.scalar_mult(2 * t, G).x % N
        z = sign * r * d % N
        s = z * pow(t, -1, N) % N
        return reference_mult(d, G), z.to_bytes(32, "big"), ecdsa.EcdsaSignature(r, s)

    @pytest.mark.parametrize("t", [5, 5 << 12, 0xABCDEF, N - 2])
    def test_equal_halves_double(self, t):
        public, digest, signature = self.colliding(t, 0xC0FFEE, +1)
        assert reference_verify(public, digest, signature)
        assert ecdsa.verify_digest(public, digest, signature)

    @pytest.mark.parametrize("t", [5, 5 << 12, 0xABCDEF, N - 2])
    def test_opposite_halves_cancel_to_infinity(self, t):
        public, digest, signature = self.colliding(t, 0xC0FFEE, -1)
        assert not reference_verify(public, digest, signature)
        assert not ecdsa.verify_digest(public, digest, signature)

    #: ``Q`` and the ``(u1, u2)`` that put the same point, or its
    #: negation, in both streams: ``Q = G`` and ``-G`` read ``t·G`` from
    #: both tables; ``Q = λG`` reads ``t·λG`` from its own table and as the
    #: λ-image of ``t·G`` in the G stream (``t·λ`` splits as ``(0, t)``).
    MEETINGS = {
        "G": (G, lambda t: (t, t)),
        "-G": (ecdsa.point_neg(G), lambda t: (t, N - t)),
        "lambda-G": (reference_mult(LAMBDA, G), lambda t: (t * LAMBDA % N, t)),
    }

    @staticmethod
    def meeting(q, u1, u2):
        """The offsets where the two streams' addends share an ``x``."""
        stream_g, stream_q = [], []
        ecdsa._wnaf_addends(u1, ecdsa._generator_table(), stream_g)
        ecdsa._wnaf_addends(u2, ecdsa._key_table(q), stream_q)
        return {(o, x) for o, x, _ in stream_g} & {(o, x) for o, x, _ in stream_q}

    @pytest.mark.parametrize("t", [5, 5 << 12, 5 << 40, ((1 << 30) + 3) << 70])
    @pytest.mark.parametrize("sign", [+1, -1], ids=["double", "cancel"])
    @pytest.mark.parametrize("name", sorted(MEETINGS))
    def test_streams_meet_mid_chain(self, name, sign, t):
        q, scalars_of = self.MEETINGS[name]
        u1, u2 = scalars_of(t)
        u2 = u2 if sign > 0 else N - u2
        assert self.meeting(q, u1, u2)
        summed = ecdsa._multiply((u1, ecdsa._generator_table()), (u2, ecdsa._key_table(q)))
        expected = ecdsa.point_add(reference_mult(u1, G), reference_mult(u2, q))
        assert expected.is_infinity == (sign < 0)
        assert ecdsa._jacobian_to_point(*summed) == expected
        # The same meeting inside verify_digest, r taken from the sum (or
        # from 2·t·G where the sum is infinity).
        r = (reference_mult(2 * t, G) if expected.is_infinity else expected).x % N
        s = r * pow(u2, -1, N) % N
        digest = (u1 * s % N).to_bytes(32, "big")
        signature = ecdsa.EcdsaSignature(r, s)
        verdict = reference_verify(q, digest, signature)
        assert verdict == (sign > 0)
        assert ecdsa.verify_digest(q, digest, signature) == verdict


class TestJacobianAcceptance:
    """``x(R) mod N == r`` decided as ``r·Z² ≡ X`` or ``(r + N)·Z² ≡ X``.

    ``P - N`` is about ``2**128``, so no honest signature has an ``R``
    with ``N <= R.x < P``; these are constructed from ``R`` backwards:
    for any ``s`` and ``z``, ``Q = r⁻¹·(s·R - z·G)`` makes the
    verification sum land on ``R`` exactly.
    """

    @staticmethod
    def curve_point_with_x_from(x):
        while True:
            try:
                return ecdsa.decompress_point(b"\x02" + x.to_bytes(32, "big"))
            except InvalidKeyError:
                x += 1

    @staticmethod
    def signature_landing_on(point, r, s=0xFEED, z=0xBEEF):
        public = reference_mult(
            pow(r, -1, N),
            ecdsa.point_add(reference_mult(s, point), reference_mult(-z, G)),
        )
        return public, z.to_bytes(32, "big"), ecdsa.EcdsaSignature(r, s)

    @pytest.mark.parametrize("offset", [1, 2**64, P - N - 2**20])
    def test_x_between_n_and_p_is_accepted_as_r_plus_n(self, offset):
        point = self.curve_point_with_x_from(N + offset)
        assert N <= point.x < P
        public, digest, signature = self.signature_landing_on(point, point.x - N)
        assert reference_verify(public, digest, signature)
        assert ecdsa.verify_digest(public, digest, signature)
        assert PublicKey(public).verify(digest, signature)
        off_by_one = ecdsa.EcdsaSignature(signature.r + 1, signature.s)
        assert not reference_verify(public, digest, off_by_one)
        assert not ecdsa.verify_digest(public, digest, off_by_one)

    @pytest.mark.parametrize("x", [1, 2**64])
    def test_r_plus_n_beyond_the_field_is_not_compared(self, x):
        # R.x = r + N - P: congruent to r + N modulo P, but not r modulo N.
        point = self.curve_point_with_x_from(x)
        r = point.x + P - N
        assert r < N <= P <= r + N
        public, digest, signature = self.signature_landing_on(point, r)
        assert not reference_verify(public, digest, signature)
        assert not ecdsa.verify_digest(public, digest, signature)


def openssl_verdict(public, digest, r, s):
    """OpenSSL's verdict on ``(r, s)`` over a prehashed 32-byte digest."""
    pytest.importorskip("cryptography")
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import ec, utils

    key = ec.EllipticCurvePublicNumbers(public.x, public.y, ec.SECP256K1()).public_key()
    try:
        key.verify(
            utils.encode_dss_signature(r, s),
            digest,
            ec.ECDSA(utils.Prehashed(hashes.SHA256())),
        )
    except InvalidSignature:
        return False
    return True


class TestAgainstOpenSSL:
    """An oracle that shares no code with this repository (a test-only
    dependency: ``cryptography``; skipped where it is not installed)."""

    def test_valid_and_bit_flipped_signatures_are_judged_alike(self):
        accepted = 0
        for index in range(200):
            d = int.from_bytes(sha256(b"openssl-key-%d" % (index % 20)), "big") % (N - 1) + 1
            public = ecdsa.derive_public_point(d)
            digest = sha256(b"openssl-message-%d" % index)
            signature = ecdsa.sign_digest(d, digest)
            r, s = signature.r, signature.s
            flip = 1 << (index * 37 % 256)
            if index % 4 == 1:
                r ^= flip
            elif index % 4 == 2:
                s ^= flip
            elif index % 4 == 3:
                digest = (int.from_bytes(digest, "big") ^ flip).to_bytes(32, "big")
            verdict = ecdsa.verify_digest(public, digest, ecdsa.EcdsaSignature(r, s))
            assert verdict == openssl_verdict(public, digest, r, s), index
            assert verdict == (index % 4 == 0), index
            accepted += verdict
        assert accepted == 50

    def test_one_key_cold_then_warm(self):
        # One signer, 52 digests: each signature is judged on a cold
        # table and again on the warm one, and both verdicts are OpenSSL's.
        d = int.from_bytes(sha256(b"openssl-warm-key"), "big") % (N - 1) + 1
        other = d ^ 0xFFFF
        public = ecdsa.derive_public_point(d)
        for index in range(52):
            digest = sha256(b"openssl-warm-message-%d" % index)
            case = index % 4
            signature = ecdsa.sign_digest(other if case == 3 else d, digest)
            r, s = signature.r, signature.s
            flip = 1 << (index * 41 % 256)
            if case == 1:
                r ^= flip
            elif case == 2:
                s ^= flip
            oracle = openssl_verdict(public, digest, r, s)
            assert oracle == (case == 0), index
            forget(public)
            for _ in ("cold", "warm"):
                verdict = ecdsa.verify_digest(public, digest, ecdsa.EcdsaSignature(r, s))
                assert verdict == oracle, index


class TestKnownAnswerSignatures:
    """``(d, digest) -> (r, s)`` captured from the pre-kernel ladder (PR 11)."""

    VECTORS = [
        (
            1,
            b"satoshi",
            0xC9C915566D59F8A2C10DC31953EBA4A9F3DD5F88BDDBF297CF846C33F7B33933,
            0x27F327A00AD433DDFF08326411BD9FD365B1511E3936AA7E650FEFA781104F2C,
        ),
        (
            7,
            b"message",
            0x53E58975147B0C89C45070B0FCAD33D1835DFBABFC48C693B86674C563F507FF,
            0x0F730E5032289B85BC20E9A15E3917D511F6A977FD975235FE94EC612CFD7896,
        ),
        (
            N - 1,
            b"ac2t",
            0x6345B84C8ED94956C04BF0F9CE6CBACC45ADA32F6251A930161C967DE3EA775A,
            0x495397BD9B5608273FF6215E2BE709C787604253FDCB74B39B95066DAD2CB259,
        ),
        (
            0xC0FFEE,
            b"atomic commitment across blockchains",
            0xB1B7AC9B7CAA7AF3FDF3D24D0B41A3DA163CB119708587CB549F4DA343820FA5,
            0x10258046EFC7D749FEB97D50F10A8D9FC309B48B701F66B0FD127E4DBDAC0D77,
        ),
        (
            2**255,
            b"",
            0x688DD0667360F8854B3CABFE4B0F67B95389F79D475DD19A64F0067867A10188,
            0x1D9ABDCFA636EFF340279447C28B44D4CC4A94239E2D1EB67A7BC60F314FB97F,
        ),
    ]

    @pytest.mark.parametrize("d, message, r, s", VECTORS)
    def test_signature_is_pinned(self, d, message, r, s):
        digest = sha256(message)
        assert ecdsa.sign_digest(d, digest) == ecdsa.EcdsaSignature(r, s)
        assert ecdsa.verify_digest(ecdsa.derive_public_point(d), digest, ecdsa.EcdsaSignature(r, s))


class TestSignatureEncoding:
    def test_fixed_width(self):
        assert len(ecdsa.sign_digest(5, sha256(b"x")).to_bytes()) == 64

    def test_bytes_are_r_then_s_big_endian(self):
        sig = ecdsa.EcdsaSignature(1, 2**255 + 3)
        data = sig.to_bytes()
        assert data[:32] == b"\x00" * 31 + b"\x01"
        assert int.from_bytes(data[32:], "big") == 2**255 + 3

    def test_wire_form_is_the_fixed_width_bytes(self):
        sig = ecdsa.sign_digest(5, sha256(b"x"))
        assert sig.to_wire() == {"sig": sig.to_bytes()}


class TestDeterministicNonce:
    def test_nonce_in_range(self):
        k = ecdsa.deterministic_nonce(7, sha256(b"m"))
        assert 1 <= k < ecdsa.N

    def test_nonce_depends_on_key(self):
        digest = sha256(b"m")
        assert ecdsa.deterministic_nonce(7, digest) != ecdsa.deterministic_nonce(8, digest)

    def test_nonce_depends_on_digest(self):
        assert ecdsa.deterministic_nonce(7, sha256(b"a")) != ecdsa.deterministic_nonce(
            7, sha256(b"b")
        )
