"""Pure-Python ECDSA over secp256k1.

The paper uses digital signatures in three places: end-user transactions
(Section 2.3), Trent's witness signatures that act as commitment-scheme
secrets (Section 4.1), and the participants' multisignature ``ms(D)`` over
the AC2T graph (Section 4).  This module implements the curve arithmetic
and the sign/verify algorithms from first principles — no external crypto
dependency — with deterministic RFC-6979-style nonces so that every run
of the simulator is reproducible.

Every multiplication runs on one Jacobian-coordinate kernel, specialised
to this curve.  A scalar splits as ``k = k1 + k2·λ`` along the curve's
endomorphism ``λ·(x, y) = (β·x, y)`` (Gallant–Lambert–Vanstone), each
128-bit half is recoded once in wNAF, and a digit is read from one of
four bases ``T, 2³³·T, 2⁶⁶·T, 2⁹⁹·T`` (Lim–Lee fixed-base
precomputation), so every multiplication runs one chain of at most 33
doublings.  ``G``'s table is built once per process; a key's — 32
points, ~100 doublings, 28 mixed additions and two batch inversions —
by its first verify, and kept in a bounded LRU, since a run verifies
each signer three to five times.  A verification accumulates
``u2·Q + u1·G`` on that one chain (≤ 33 doublings and ~67 mixed
additions on a warm key) and accepts by comparing ``r·Z²`` with ``X``,
so it inverts nothing but ``s`` and, for a cold key, its table.  No
time is quoted here because it is a property of the host; the ledger
measures it as ``crypto.sign_per_s``, ``crypto.verify_first_sight_per_s``
and ``crypto.keygen_per_s`` (``python3 benchmarks/ledger/run.py --only
micro``).
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import InvalidKeyError, InvalidSignatureError

# secp256k1 domain parameters (the Bitcoin curve): y^2 = x^3 + 7 over F_p.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


@dataclass(frozen=True)
class Point:
    """A point on secp256k1 in affine coordinates; ``None`` fields = infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point(x={self.x:#x}, y={self.y:#x})"


INFINITY = Point(None, None)
G = Point(GX, GY)


def is_on_curve(point: Point) -> bool:
    """Return True iff ``point`` satisfies the curve equation (or is infinity)."""
    if point.is_infinity:
        return True
    x, y = point.x, point.y
    # One representation per point: (x + P, y) would compare unequal to
    # (x, y), compress differently and split the verification memo.
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - (x * x * x + A * x + B)) % P == 0


def _inverse_mod(k: int, p: int) -> int:
    """Modular inverse via Python's built-in extended-gcd pow."""
    if k % p == 0:
        raise ZeroDivisionError("inverse of zero")
    return pow(k, -1, p)


def point_add(p1: Point, p2: Point) -> Point:
    """Add two curve points (group law, affine formulas)."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    if p1.x == p2.x and (p1.y + p2.y) % P == 0:
        return INFINITY
    if p1.x == p2.x:
        # Point doubling.
        slope = (3 * p1.x * p1.x + A) * _inverse_mod(2 * p1.y, P) % P
    else:
        slope = (p2.y - p1.y) * _inverse_mod(p2.x - p1.x, P) % P
    x3 = (slope * slope - p1.x - p2.x) % P
    y3 = (slope * (p1.x - x3) - p1.y) % P
    return Point(x3, y3)


def point_neg(point: Point) -> Point:
    """Return the additive inverse of a point."""
    if point.is_infinity:
        return INFINITY
    return Point(point.x, (-point.y) % P)


def _jacobian_double(
    x: int, y: int, z: int, times: int = 1
) -> tuple[int, int, int]:
    """Double a Jacobian point (X, Y, Z), x = X/Z², y = Y/Z³, ``times`` times.

    The curve coefficient ``A`` is 0 on secp256k1, so the slope numerator
    is just ``3·X²``.  Infinity (``Z == 0``) stays infinity.
    """
    for _ in range(times):
        if y == 0:
            return 0, 1, 0  # infinity
        ysq = y * y % P
        s = 4 * x * ysq % P
        m = 3 * x * x % P
        z = 2 * y * z % P
        x = (m * m - 2 * s) % P
        y = (m * (s - x) - 8 * ysq * ysq) % P
    return x, y, z


def _jacobian_add_affine(
    x1: int, y1: int, z1: int, x2: int, y2: int
) -> tuple[int, int, int]:
    """Mixed addition: Jacobian (X1, Y1, Z1) plus affine (x2, y2)."""
    if z1 == 0:
        return x2, y2, 1
    z1sq = z1 * z1 % P
    u2 = x2 * z1sq % P
    s2 = y2 * z1sq * z1 % P
    if u2 == x1:
        if (s2 + y1) % P == 0:
            return 0, 1, 0  # infinity
        return _jacobian_double(x1, y1, z1)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    hsq = h * h % P
    hcu = hsq * h % P
    v = x1 * hsq % P
    nx = (r * r - hcu - 2 * v) % P
    ny = (r * (v - nx) - y1 * hcu) % P
    nz = h * z1 % P
    return nx, ny, nz


def _batch_to_affine(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Convert finite Jacobian points to affine with one shared inversion.

    Montgomery's trick: invert the product of all Z, then peel the
    individual inverses off back to front with two multiplications each.
    """
    prefixes = []
    product = 1
    for _, _, z in points:
        prefixes.append(product)
        product = product * z % P
    inverse = _inverse_mod(product, P)
    affine = []
    for (x, y, z), prefix in zip(reversed(points), reversed(prefixes)):
        zinv = inverse * prefix % P
        inverse = inverse * z % P
        zinv_sq = zinv * zinv % P
        affine.append((x * zinv_sq % P, y * zinv_sq * zinv % P))
    affine.reverse()
    return affine


# The GLV endomorphism of secp256k1: λ·(x, y) = (β·x, y) with λ³ ≡ 1
# (mod N) and β³ ≡ 1 (mod P), so λ·Q costs one field multiplication.
# (A1, B1) and (A2, B2) are the standard reduced basis of the lattice
# {(a, b) : a + b·λ ≡ 0 (mod N)}; B1 is negative and B2 == A1.
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_MINUS_B1 = 0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8


def _glv_split(k: int) -> tuple[int, int]:
    """``(k1, k2)`` with ``k1 + k2·λ ≡ k (mod N)`` and ``|k1|, |k2| < 2**128``.

    Babai rounding: subtract from ``(k, 0)`` the lattice vector nearest
    to it; rounding to nearest (not floor) is what keeps both halves
    within half the basis, i.e. within 128 bits.
    """
    c1 = (_A1 * k + N // 2) // N
    c2 = (_MINUS_B1 * k + N // 2) // N
    return k - c1 * _A1 - c2 * _A2, c1 * _MINUS_B1 - c2 * _A1


# A GLV half's wNAF has at most 129 positions, so every multiplication
# runs one chain of at most 33 doublings over four bases T, 2^33·T,
# 2^66·T and 2^99·T: position p is read from base ⌊p/33⌋ at chain
# offset p mod 33.  A table holds the affine odd multiples m·2^(33j)·T
# for m = 1, 3, ..., 2^(w-1) - 1 as entry j·2^(w-2) + m // 2.  G's table
# (width 10, 1024 points) is built by the first multiplication by G,
# never at import; a key's (width 5, 32 points) by its first verify, and
# kept in a bounded LRU: a signer is verified three to five times a run,
# and its table pays for itself by the second.
_SPAN = 33
_G_TABLE: tuple[tuple[int, int], ...] = ()
_KEY_TABLES: "OrderedDict[tuple[int, int], tuple]" = OrderedDict()
_KEY_TABLES_MAX = 512
key_tables_built = 0  # every key-table build so far (a diagnostic count)


def _base_table(point: Point, width: int) -> tuple[tuple[int, int], ...]:
    """The width-``width`` table of on-curve ``point``: 100 doublings,
    ``4·(2^(w-2) - 1)`` mixed additions and two batch inversions."""
    chain = [(point.x, point.y, 1)]
    for _ in range(3):
        chain.append(_jacobian_double(*chain[-1]))
        chain.append(_jacobian_double(*chain[-1], _SPAN - 1))
    chain.append(_jacobian_double(*chain[-1]))
    affine = _batch_to_affine(chain)  # base, 2·base, next base, ...
    multiples = []
    for (bx, by), (dx, dy) in zip(affine[::2], affine[1::2]):
        multiples.append((bx, by, 1))
        for _ in range((1 << (width - 2)) - 1):
            multiples.append(_jacobian_add_affine(*multiples[-1], dx, dy))
    return tuple(_batch_to_affine(multiples))


def _generator_table() -> tuple[tuple[int, int], ...]:
    global _G_TABLE
    if not _G_TABLE:
        _G_TABLE = _base_table(G, 10)
    return _G_TABLE


def _key_table(point: Point) -> tuple[tuple[int, int], ...]:
    """``point``'s width-5 table, built on first use and kept (LRU)."""
    global key_tables_built
    key = (point.x, point.y)
    table = _KEY_TABLES.get(key)
    if table is None:
        key_tables_built += 1
        table = _KEY_TABLES[key] = _base_table(point, 5)
        if len(_KEY_TABLES) > _KEY_TABLES_MAX:
            _KEY_TABLES.popitem(last=False)
    else:
        _KEY_TABLES.move_to_end(key)
    return table


def _wnaf_addends(k: int, table: tuple, addends: list) -> None:
    """Append ``(chain offset, x, y)`` per non-zero wNAF digit of ``k``'s halves.

    ``k = k1 + k2·λ``; each half is recoded once, at the width ``w`` of
    ``table``, into odd digits in ``(-2^(w-1), 2^(w-1))`` at least ``w``
    positions apart.  The point
    is ``|digit|`` from the base of the digit's position, mapped by λ
    (``x`` times β) for ``k2`` and negated (``y`` flipped) when the
    signs of the digit and of the half differ.
    """
    row = len(table) >> 2  # 2^(w-2) odd multiples per base
    window = row << 2
    for half, image in zip(_glv_split(k), (False, True)):
        negative = half < 0
        half = abs(half)
        position = 0
        while half:
            zeros = (half & -half).bit_length() - 1
            half >>= zeros
            position += zeros
            digit = half & (window - 1)
            if digit > window >> 1:
                digit -= window
            half -= digit
            base, offset = divmod(position, _SPAN)
            x, y = table[base * row + (abs(digit) >> 1)]
            if image:
                x = BETA * x % P
            addends.append((offset, x, P - y if (digit < 0) != negative else y))


def _multiply(*terms: tuple[int, tuple]) -> tuple[int, int, int]:
    """Jacobian ``Σ k·T`` over ``(k, table of T)`` terms, ``0 <= k < N``.

    Every stream's addends share one chain: sorted by offset, added, and
    doubled down to the next offset, at most 32 doublings in all.
    """
    addends: list[tuple[int, int, int]] = []
    for k, table in terms:
        _wnaf_addends(k, table, addends)
    addends.sort(reverse=True)
    jx, jy, jz = 0, 1, 0  # Jacobian infinity
    below = [offset for offset, _, _ in addends[1:]] + [0]
    for (offset, ax, ay), lower in zip(addends, below):
        jx, jy, jz = _jacobian_add_affine(jx, jy, jz, ax, ay)
        if offset != lower:
            jx, jy, jz = _jacobian_double(jx, jy, jz, offset - lower)
    return jx, jy, jz


def _jacobian_to_point(jx: int, jy: int, jz: int) -> Point:
    """Convert a Jacobian point to an affine :class:`Point` (one inversion)."""
    if jz == 0:
        return INFINITY
    return Point(*_batch_to_affine([(jx, jy, jz)])[0])


def scalar_mult(k: int, point: Point) -> Point:
    """Compute ``k * point`` for a point on the curve.

    ``k`` is reduced modulo the group order (so negative scalars negate).
    Multiples of ``G`` — key derivation and signing — read G's width-10
    table; any other point its width-5 table from the key LRU.  Both run
    the same chain of at most 33 doublings and pay one modular inversion
    for the final conversion; the ledger's ``crypto.keygen_per_s`` and
    ``crypto.sign_per_s`` track the first.
    """
    k %= N
    if k == 0 or point.is_infinity:
        return INFINITY
    if point == G:
        return _jacobian_to_point(*_multiply((k, _generator_table())))
    return _jacobian_to_point(*_multiply((k, _key_table(point))))


# ---------------------------------------------------------------------------
# Key handling
# ---------------------------------------------------------------------------


def validate_private_scalar(d: int) -> None:
    """Raise :class:`InvalidKeyError` unless ``d`` is a valid private scalar."""
    if not isinstance(d, int) or not 1 <= d < N:
        raise InvalidKeyError("private scalar must satisfy 1 <= d < n")


def derive_public_point(d: int) -> Point:
    """Return the public point ``d * G`` for private scalar ``d``."""
    validate_private_scalar(d)
    return scalar_mult(d, G)


def compress_point(point: Point) -> bytes:
    """SEC1 compressed encoding (33 bytes) of a non-infinity point."""
    if point.is_infinity:
        raise InvalidKeyError("cannot encode the point at infinity")
    prefix = b"\x02" if point.y % 2 == 0 else b"\x03"
    return prefix + point.x.to_bytes(32, "big")


def decompress_point(data: bytes) -> Point:
    """Decode a SEC1 compressed point, validating curve membership."""
    if len(data) != 33 or data[0] not in (2, 3):
        raise InvalidKeyError("malformed compressed point")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise InvalidKeyError("x coordinate out of field range")
    y_squared = (pow(x, 3, P) + A * x + B) % P
    y = pow(y_squared, (P + 1) // 4, P)  # works because P % 4 == 3
    if (y * y) % P != y_squared:
        raise InvalidKeyError("point is not on the curve")
    if (y % 2 == 0) != (data[0] == 2):
        y = P - y
    point = Point(x, y)
    if not is_on_curve(point):
        raise InvalidKeyError("decoded point is not on the curve")
    return point


# ---------------------------------------------------------------------------
# Deterministic nonce (RFC 6979, SHA-256)
# ---------------------------------------------------------------------------


def _bits2int(data: bytes) -> int:
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - N.bit_length()
    if excess > 0:
        value >>= excess
    return value


def deterministic_nonce(private_scalar: int, digest: bytes) -> int:
    """Derive the RFC-6979 deterministic nonce ``k`` for signing ``digest``."""
    holen = 32
    x = private_scalar.to_bytes(32, "big")
    h1 = _bits2int(digest) % N
    h1_bytes = h1.to_bytes(32, "big")
    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + x + h1_bytes, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + h1_bytes, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = _bits2int(v)
        if 1 <= candidate < N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


# ---------------------------------------------------------------------------
# Sign / verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EcdsaSignature:
    """An ECDSA signature ``(r, s)`` with low-s normalization applied."""

    r: int
    s: int

    def to_bytes(self) -> bytes:
        """Fixed-width 64-byte encoding (r || s)."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    def to_wire(self):
        return {"sig": self.to_bytes()}


def sign_digest(private_scalar: int, digest: bytes) -> EcdsaSignature:
    """Sign a 32-byte digest, returning a canonical low-s signature."""
    validate_private_scalar(private_scalar)
    if len(digest) != 32:
        raise InvalidSignatureError("digest must be 32 bytes")
    z = _bits2int(digest) % N
    k = deterministic_nonce(private_scalar, digest)
    while True:
        point = scalar_mult(k, G)
        r = point.x % N
        if r == 0:
            k = (k + 1) % N or 1
            continue
        s = _inverse_mod(k, N) * (z + r * private_scalar) % N
        if s == 0:
            k = (k + 1) % N or 1
            continue
        if s > N // 2:
            s = N - s
        return EcdsaSignature(r, s)


def verify_digest(public_point: Point, digest: bytes, signature: EcdsaSignature) -> bool:
    """Return True iff ``signature`` is valid for ``digest`` under the key."""
    if public_point.is_infinity or not is_on_curve(public_point):
        return False
    if len(digest) != 32:
        return False
    r, s = signature.r, signature.s
    if not (1 <= r < N and 1 <= s < N):
        return False
    z = _bits2int(digest) % N
    w = _inverse_mod(s, N)
    u1 = z * w % N
    u2 = r * w % N
    # One chain for u2·Q and u1·G; the sum is never converted to affine.
    jx, _, jz = _multiply((u2, _key_table(public_point)), (u1, _generator_table()))
    if jz == 0:
        return False
    # x = X/Z² must reduce to r modulo N; x < P < 2N leaves two
    # candidates, r and (when it is still a field element) r + N.
    zsq = jz * jz % P
    return (r * zsq - jx) % P == 0 or (r + N < P and ((r + N) * zsq - jx) % P == 0)
