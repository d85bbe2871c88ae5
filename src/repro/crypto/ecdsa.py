"""Pure-Python ECDSA over secp256k1.

The paper uses digital signatures in three places: end-user transactions
(Section 2.3), Trent's witness signatures that act as commitment-scheme
secrets (Section 4.1), and the participants' multisignature ``ms(D)`` over
the AC2T graph (Section 4).  This module implements the curve arithmetic
and the sign/verify algorithms from first principles — no external crypto
dependency — with deterministic RFC-6979-style nonces so that every run
of the simulator is reproducible.

Every multiplication runs on one Jacobian-coordinate kernel, specialised
to this curve.  ``k·G`` is read out of a lazily built table of signed
6-bit windows of ``G`` (~42 mixed additions, no doublings).  ``k·Q`` for
any other point splits ``k = k1 + k2·λ`` along the curve's endomorphism
``λ·(x, y) = (β·x, y)`` (Gallant–Lambert–Vanstone) and runs the two
128-bit halves as interleaved width-5 wNAF streams over one chain of
~128 doublings.  A verification accumulates ``u2·Q + u1·G`` in one
Jacobian point and accepts by comparing ``r·Z²`` with ``X``, so it
inverts nothing but ``s`` and the odd-multiples table of ``Q``.  No cost
is quoted here because it is a property of the host; the ledger measures
it as ``crypto.sign_per_s``, ``crypto.verify_first_sight_per_s`` and
``crypto.keygen_per_s`` (``python3 benchmarks/ledger/run.py --only
micro``).
"""

from __future__ import annotations

import hashlib
import hmac
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


# Signed fixed-window table for the generator, built by the first
# multiplication by G (never at import): row i holds j · 64^i · G for
# j = 1..32 in affine coordinates (a negative digit flips y) — 43 rows,
# ~0.4 MB, published by one assignment.  The width is chosen by count:
# 6 bits cost ~42 additions per k·G over 1376 points, 5 bits ~50 over
# 832, 7 bits ~37 over 2368 — and a process performs a few hundred k·G.
_G_WINDOW = 6
_G_HALF = 1 << (_G_WINDOW - 1)
_G_ROWS = -(-258 // _G_WINDOW)  # 256 bits of scalar and room for the bias
# Adding half a window to every row turns the unsigned windows of
# ``k + bias`` into the signed digits ``window - 32`` in [-32, 31] of
# ``k``, with no carry to propagate.
_G_BIAS = sum(_G_HALF << (_G_WINDOW * row) for row in range(_G_ROWS))
_G_TABLE: tuple[list[tuple[int, int]], ...] = ()


def _generator_table() -> tuple[list[tuple[int, int]], ...]:
    global _G_TABLE
    if not _G_TABLE:
        bases = [(GX, GY, 1)]
        for _ in range(_G_ROWS - 1):
            bases.append(_jacobian_double(*bases[-1], _G_WINDOW))
        multiples = []
        for bx, by in _batch_to_affine(bases):
            multiples.append((bx, by, 1))
            for _ in range(_G_HALF - 1):
                multiples.append(_jacobian_add_affine(*multiples[-1], bx, by))
        flat = _batch_to_affine(multiples)
        _G_TABLE = tuple(
            flat[i : i + _G_HALF] for i in range(0, len(flat), _G_HALF)
        )
    return _G_TABLE


def _add_generator_multiple(
    k: int, jx: int, jy: int, jz: int
) -> tuple[int, int, int]:
    """Add ``k·G`` (``0 <= k < 2**256``) to a Jacobian accumulator.

    One table lookup and at most one mixed addition per signed 6-bit
    window of ``k``; no doublings.
    """
    k += _G_BIAS
    for row in _generator_table():
        digit = k % (2 * _G_HALF) - _G_HALF
        k >>= _G_WINDOW
        if digit > 0:
            jx, jy, jz = _jacobian_add_affine(jx, jy, jz, *row[digit - 1])
        elif digit:
            ax, ay = row[-digit - 1]
            jx, jy, jz = _jacobian_add_affine(jx, jy, jz, ax, P - ay)
    return jx, jy, jz


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


def _odd_multiples(point: Point) -> tuple[list[tuple[int, int]], ...]:
    """Affine ``Q, 3Q, ..., 15Q`` and their images under λ, for on-curve ``Q``.

    ``2Q`` is computed in Jacobian form and the curve is carried by the
    isomorphism ``(x, y) -> (x·Z², y·Z³)`` onto the one where that ``2Q``
    is affine, so the seven additions are mixed ones and the whole table
    costs a single inversion; a point ``(X, Y, Z')`` over there is
    ``(X, Y, Z'·Z)`` back here.
    """
    dx, dy, dz = _jacobian_double(point.x, point.y, 1)
    dzsq = dz * dz % P
    odd = [(point.x * dzsq % P, point.y * dzsq * dz % P, 1)]
    for _ in range(7):
        odd.append(_jacobian_add_affine(*odd[-1], dx, dy))
    table = _batch_to_affine([(x, y, z * dz % P) for x, y, z in odd])
    return table, [(BETA * x % P, y) for x, y in table]


def _wnaf_addends(k: int, table) -> list[tuple[int, int, int]]:
    """``(bit position, x, y)`` per non-zero width-5 wNAF digit of ``k``.

    Digits are odd, in ``[-15, 15]`` and at least five positions apart;
    the point is ``|digit|`` from the odd-multiples ``table``, negated
    (``y`` flipped) when the signs of the digit and of ``k`` differ.
    """
    negative = k < 0
    k = abs(k)
    addends = []
    position = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        position += zeros
        digit = k & 31
        if digit > 16:
            digit -= 32
        k -= digit
        x, y = table[abs(digit) >> 1]
        addends.append((position, x, P - y if (digit < 0) != negative else y))
    return addends


def _glv_mult(k: int, multiples) -> tuple[int, int, int]:
    """Jacobian ``k·Q`` for ``0 <= k < N`` from ``_odd_multiples(Q)``.

    ``k = k1 + k2·λ`` with 128-bit halves, so ``k1·Q + k2·(λQ)`` shares
    one chain of ~128 doublings between two wNAF streams of ~21 mixed
    additions each.
    """
    k1, k2 = _glv_split(k)
    addends = _wnaf_addends(k1, multiples[0]) + _wnaf_addends(k2, multiples[1])
    addends.sort(reverse=True)
    jx, jy, jz = 0, 1, 0  # Jacobian infinity
    below = [position for position, _, _ in addends[1:]] + [0]
    for (position, ax, ay), lower in zip(addends, below):
        jx, jy, jz = _jacobian_add_affine(jx, jy, jz, ax, ay)
        jx, jy, jz = _jacobian_double(jx, jy, jz, position - lower)
    return jx, jy, jz


def _jacobian_to_point(jx: int, jy: int, jz: int) -> Point:
    """Convert a Jacobian point to an affine :class:`Point` (one inversion)."""
    if jz == 0:
        return INFINITY
    return Point(*_batch_to_affine([(jx, jy, jz)])[0])


def scalar_mult(k: int, point: Point) -> Point:
    """Compute ``k * point`` for a point on the curve.

    ``k`` is reduced modulo the group order (so negative scalars negate).
    Multiples of ``G`` — key derivation and signing — come from the
    signed fixed-window table: at most 43 mixed additions and no
    doublings.  Any other point takes the endomorphism-split wNAF path.
    Both stay in Jacobian coordinates and pay one modular inversion for
    the final conversion; the ledger's ``crypto.keygen_per_s`` and
    ``crypto.sign_per_s`` track the first path,
    ``crypto.verify_first_sight_per_s`` the second.
    """
    k %= N
    if k == 0 or point.is_infinity:
        return INFINITY
    if point == G:
        return _jacobian_to_point(*_add_generator_multiple(k, 0, 1, 0))
    return _jacobian_to_point(*_glv_mult(k, _odd_multiples(point)))


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

    @classmethod
    def from_bytes(cls, data: bytes) -> "EcdsaSignature":
        if len(data) != 64:
            raise InvalidSignatureError("signature must be 64 bytes")
        return cls(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))


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
    # u2·Q first (u2 != 0), then u1·G from the table into the same
    # Jacobian accumulator, which is never converted to affine.
    accumulator = _glv_mult(u2, _odd_multiples(public_point))
    jx, _, jz = _add_generator_multiple(u1, *accumulator)
    if jz == 0:
        return False
    # x = X/Z² must reduce to r modulo N; x < P < 2N leaves two
    # candidates, r and (when it is still a field element) r + N.
    zsq = jz * jz % P
    return (r * zsq - jx) % P == 0 or (r + N < P and ((r + N) * zsq - jx) % P == 0)
