"""Key-pair and address abstractions on top of the raw curve arithmetic.

End-users in the paper's application layer are identified by their public
keys, and their digital signatures are "the end-users' way to generate
transactions" (Section 2.1).  :class:`KeyPair` bundles the private scalar
with its public point; :class:`Address` is the short identity derived by
hashing the public key, used as the owner field of assets and contracts.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import select
import signal
import sys
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
# trial repeat the exact same ``u2·Q + u1·G`` (one chain of at most 33
# doublings and ~67 mixed additions once the key's table is built, ~136
# doublings and ~95 additions on the verify that builds it; the ledger
# reports the miss as ``crypto.verify_first_sight_per_s`` and the hit as
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


def clear_verify_cache(tables: bool = True) -> None:
    """Empty the memo and reset its counters; with ``tables`` (the
    default) drop the per-key tables too, so a run starts cold (tests,
    benchmarks).  The runner keeps them between runs: a table is a pure
    function of its key, and no count of them enters an artifact."""
    global _verify_cache_hits, _verify_cache_misses
    _VERIFY_CACHE.clear()
    _READY.clear()
    if tables:
        ecdsa._KEY_TABLES.clear()
    _verify_cache_hits = 0
    _verify_cache_misses = 0


# ---------------------------------------------------------------------------
# The verifier process
# ---------------------------------------------------------------------------
#
# A signature is made well before anyone checks it, so inside a
# :func:`verifying` scope ``KeyPair.sign`` also writes (point, digest,
# signature) to one forked process, pinned off this process's CPU, that
# runs the same ``verify_digest`` and answers one verdict byte per
# record, in order.  A record nobody has started goes to whichever side
# needs it first: a shared map holds one claim byte per in-flight slot
# (0 queued, 1 the verifier has it, 2 the caller took it).  A memo miss
# in ``PublicKey.verify`` takes the verdicts that have arrived; if its
# own record is still queued it claims it and verifies inline, and the
# verifier answers that record with a skip byte, which is discarded; it
# waits only for a record the verifier has started (at most one check).
# Both sides reading 0 at once costs one duplicate check, never a wrong
# verdict: the caller keeps its own result for a record it took.  The
# memo and its counters see what they would without the process, so no
# artifact can tell.  At most ``_IN_FLIGHT_MAX`` records are outstanding
# (40 KB, under a pipe's 64 KB) and the request pipe is non-blocking, so
# no write ever blocks.  Leaving the last open scope kills and reaps the
# process; one that dies sooner leaves one stderr line and inline
# verification.

_RECORD = 160  # x, y, digest, r, s: 32 bytes each, written in one piece
_IN_FLIGHT_MAX = 256  # also the number of claim slots: record n uses n % 256
_QUEUED, _STARTED, _TAKEN = 0, 1, 2  # claim bytes; _TAKEN is also the skip byte
_WAIT_S = 30.0
#: Verdicts that arrived before anyone asked for them (bounded, oldest out).
_READY: "OrderedDict[tuple, bool]" = OrderedDict()
_READY_MAX = 8192
_verifier_wanted: bool | None = None  # None: on iff two CPUs are usable
_verifier: "_Verifier | None" = None
_scope_depth = 0


def set_verifier(enabled: bool | None) -> None:
    """Force the verifier process on or off for scopes entered later;
    ``None`` restores the default (on iff at least two CPUs are usable).
    Sweep pool workers turn it off: the pool already uses the cores."""
    global _verifier_wanted
    _verifier_wanted = enabled


@contextlib.contextmanager
def verifying():
    """The scope inside which first-sight verifies run beside the caller
    (see above); open scopes share one verifier, stopped by the last out."""
    global _scope_depth
    if _scope_depth == 0:
        wanted = _verifier_wanted
        if wanted is None:
            wanted = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
        if wanted and hasattr(os, "fork"):
            _start_verifier()
    _scope_depth += 1
    try:
        yield
    finally:
        _scope_depth -= 1
        if _scope_depth == 0 and _verifier is not None:
            _verifier.collect()  # verdicts that have arrived stay usable
            _stop_verifier(reap=True)


class _Verifier:
    """The parent's end of one verifier process."""

    def __init__(self, pid: int, requests: int, verdicts: int, claims: mmap.mmap) -> None:
        self.pid = pid
        self.requests = requests  # write end, non-blocking
        self.verdicts = verdicts  # read end, non-blocking
        self.claims = claims  # one claim byte per slot, shared with the verifier
        self.written = 0  # records written so far: the next one's slot is this mod 256
        #: Keys written and not yet answered, in the order they were
        #: written, each with its slot, or ``None`` once the caller took it.
        self.pending: "OrderedDict[tuple, int | None]" = OrderedDict()
        self.poller = select.poll()
        self.poller.register(verdicts, select.POLLIN)

    def offer(self, key: tuple) -> None:
        """Write ``key`` (x, y, digest, r, s) unless it is answered or
        pending already, or the in-flight bound is reached."""
        if key in _VERIFY_CACHE or key in _READY or key in self.pending:
            return
        if len(self.pending) >= _IN_FLIGHT_MAX:
            self.collect()
            if _verifier is not self or len(self.pending) >= _IN_FLIGHT_MAX:
                return
        x, y, digest, r, s = key
        record = b"".join(
            (x.to_bytes(32, "big"), y.to_bytes(32, "big"), digest,
             r.to_bytes(32, "big"), s.to_bytes(32, "big"))
        )
        # The slot's last record has been answered and its verdict read,
        # so no side looks at this byte until the record below is read.
        slot = self.written % _IN_FLIGHT_MAX
        self.claims[slot] = _QUEUED
        try:
            os.write(self.requests, record)  # <= PIPE_BUF: all or nothing
        except BlockingIOError:
            return  # a full pipe: this one is verified inline
        except OSError:
            _stop_verifier(reap=True, lost="exited")
            return
        self.written += 1
        self.pending[key] = slot

    def collect(self, wait_for: tuple | None = None) -> None:
        """Move every verdict that has arrived into ``_READY``, dropping
        those of taken records.  If ``wait_for`` is still pending, take it
        when the verifier has not started it (the caller then verifies it
        inline), and otherwise wait for its verdict."""
        while True:
            try:
                data = os.read(self.verdicts, _IN_FLIGHT_MAX)
            except BlockingIOError:
                data = None
            if data == b"":
                _stop_verifier(reap=True, lost="exited")
                return
            for verdict in data or b"":
                key, slot = self.pending.popitem(last=False)
                if slot is not None:
                    _READY[key] = verdict == 1
            slot = self.pending.get(wait_for)
            if slot is None:  # answered, or taken already
                break
            if self.claims[slot] == _QUEUED:
                self.claims[slot] = _TAKEN
                self.pending[wait_for] = None
                break
            if not self.poller.poll(_WAIT_S * 1000):
                _stop_verifier(reap=True, lost=f"gave no verdict in {_WAIT_S:g} s")
                return
        while len(_READY) > _READY_MAX:
            _READY.popitem(last=False)


def _start_verifier() -> None:
    """Fork the verifier; its loop is the ``pid == 0`` branch below."""
    global _verifier
    try:
        with open("/proc/self/stat", "rb") as stat:
            cpu = int(stat.read().rpartition(b")")[2].split()[36])  # field 39
    except (OSError, ValueError, IndexError):
        cpu = None
    fds: list[int] = []
    claims = mmap.mmap(-1, _IN_FLIGHT_MAX)  # anonymous and shared: both sides see it
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError as error:  # out of descriptors or processes
        for fd in fds:
            os.close(fd)
        claims.close()
        print(f"repro: no signature verifier ({error}); verifying inline", file=sys.stderr)
        return
    requests_r, requests_w, verdicts_r, verdicts_w = fds
    if pid == 0:
        # The verifier.  It holds no copy of the parent's ends, so EOF
        # reaches it when the parent closes them, exits or is killed.
        # Left to itself the kernel can keep both processes on one CPU.
        try:
            os.close(requests_w)
            os.close(verdicts_r)
            sys.setprofile(None)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            if cpu is not None and (others := os.sched_getaffinity(0) - {cpu}):
                os.sched_setaffinity(0, others)
            # Each record was written whole, so each read returns one.
            read = 0
            while len(record := os.read(requests_r, _RECORD)) == _RECORD:
                slot, read = read % _IN_FLIGHT_MAX, read + 1
                if claims[slot] == _TAKEN:
                    os.write(verdicts_w, b"\x02")
                    continue
                claims[slot] = _STARTED
                x, y, r, s = (
                    int.from_bytes(record[at : at + 32], "big") for at in (0, 32, 96, 128)
                )
                valid = ecdsa.verify_digest(
                    ecdsa.Point(x, y), record[64:96], ecdsa.EcdsaSignature(r, s)
                )
                os.write(verdicts_w, b"\x01" if valid else b"\x00")
        finally:
            os._exit(0)
    os.close(requests_r)
    os.close(verdicts_w)
    os.set_blocking(requests_w, False)
    os.set_blocking(verdicts_r, False)
    _verifier = _Verifier(pid, requests_w, verdicts_r, claims)


def _stop_verifier(reap: bool, lost: str | None = None) -> None:
    """Drop the verifier state, its pending keys with it; with ``reap``
    (in the process that forked it) also kill and reap the process.  A
    verifier ``lost`` mid-scope is named on stderr."""
    global _verifier
    verifier, _verifier = _verifier, None
    if verifier is None:
        return
    if lost is not None:
        print(
            f"repro: signature verifier (pid {verifier.pid}) {lost}; verifying inline",
            file=sys.stderr,
        )
    os.close(verifier.requests)
    os.close(verifier.verdicts)
    verifier.claims.close()
    if reap:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(verifier.pid, signal.SIGKILL)
            os.waitpid(verifier.pid, 0)


if hasattr(os, "register_at_fork"):
    # Any other process forked inside a scope (a pool worker) neither
    # shares nor keeps the verifier open.
    os.register_at_fork(after_in_child=lambda: _stop_verifier(reap=False))


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
        result = _READY.pop(key, None)
        if result is None and _verifier is not None:
            _verifier.collect(wait_for=key)
            result = _READY.pop(key, None)
        if result is None:
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
        """Sign a 32-byte digest with the private scalar; inside a
        :func:`verifying` scope, also hand it to the verifier process."""
        signature = ecdsa.sign_digest(self.private_scalar, digest)
        if _verifier is not None:
            point = self.public_key.point
            _verifier.offer((point.x, point.y, digest, signature.r, signature.s))
        return signature

    def __repr__(self) -> str:
        return f"KeyPair(address={self.address})"
