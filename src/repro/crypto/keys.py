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
import struct
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
    _reset_verifier_report()


# ---------------------------------------------------------------------------
# The helper process
# ---------------------------------------------------------------------------
#
# Inside a :func:`verifying` scope one forked process, pinned off this
# process's CPU, takes two kinds of record from one pipe and answers one
# byte per record, in order.  A world opens the scope before it derives
# its first key, so the helper lives from world open to world close.
#
# *Verify records.*  A signature is made well before anyone checks it,
# so ``KeyPair.sign`` also writes (point, digest, signature) to the
# helper, which runs the same ``verify_digest`` and answers the verdict.
# A record nobody has started goes to whichever side needs it first: a
# shared map holds one claim byte per in-flight slot (0 queued, 1 the
# helper has it, 2 the caller took it).  A memo miss in
# ``PublicKey.verify`` takes the verdicts that have arrived; if its own
# record is still queued it claims it and verifies inline, and the helper
# answers that record with a skip byte, which is discarded; it waits only
# for a record the helper has started (at most one check).
#
# *Derive records.*  ``KeyPair.from_seeds`` writes up to ``_DERIVE_MAX``
# private scalars into the map, one claim byte each, and one record
# naming their count; this process derives ``d·G`` from the front and
# the helper from the back, each claiming a seed before deriving it, and
# this process reads the helper's points from the map once its answer
# byte arrives.  The parent does not recheck a point: a wrong one is a
# key no signature of ``d`` verifies under, so its first signature is
# refused.
#
# Both sides reading 0 at once costs one duplicate check or derivation,
# never a wrong result: the caller keeps its own.  The memo and its
# counters see what they would without the process, so no artifact can
# tell.  At most ``_IN_FLIGHT_MAX`` records are outstanding (40 KB, under
# a pipe's 64 KB) and the request pipe is non-blocking, so no write ever
# blocks.  Leaving the last open scope kills and reaps the process; one
# that dies sooner leaves one stderr line and inline work, and the next
# scope entered forks a new one.  :func:`verifier_report` counts the
# work each side did.

_RECORD = 160  # x, y, digest, r, s: 32 bytes each, written in one piece
_IN_FLIGHT_MAX = 256  # also the number of claim slots: record n uses n % 256
_QUEUED, _STARTED, _TAKEN = 0, 1, 2  # claim bytes; _TAKEN is also the skip byte
_DONE = 3  # a derive claim only: its point is in the map
_WAIT_S = 30.0
#: A derive record's first field: no point has an x this large.
_DERIVE_MARK = b"\xff" * 32
_DERIVE_MAX = 1024  # seeds per derive record
#: The shared map: the verify claims, then the helper's counters (as
#: :data:`_HELPER_COUNTERS` names them), then per derive seed a claim,
#: a scalar and a point.
_HELPER_COUNTERS = ("seeds_derived", "records_verified", "records_skipped", "key_tables")
_COUNTERS_AT = _IN_FLIGHT_MAX
_COUNTERS_FORMAT = f"<{len(_HELPER_COUNTERS)}Q"
_DERIVE_CLAIMS_AT = _COUNTERS_AT + 8 * len(_HELPER_COUNTERS)
_SCALARS_AT = _DERIVE_CLAIMS_AT + _DERIVE_MAX
_POINTS_AT = _SCALARS_AT + 32 * _DERIVE_MAX
_MAP_SIZE = _POINTS_AT + 64 * _DERIVE_MAX
#: Verdicts that arrived before anyone asked for them (bounded, oldest out).
_READY: "OrderedDict[tuple, bool]" = OrderedDict()
_READY_MAX = 8192
_verifier_wanted: bool | None = None  # None: on iff two CPUs are usable
_verifier: "_Verifier | None" = None
_verifier_lost = False  # a wanted helper died inside the open scopes
_scope_depth = 0
#: What :func:`verifier_report` adds up (reset by :func:`clear_verify_cache`).
_parent_work = {"seeds_derived": 0, "records_verified": 0}
_parent_tables_base = 0
_helper_work = dict.fromkeys(_HELPER_COUNTERS + ("cpu_s",), 0)
_helper_base = (0,) * len(_HELPER_COUNTERS)  # the live helper's counts at the reset


def set_verifier(enabled: bool | None) -> None:
    """Force the verifier process on or off for scopes entered later;
    ``None`` restores the default (on iff at least two CPUs are usable).
    Sweep pool workers turn it off: the pool already uses the cores."""
    global _verifier_wanted
    _verifier_wanted = enabled


def verifier_report() -> dict:
    """The work each side did since the last :func:`clear_verify_cache`:
    seeds derived, records verified (and, by the helper, skipped), key
    tables built, and the helper's CPU seconds, taken when it is reaped.
    A diagnostic: no artifact holds it."""
    helper = dict(_helper_work)
    if _verifier is not None:
        for name, now, base in zip(_HELPER_COUNTERS, _verifier.counters(), _helper_base):
            helper[name] += now - base
    return {
        "parent": {**_parent_work, "key_tables": ecdsa.key_tables_built - _parent_tables_base},
        "helper": helper,
    }


def _reset_verifier_report() -> None:
    global _parent_tables_base, _helper_base
    _parent_work.update(dict.fromkeys(_parent_work, 0))
    _helper_work.update(dict.fromkeys(_helper_work, 0))
    _parent_tables_base = ecdsa.key_tables_built
    _helper_base = _verifier.counters() if _verifier is not None else (0,) * len(_HELPER_COUNTERS)


@contextlib.contextmanager
def verifying():
    """The scope inside which the helper shares the caller's work (see
    above); open scopes share one helper, stopped by the last out.  One
    entered after the helper died forks a new one."""
    global _scope_depth
    if _verifier is not None and not _verifier.alive():
        _stop_verifier(reap=True, lost="exited")
    if _verifier is None and (_scope_depth == 0 or _verifier_lost):
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
        #: written, each with its slot, or ``None`` once the caller took
        #: it (and for derive records, whose answer is dropped too).
        self.pending: "OrderedDict[tuple, int | None]" = OrderedDict()
        self.deriving: tuple | None = None  # the last derive record's key
        self.poller = select.poll()
        self.poller.register(verdicts, select.POLLIN)

    def alive(self) -> bool:
        """Whether the process has not exited (left unreaped either way)."""
        with contextlib.suppress(ChildProcessError):
            flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
            return os.waitid(os.P_PID, self.pid, flags) is None
        return False

    def counters(self) -> tuple[int, ...]:
        """The helper's own counts, as :data:`_HELPER_COUNTERS` names them."""
        return struct.unpack_from(_COUNTERS_FORMAT, self.claims, _COUNTERS_AT)

    def _write(self, key: tuple, record: bytes, slot: int | None) -> bool:
        """Write one record, pending under ``key`` with ``slot``."""
        try:
            os.write(self.requests, record)  # <= PIPE_BUF: all or nothing
        except BlockingIOError:
            return False  # a full pipe: the work is done inline
        except OSError:
            _stop_verifier(reap=True, lost="exited")
            return False
        self.written += 1
        self.pending[key] = slot
        return True

    def _room(self) -> bool:
        """Whether one more record may be written (collecting if full)."""
        if len(self.pending) >= _IN_FLIGHT_MAX:
            self.collect()
        return _verifier is self and len(self.pending) < _IN_FLIGHT_MAX

    def offer(self, key: tuple) -> None:
        """Write ``key`` (x, y, digest, r, s) unless it is answered or
        pending already, or the in-flight bound is reached."""
        if key in _VERIFY_CACHE or key in _READY or key in self.pending:
            return
        if not self._room():
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
        self._write(key, record, slot)

    def derive(self, scalars: list[int]) -> "list[KeyPair] | None":
        """The key pair of each of at most ``_DERIVE_MAX`` scalars, this
        process deriving from the front and the helper from the back;
        ``None`` when no derive record can be written now (the helper has
        not answered the last one, or the pipe is full)."""
        if self.deriving in self.pending:
            self.collect()
        if _verifier is not self or self.deriving in self.pending or not self._room():
            return None
        count, area = len(scalars), self.claims
        # The last derive record is answered, so the helper reads none of this.
        area[_SCALARS_AT : _SCALARS_AT + 32 * count] = b"".join(
            scalar.to_bytes(32, "big") for scalar in scalars
        )
        area[_DERIVE_CLAIMS_AT : _DERIVE_CLAIMS_AT + count] = bytes(count)
        key = ("derive", self.written)
        record = _DERIVE_MARK + count.to_bytes(4, "big") + bytes(_RECORD - 36)
        if not self._write(key, record, None):
            return None
        self.deriving = key
        mine = _derive_claimed(area, range(count))  # the helper has every one after
        _parent_work["seeds_derived"] += mine
        pairs = [KeyPair(scalars[index], _derived_key(area, index)) for index in range(mine)]
        while mine < count and key in self.pending:
            if not self.poller.poll(_WAIT_S * 1000):
                _stop_verifier(reap=True, lost=f"gave no answer in {_WAIT_S:g} s")
            else:
                self.collect()
            if _verifier is not self:  # lost: its share is derived here
                return pairs + [KeyPair.from_scalar(scalar) for scalar in scalars[mine:]]
        return pairs + [
            KeyPair(scalars[index], _derived_key(area, index)) for index in range(mine, count)
        ]

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
    """Fork the helper; its loop is the ``pid == 0`` branch below."""
    global _verifier, _verifier_lost
    try:
        with open("/proc/self/stat", "rb") as stat:
            cpu = int(stat.read().rpartition(b")")[2].split()[36])  # field 39
    except (OSError, ValueError, IndexError):
        cpu = None
    ecdsa._generator_table()  # built once, here, and shared with the helper
    fds: list[int] = []
    claims = mmap.mmap(-1, _MAP_SIZE)  # anonymous and shared: both sides see it
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
        # The helper.  It holds no copy of the parent's ends, so EOF
        # reaches it when the parent closes them, exits or is killed.
        # Left to itself the kernel can keep both processes on one CPU.
        try:
            os.close(requests_w)
            os.close(verdicts_r)
            sys.setprofile(None)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            if cpu is not None and (others := os.sched_getaffinity(0) - {cpu}):
                os.sched_setaffinity(0, others)
            derived = verified = skipped = 0
            tables = ecdsa.key_tables_built
            # Each record was written whole, so each read returns one.
            read = 0
            while len(record := os.read(requests_r, _RECORD)) == _RECORD:
                slot, read = read % _IN_FLIGHT_MAX, read + 1
                if record[:32] == _DERIVE_MARK:
                    count = int.from_bytes(record[32:36], "big")
                    derived += _derive_claimed(claims, range(count - 1, -1, -1))
                    answer = b"\x02"
                elif claims[slot] == _TAKEN:
                    skipped += 1
                    answer = b"\x02"
                else:
                    claims[slot] = _STARTED
                    x, y, r, s = (
                        int.from_bytes(record[at : at + 32], "big") for at in (0, 32, 96, 128)
                    )
                    valid = ecdsa.verify_digest(
                        ecdsa.Point(x, y), record[64:96], ecdsa.EcdsaSignature(r, s)
                    )
                    verified += 1
                    answer = b"\x01" if valid else b"\x00"
                # The counts land before the answer: one read after it sees them.
                struct.pack_into(
                    _COUNTERS_FORMAT, claims, _COUNTERS_AT,
                    derived, verified, skipped, ecdsa.key_tables_built - tables,
                )
                os.write(verdicts_w, answer)
        finally:
            os._exit(0)
    os.close(requests_r)
    os.close(verdicts_w)
    os.set_blocking(requests_w, False)
    os.set_blocking(verdicts_r, False)
    _verifier = _Verifier(pid, requests_w, verdicts_r, claims)
    _verifier_lost = False


def _derive_claimed(area: mmap.mmap, indices: range) -> int:
    """Derive the seeds of the last derive record at ``indices``, in
    order, up to the first one the other side has claimed, leaving each
    point in the map; returns how many.  Both sides run it, from
    opposite ends."""
    derived = 0
    for index in indices:
        claim = _DERIVE_CLAIMS_AT + index
        if area[claim] != _QUEUED:
            break
        area[claim] = _STARTED
        at = _SCALARS_AT + 32 * index
        point = ecdsa.derive_public_point(int.from_bytes(area[at : at + 32], "big"))
        at = _POINTS_AT + 64 * index
        area[at : at + 64] = point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")
        area[claim] = _DONE
        derived += 1
    return derived


def _derived_key(area: mmap.mmap, index: int) -> "PublicKey":
    """The public key :func:`_derive_claimed` left at ``index``."""
    at = _POINTS_AT + 64 * index
    x = int.from_bytes(area[at : at + 32], "big")
    return PublicKey(ecdsa.Point(x, int.from_bytes(area[at + 32 : at + 64], "big")))


def _stop_verifier(reap: bool, lost: str | None = None) -> None:
    """Drop the helper state, its pending keys with it; with ``reap`` (in
    the process that forked it) also add its counts to the report, then
    kill and reap the process.  A helper ``lost`` mid-scope is named on
    stderr, and the next scope entered forks a new one."""
    global _verifier, _verifier_lost, _helper_base
    verifier, _verifier = _verifier, None
    if verifier is None:
        return
    if lost is not None:
        _verifier_lost = True
        print(
            f"repro: signature verifier (pid {verifier.pid}) {lost}; verifying inline",
            file=sys.stderr,
        )
    if reap:
        for name, now, base in zip(_HELPER_COUNTERS, verifier.counters(), _helper_base):
            _helper_work[name] += now - base
    _helper_base = (0,) * len(_HELPER_COUNTERS)
    os.close(verifier.requests)
    os.close(verifier.verdicts)
    verifier.claims.close()
    if reap:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(verifier.pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            usage = os.wait4(verifier.pid, 0)[2]
            _helper_work["cpu_s"] += usage.ru_utime + usage.ru_stime


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


def _seed_scalar(seed: bytes) -> int:
    """The private scalar of ``seed``: the first in-range hash of it and a counter."""
    counter = 0
    while True:
        scalar = int.from_bytes(sha256(seed + counter.to_bytes(4, "big")), "big")
        if 1 <= scalar < ecdsa.N:
            return scalar
        counter += 1


def _remember(seed: bytes, pair: "KeyPair") -> None:
    _SEED_CACHE[seed] = pair
    while len(_SEED_CACHE) > _SEED_CACHE_MAX:
        _SEED_CACHE.popitem(last=False)


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
            _parent_work["records_verified"] += 1
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

    Use :meth:`from_seed` (or :meth:`from_seeds` for many) for
    deterministic, reproducible identities in simulations, or
    :meth:`from_scalar` with a given private scalar.
    """

    private_scalar: int
    public_key: PublicKey

    @classmethod
    def from_scalar(cls, private_scalar: int) -> "KeyPair":
        """Derive in this process (counted for :func:`verifier_report`)."""
        ecdsa.validate_private_scalar(private_scalar)
        _parent_work["seeds_derived"] += 1
        return cls(private_scalar, PublicKey(ecdsa.derive_public_point(private_scalar)))

    @classmethod
    def from_seed(cls, seed: bytes | str) -> "KeyPair":
        """Derive a key pair deterministically from an arbitrary seed (memoized)."""
        return cls.from_seeds([seed])[0]

    @classmethod
    def from_seeds(cls, seeds: list[bytes | str]) -> list["KeyPair"]:
        """:meth:`from_seed` of each seed, in order.  The seeds the memo
        misses are derived once each, shared with the helper inside a
        :func:`verifying` scope, and returned as made: a batch larger
        than the memo is never derived twice."""
        seeds = [seed.encode("utf-8") if isinstance(seed, str) else seed for seed in seeds]
        found: dict[bytes, KeyPair] = {}
        for seed in seeds:
            pair = _SEED_CACHE.get(seed)
            if pair is not None:
                _SEED_CACHE.move_to_end(seed)
                found[seed] = pair
        missing = [seed for seed in dict.fromkeys(seeds) if seed not in found]
        scalars = [_seed_scalar(seed) for seed in missing]
        made: list[KeyPair] = []
        for start in range(0, len(scalars), _DERIVE_MAX):
            chunk = scalars[start : start + _DERIVE_MAX]
            shared = _verifier.derive(chunk) if _verifier is not None and len(chunk) > 1 else None
            made += shared if shared is not None else map(cls.from_scalar, chunk)
        for seed, pair in zip(missing, made):
            found[seed] = pair
            _remember(seed, pair)
        return [found[seed] for seed in seeds]

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
