"""Proof-of-work: target checks and deterministic mining.

The protocols rely on PoW twice: the longest-(most-work-)chain rule that
resolves forks in the witness network (Section 4.2), and the header-chain
verification of the Section 4.3 relay validator, which must check that
every evidence header "has valid proof of work".  Difficulty is kept tiny
in simulation — the *rule* matters, not the hash rate — but the check is
a real inequality over real double-SHA-256 block ids.
"""

from __future__ import annotations

from ..crypto.hashing import double_sha256
from ..errors import InvalidBlockError
from .block import BlockHeader
from .wire import _encode_into, canonical_encode

MAX_TARGET = 1 << 256

#: A header's canonical encoding cut at its leaves: its fields, a ``None`` (``N``) in each.
_HEADER_WIRE = canonical_encode(dict.fromkeys(BlockHeader.__match_args__)).split(b"N")


def target_for_bits(difficulty_bits: int) -> int:
    """Block ids must be strictly below this target."""
    if not 0 <= difficulty_bits <= 255:
        raise InvalidBlockError(f"difficulty bits {difficulty_bits} out of range")
    return MAX_TARGET >> difficulty_bits


def work_for_bits(difficulty_bits: int) -> int:
    """Expected hashes to find a block at this difficulty (2^bits).

    Cumulative work — the sum of this over a branch — is the fork-choice
    metric ("longest chain" generalized to heaviest chain).
    """
    return 1 << difficulty_bits


def check_pow(header: BlockHeader) -> bool:
    """Return True iff the header's block id meets its difficulty target."""
    block_id = int.from_bytes(header.block_id(), "big")
    return block_id < target_for_bits(header.difficulty_bits)


def _around_nonce(template: BlockHeader) -> tuple[bytes, bytes]:
    """The template's canonical bytes before and after its nonce leaf."""
    wire = template.to_wire()
    out = bytearray()
    for part, key in zip(_HEADER_WIRE, sorted(wire)):
        out += part
        if key == "nonce":
            prefix, out = bytes(out), bytearray()
        else:
            _encode_into(wire[key], out)
    return prefix, bytes(out)


def mine_header(template: BlockHeader, max_iterations: int = 10_000_000) -> BlockHeader:
    """Find a nonce satisfying the template's difficulty.

    Nonces are searched from 0 upward, each spliced into the template's
    bytes, so mining is deterministic and builds one header, the winner's.
    """
    target = target_for_bits(template.difficulty_bits)
    prefix, suffix = _around_nonce(template)
    for nonce in range(max_iterations):
        encoded = bytearray(prefix)
        _encode_into(nonce, encoded)
        encoded += suffix
        block_id = double_sha256(encoded)
        if int.from_bytes(block_id, "big") < target:
            header = template.with_nonce(nonce)
            object.__setattr__(header, "_enc", bytes(encoded))
            object.__setattr__(header, "_id", block_id)
            return header
    raise InvalidBlockError(
        f"no nonce below target within {max_iterations} iterations "
        f"(difficulty_bits={template.difficulty_bits})"
    )
