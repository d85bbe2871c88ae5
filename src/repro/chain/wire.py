"""Canonical wire encoding for consensus-critical hashing.

Blocks commit to their messages through a Merkle tree over *message ids*,
and a message id is the SHA-256 of the message's canonical encoding.  Two
structurally equal messages must therefore encode to identical bytes on
every node.  This module defines that encoding: a deterministic
tag-length-value scheme over a small universe of types.

Supported values: ``None``, ``bool``, ``int``, ``str``, ``bytes``,
``tuple``/``list`` (encoded identically), ``dict`` with string keys
(encoded in sorted key order), and any object exposing ``to_wire()``
returning a supported value.  Floats are intentionally rejected: they
have no place in consensus data.

The encoder is one pass over one table: ``_ENCODERS`` maps the exact
``type(value)`` to its encoder, and only subclasses, ``to_wire()``
objects and rejects walk the ``isinstance`` ladder of
:func:`_encode_other`.  An object that also exposes ``wire_bytes()`` —
the canonical encoding of its own ``to_wire()``, which immutable objects
cache — is spliced in verbatim instead of being walked again, so a
header embedded in evidence costs what its block id already paid.
"""

from __future__ import annotations

import hashlib
from typing import Any

_TAG_NONE = b"N"
_TAG_FALSE = b"F"
_TAG_TRUE = b"T"
_TAG_INT = b"I"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"D"


def _encode_none(value: None, out: bytearray) -> None:
    out += _TAG_NONE


def _encode_bool(value: bool, out: bytearray) -> None:
    out += _TAG_TRUE if value else _TAG_FALSE


def _encode_int(value: int, out: bytearray) -> None:
    body = str(value).encode("ascii")
    out += _TAG_INT + len(body).to_bytes(4, "big") + body


def _encode_str(value: str, out: bytearray) -> None:
    body = value.encode("utf-8")
    out += _TAG_STR + len(body).to_bytes(4, "big") + body


def _encode_bytes(value: Any, out: bytearray) -> None:
    body = bytes(value)
    out += _TAG_BYTES + len(body).to_bytes(4, "big") + body


def _encode_list(value: Any, out: bytearray) -> None:
    # Containers dispatch their items inline: a call through _encode_into
    # per node is a tenth of the cost of encoding a transaction.
    out += _TAG_LIST + len(value).to_bytes(4, "big")
    for item in value:
        _ENCODERS.get(type(item), _encode_other)(item, out)


def _encode_dict(value: dict, out: bytearray) -> None:
    # Key types first: sorting mixed keys raises its own, unrelated TypeError.
    for key in value:
        if not isinstance(key, str):
            raise TypeError("wire dicts must have string keys")
    out += _TAG_DICT + len(value).to_bytes(4, "big")
    for key in sorted(value):
        _ENCODERS.get(type(key), _encode_other)(key, out)
        item = value[key]
        _ENCODERS.get(type(item), _encode_other)(item, out)


#: The type universe in ladder order; ``_ENCODERS`` is its exact-type index.
_LADDER = (
    ((int,), _encode_int),
    ((str,), _encode_str),
    ((bytes, bytearray, memoryview), _encode_bytes),
    ((tuple, list), _encode_list),
    ((dict,), _encode_dict),
)
_ENCODERS = {type(None): _encode_none, bool: _encode_bool}
_ENCODERS.update((cls, encoder) for bases, encoder in _LADDER for cls in bases)


def _encode_other(value: Any, out: bytearray) -> None:
    """Everything the table misses: subclasses, wire objects, rejects."""
    for bases, encoder in _LADDER:
        if isinstance(value, bases):
            encoder(value, out)
            return
    wire_bytes = getattr(value, "wire_bytes", None)
    if callable(wire_bytes):
        out += wire_bytes()
        return
    to_wire = getattr(value, "to_wire", None)
    if callable(to_wire):
        _encode_into(to_wire(), out)
        return
    if isinstance(value, float):
        raise TypeError("floats are not allowed in consensus data")
    raise TypeError(f"cannot wire-encode {type(value).__name__}")


def _encode_into(value: Any, out: bytearray) -> None:
    _ENCODERS.get(type(value), _encode_other)(value, out)


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into canonical deterministic bytes."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def wire_hash(value: Any, domain: str = "repro/wire") -> bytes:
    """SHA-256 of the canonical encoding, domain-separated by ``domain``."""
    return hash_encoded(canonical_encode(value), domain)


def hash_encoded(encoded: bytes, domain: str = "repro/wire") -> bytes:
    """Domain-separated SHA-256 over an already-canonical encoding.

    Messages derive several digests (message id, signing digest, contract
    id) from the *same* canonical bytes; callers that cache the encoding
    use this to skip re-encoding for each domain.
    """
    hasher = hashlib.sha256()
    hasher.update(domain.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(encoded)
    return hasher.digest()
