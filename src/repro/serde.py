"""One strict serde: every file this package reads or writes goes through here.

A serializable type is a dataclass whose annotated fields are its
schema; specs, request-log records, trace events, the checkpoint, the
two JSONL headers and the metrics snapshot are declarations on top of:

* :func:`load` — typed value from JSON-shaped data.  Unknown keys,
  missing keys, wrong shapes and non-finite floats are rejected with
  the **full dotted path** in the message (``records[0].at``) and raised
  as the error class the file format owns.  Lists become tuples and
  ints are accepted for floats; bools are neither ints nor floats.
* A plain dataclass is a *spec*: omitted keys take the field defaults.
  One marked :func:`exact` is a *file record*: every key is required.
* :func:`dump` (the inverse) and :func:`canonical`, the one byte form.
* :func:`dump_jsonl` / :func:`load_jsonl` (a header record, then one
  row per line) and :func:`check_schema`.
* :func:`parse` / :func:`read_text` turn decode and I/O failures into
  the caller's named error; :func:`write_text` replaces atomically.

The contract is spelled out in ``docs/experiments.md`` ("Serialization
contract").  This module imports nothing from the package but
:mod:`repro.errors`, so ``obs/`` and ``service/`` can use it without
importing ``experiment/``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import types
import typing

from .errors import SpecError


class _Invalid(Exception):
    """A value did not fit its declared type; the message carries the path."""


class Field(typing.NamedTuple):
    """One row of a dataclass's serde schema."""

    key: str  # the key on the wire
    name: str  # the attribute on the dataclass
    type: typing.Any  # the resolved annotation
    required: bool  # the key must be present on load


def wire(key: str, **kwargs):
    """A dataclass field whose wire key differs from its attribute name."""
    return dataclasses.field(metadata={"wire": key}, **kwargs)


def exact(cls):
    """Mark a dataclass as a file record: on load every key is required."""
    cls.__serde_exact__ = True
    return cls


@functools.cache
def fields(cls) -> dict[str, Field]:
    """The serde schema of dataclass ``cls`` by wire key, resolved once
    per class (``typing.get_type_hints`` is most of an uncached load)."""
    hints = typing.get_type_hints(cls)
    all_required = getattr(cls, "__serde_exact__", False)
    table = {}
    for f in dataclasses.fields(cls):
        has_default = (
            f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
        )
        key = f.metadata.get("wire", f.name)
        table[key] = Field(key, f.name, hints[f.name], all_required or not has_default)
    return table


# ---------------------------------------------------------------------------
# load / dump
# ---------------------------------------------------------------------------


def load(tp, data, path: str = "", error=SpecError):
    """Strictly build a value of annotated type ``tp`` (usually a
    dataclass) from JSON-shaped ``data``; see the module docstring.

    ``path`` names the document root in messages (children are
    ``path.key`` / ``path[i]``; an unnamed root dataclass is labelled by
    its class name); ``error`` is the exception class raised.
    """
    try:
        return _fit(data, tp, path)
    except _Invalid as exc:
        raise error(str(exc)) from None


def _load_dataclass(cls, data, path: str):
    label = path or cls.__name__
    if not isinstance(data, dict):
        raise _Invalid(f"{label}: expected an object, got {type(data).__name__}")
    table = fields(cls)
    unknown = sorted(data.keys() - table.keys())
    missing = sorted(key for key, f in table.items() if f.required and key not in data)
    if unknown or missing:
        raise _Invalid(
            f"{label}: unknown keys {unknown}, missing keys {missing} "
            f"(known keys: {sorted(table)})"
        )
    prefix = f"{path}." if path else ""
    return cls(
        **{
            table[key].name: _fit(value, table[key].type, prefix + key)
            for key, value in data.items()
        }
    )


def _fit(value, tp, path: str):
    if tp is typing.Any:
        return value
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        arms = typing.get_args(tp)
        if value is None:
            if type(None) in arms:
                return None
            raise _Invalid(f"{path}: may not be null")
        first = None
        for arm in arms:
            if arm is type(None):
                continue
            try:
                return _fit(value, arm, path)
            except _Invalid as exc:
                first = first or exc
        raise first
    if dataclasses.is_dataclass(tp):
        return _load_dataclass(tp, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _Invalid(f"{path}: expected a list, got {type(value).__name__}")
        args = typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(args) != len(value):
            raise _Invalid(f"{path}: expected exactly {len(args)} items, got {len(value)}")
        return tuple(
            _fit(item, arm, f"{path}[{i}]")
            for i, (item, arm) in enumerate(zip(value, args))
        )
    if origin is dict:
        if not isinstance(value, dict):
            raise _Invalid(f"{path}: expected an object, got {type(value).__name__}")
        _, value_tp = typing.get_args(tp)
        return {
            str(key): _fit(item, value_tp, f"{path}.{key}")
            for key, item in value.items()
        }
    if tp is bool:
        if isinstance(value, bool):
            return value
        raise _Invalid(f"{path}: expected a bool, got {value!r}")
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _Invalid(f"{path}: expected an int, got {value!r}")
        return value
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _Invalid(f"{path}: expected a number, got {value!r}")
        # False for NaN, the infinities, and ints too large for a float.
        if not abs(value) <= sys.float_info.max:
            raise _Invalid(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if tp is str:
        if not isinstance(value, str):
            raise _Invalid(f"{path}: expected a string, got {value!r}")
        return value
    raise _Invalid(f"{path}: unsupported field type {getattr(tp, '__name__', tp)}")


def dump(obj):
    """Recursively convert a dataclass tree into plain JSON types."""
    if isinstance(obj, (str, int, float, type(None))):  # most values are leaves
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.key: dump(getattr(obj, f.name)) for f in fields(type(obj)).values()}
    if isinstance(obj, (tuple, list)):
        return [dump(item) for item in obj]
    if isinstance(obj, dict):
        return {key: dump(value) for key, value in obj.items()}
    return obj


class Serializable:
    """Mixin giving a spec dataclass its four serde methods."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data: dict):
        return load(cls, data)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(parse(text, SpecError, cls.__name__))


# ---------------------------------------------------------------------------
# Text: the canonical byte form, JSONL framing, files
# ---------------------------------------------------------------------------


def canonical(data) -> str:
    """The one canonical byte form: sorted keys, compact separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def parse(text: str, error, what: str):
    """``json.loads`` raising ``error`` naming ``what`` on malformed input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what}: not valid JSON: {exc}") from exc


def read_text(path: str, error, what: str) -> str:
    """Read a UTF-8 file, raising ``error`` if it is missing or binary."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path!r}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Replace ``path`` atomically (write ``path.tmp``, then rename): a
    process killed mid-write leaves the previous file, never a partial
    one.  No ``fsync`` — the fault model is process death, not power
    loss.  A symlink or device (``/dev/stdout``) is written through."""
    special = os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path))
    tmp = path if special else f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def check_schema(cls, data, error, what: str) -> None:
    """Reject a document written under another schema id than the one
    ``cls`` declares (the default of its ``schema`` field).  A missing
    or mistyped ``schema`` is left for :func:`load` to name."""
    found = data.get("schema") if isinstance(data, dict) else None
    if isinstance(found, str) and found != cls.schema:
        raise error(f"unsupported {what} schema {found!r} (expected {cls.schema!r})")


def dump_jsonl(header, rows) -> str:
    """One canonical line for the ``header`` record, then one per row."""
    lines = [canonical(dump(header))]
    lines.extend(canonical(dump(row)) for row in rows)
    return "\n".join(lines) + "\n"


def load_jsonl(text: str, header_cls, row_cls, count: str, error, what: str):
    """Parse what :func:`dump_jsonl` wrote into ``(header, rows)``.

    ``count`` names the header field declaring the number of rows.
    Messages address the header as ``<what> header`` and rows by line
    number (``<what> line 2`` is the first row).
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise error(f"empty {what}")
    data = parse(lines[0], error, f"{what} header")
    check_schema(header_cls, data, error, what)
    header = load(header_cls, data, f"{what} header", error)
    declared = getattr(header, count)
    if declared != len(lines) - 1:
        raise error(
            f"{what} header declares {declared} {count} but file has {len(lines) - 1}"
        )
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        label = f"{what} line {number}"
        rows.append(load(row_cls, parse(line, error, label), label, error))
    return header, rows
