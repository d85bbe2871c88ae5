"""One strict serde: every file this package reads or writes goes through here.

A serializable type is a dataclass whose annotated fields are its
schema; specs, request-log records, trace events, the checkpoint, the
two JSONL headers and the metrics snapshot are declarations on top of:

* :func:`field` — the declaration: a dataclass field whose wire key,
  range, choice set, non-emptiness and one-line doc ride in its
  ``metadata``; :func:`fields` reads them back as the class's schema.
* :func:`load` — typed value from JSON-shaped data.  Unknown keys,
  missing keys, wrong shapes and non-finite floats are rejected with
  the **full dotted path** in the message (``records[0].at``) and raised
  as the error class the file format owns.  Lists become tuples and
  ints are accepted for floats; bools are neither ints nor floats.
* A plain dataclass is a *spec*: omitted keys take the field defaults.
  One marked :func:`exact` is a *file record*: every key is required.
  A key a class declares :func:`retired` still loads, and is dropped.
* :func:`dump` (the inverse) and :func:`canonical`, the one byte form.
* :func:`check` — the declared rules, enforced over a loaded tree;
  :func:`describe` — the same declarations rendered for docs and CLI.
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
import difflib
import functools
import json
import os
import sys
import types
import typing

from .errors import SpecError


class _Invalid(Exception):
    """A value did not fit its declared type; the message carries the path."""


class Rule(typing.NamedTuple):
    """What every leaf of a field must satisfy (see :func:`field`)."""

    gt: float | None = None
    ge: float | None = None
    le: float | None = None
    #: The allowed strings: a tuple, or — for a registry that plug-ins
    #: extend — a zero-argument callable evaluated at every check.
    choices: typing.Any = None
    #: Noun for a registry-backed choice set's ``unknown <noun>`` message.
    unknown: str = ""
    nonempty: bool = False

    def members(self) -> tuple:
        return tuple(self.choices() if callable(self.choices) else self.choices)

    def text(self) -> str:
        """The requirement in words, as messages and :func:`describe` say it."""
        low = self.ge if self.gt is None else self.gt
        if low is not None and self.le is not None:
            return f"within {'[' if self.gt is None else '('}{low}, {self.le}]"
        if low is not None and low == 0:
            return "non-negative" if self.gt is None else "positive"
        if low is not None:
            return f"at least {low}" if self.gt is None else f"greater than {low}"
        if self.le is not None:
            return f"at most {self.le}"
        if self.choices is not None:
            return f"one of {self.members()}"
        return "not empty" if self.nonempty else ""

    def broken_by(self, value) -> str:
        """What to say after the dotted path of a leaf ``value`` that
        breaks this rule; empty when it holds."""
        if isinstance(value, str):
            if self.nonempty and not value:
                return " must not be empty"
            if self.choices is not None and value not in self.members():
                if self.unknown:
                    return (
                        f": unknown {self.unknown} {value!r}; "
                        f"expected one of {self.members()}"
                    )
                return f" must be {self.text()}, got {value!r}"
        elif not (
            (self.gt is None or value > self.gt)
            and (self.ge is None or value >= self.ge)
            and (self.le is None or value <= self.le)
        ):
            return f" must be {self.text()}"
        return ""


class Field(typing.NamedTuple):
    """One row of a dataclass's serde schema."""

    key: str  # the key on the wire
    name: str  # the attribute on the dataclass
    type: typing.Any  # the resolved annotation
    default: typing.Any  # ``dataclasses.MISSING`` when the class has none
    rule: Rule | None  # what check() enforces on the field's leaves
    doc: str  # one line for describe()
    required: bool  # the key must be present on load


def field(
    default=dataclasses.MISSING,
    *,
    default_factory=dataclasses.MISSING,
    wire: str | None = None,
    doc: str = "",
    **rule,
):
    """A dataclass field that carries its serde declaration.

    ``wire`` renames the key on the wire; ``doc`` is the one line
    :func:`describe` prints; the remaining keywords are the
    :class:`Rule` (``gt`` / ``ge`` / ``le``, ``choices`` with an
    optional ``unknown`` noun, ``nonempty``) that :func:`check` holds
    every leaf of the field to — containers and ``None`` are looked
    through.  All of it lives in ``metadata``: ``repr``, ``==``,
    defaults and written bytes are those of a plain field.
    """
    metadata = {"wire": wire, "doc": doc, "rule": Rule(**rule) if rule else None}
    return dataclasses.field(
        default=default, default_factory=default_factory, metadata=metadata
    )


def exact(cls):
    """Mark a dataclass as a file record: on load every key is required."""
    cls.__serde_exact__ = True
    return cls


def retired(key: str, why: str, *only):
    """Declare that the decorated class once had wire key ``key``:
    :func:`load` accepts and drops it, so files written before the
    removal still load, while nothing writes, lists or describes it and
    a path that names it is refused with ``why``.  ``only``, when given,
    is the one value the key may still hold."""

    def mark(cls):
        cls.__serde_retired__ = {**getattr(cls, "__serde_retired__", {}), key: (why, only)}
        return cls

    return mark


@functools.cache
def fields(cls) -> dict[str, Field]:
    """The serde schema of dataclass ``cls`` by wire key, resolved once
    per class (``typing.get_type_hints`` is most of an uncached load)."""
    hints = typing.get_type_hints(cls)
    all_required = getattr(cls, "__serde_exact__", False)
    table = {}
    for f in dataclasses.fields(cls):
        default = f.default
        if f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        key = f.metadata.get("wire") or f.name
        table[key] = Field(
            key,
            f.name,
            hints[f.name],
            default,
            f.metadata.get("rule"),
            f.metadata.get("doc", ""),
            all_required or default is dataclasses.MISSING,
        )
    return table


def known_field(cls, key: str, where: str) -> Field:
    """Row ``key`` of ``cls``'s schema; an unknown key is a
    :class:`SpecError` that offers the nearest known one."""
    table = fields(cls)
    if key in getattr(cls, "__serde_retired__", ()):
        raise SpecError(f"{where}: field {key!r} was retired: {cls.__serde_retired__[key][0]}")
    if key not in table:
        near = difflib.get_close_matches(key, table, n=1)
        hint = f"did you mean {near[0]!r}? " if near else ""
        raise SpecError(
            f"{where}: unknown field {key!r}; {hint}expected one of {sorted(table)}"
        )
    return table[key]


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
    prefix = f"{path}." if path else ""
    for key, (why, only) in getattr(cls, "__serde_retired__", {}).items():
        if key in data:
            if only and canonical(data[key]) != canonical(only[0]):
                raise _Invalid(
                    f"{prefix}{key} was retired ({why}): only "
                    f"{canonical(only[0])} still loads, got {data[key]!r}"
                )
            data = {k: v for k, v in data.items() if k != key}
    unknown = sorted(data.keys() - table.keys())
    missing = sorted(key for key, f in table.items() if f.required and key not in data)
    if unknown or missing:
        raise _Invalid(
            f"{label}: unknown keys {unknown}, missing keys {missing} "
            f"(known keys: {sorted(table)})"
        )
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
# check / describe: the two readers of the declared rules
# ---------------------------------------------------------------------------


def check(obj, path: str = "", fail=None) -> None:
    """Hold the dataclass tree under ``obj`` to its declared rules.

    Walks through ``None``, tuples, dict values and nested specs — but
    not into a nested :class:`Serializable`, a document that validates
    itself — and reports the first leaf, in field order, that breaks
    its field's :class:`Rule`: ``<dotted path> must be positive |
    non-negative | at least N | within [a, b] | one of (…), got X``,
    ``… must not be empty``, or ``…: unknown <noun> X`` for a registry.
    The message goes to ``fail(message)``; without one it is raised as
    :class:`SpecError`.
    """
    for message in _broken(obj, None, path):
        if fail is None:
            raise SpecError(message)
        return fail(message)


def _broken(value, rule: Rule | None, path: str):
    if dataclasses.is_dataclass(value):
        prefix = f"{path}." if path else ""
        for f in fields(type(value)).values():
            inner = getattr(value, f.name)
            if not isinstance(inner, Serializable):
                yield from _broken(inner, f.rule, prefix + f.key)
    elif isinstance(value, (tuple, list)):
        for index, item in enumerate(value):
            yield from _broken(item, rule, f"{path}[{index}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _broken(item, rule, f"{path}.{key}")
    elif rule is not None and value is not None:
        clause = rule.broken_by(value)
        if clause:
            yield path + clause


def _type_text(tp) -> str:
    """An annotation the way a spec file spells it."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return " | ".join(_type_text(arm) for arm in args)
    if origin is tuple:
        items = args[:1] if args[1:] == (Ellipsis,) else args
        return f"[{', '.join(_type_text(arm) for arm in items)}]"
    if origin is dict:
        return f"{{str: {_type_text(args[1])}}}"
    if tp is typing.Any:
        return "any"
    return "null" if tp is type(None) else tp.__name__


def _nested(tp):
    """The spec class whose fields sit under a field of type ``tp``."""
    if dataclasses.is_dataclass(tp):
        return tp
    return next(filter(None, map(_nested, typing.get_args(tp))), None)


def _rows(table, prefix: str = "") -> list[str]:
    """One ``key: type = default  # rule; doc`` row per field (the
    comments of one sibling group aligned), its nested spec's rows
    indented below it."""
    heads = []
    for f in table:
        head = f"{prefix}{f.key}: {_type_text(f.type)}"
        if f.default is not dataclasses.MISSING and not dataclasses.is_dataclass(f.default):
            head += f" = {json.dumps(dump(f.default))}"
        heads.append(head)
    width = max((len(head) for head in heads if len(head) <= 44), default=0)
    rows = []
    for f, head in zip(table, heads):
        nested = _nested(f.type)
        document = nested is not None and issubclass(nested, Serializable)
        each = "each " if typing.get_origin(f.type) in (tuple, dict) else ""
        notes = [
            each + f.rule.text() if f.rule else "",
            f.doc,
            f"see {nested.__name__}, which validates itself" if document else "",
        ]
        note = "; ".join(filter(None, notes))
        rows.append(f"{head.ljust(width)}  # {note}" if note else head)
        if nested is not None and not document:
            rows.extend("    " + row for row in _rows(fields(nested).values()))
    return rows


def describe(cls, path: str = "") -> str:
    """The schema of spec class ``cls`` as text — type, default, rule
    and doc of every field, generated from the declarations — or, with
    a dotted ``path``, of the one field or subtree there."""
    if not path:
        return "\n".join([cls.__name__] + ["    " + row for row in _rows(fields(cls).values())])
    *parents, leaf = path.split(".")
    for done, key in enumerate(parents):
        cls = _nested(known_field(cls, key, f"path {path!r}").type)
        if cls is None:
            raise SpecError(
                f"path {path!r}: {'.'.join(parents[: done + 1])!r} has no nested fields"
            )
    found = known_field(cls, leaf, f"path {path!r}")
    return "\n".join(_rows([found], prefix=path[: len(path) - len(leaf)]))


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


def csv_line(cells) -> str:
    """One CSV row of string ``cells``; a cell holding a comma, a quote
    or a newline is quoted, so no value can shift the columns."""
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if any(ch in cell for ch in ',"\n') else cell
        for cell in cells
    )


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
