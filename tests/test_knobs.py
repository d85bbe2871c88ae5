"""The knob ratchet: every spec field row has a setter.

A field row is ``Class.key`` for a field of any record type reachable
from ``ExperimentSpec``, ``ServiceSpec`` and ``SweepSpec``.  A row is
set when one of these holds:

* a catalog spec holds it away from its default: an experiment preset,
  a service preset, a sweep preset (with every point it expands to) or
  a ``benchmarks/ledger`` workload's spec.  This is worked out here, not
  listed;
* it holds nested records (a ``record`` row), whose own rows are checked;
* ``tests/data/knobs.txt`` lists it, with tags that each hold:

  - ``cli``: ``repro/cli.py`` writes the row's dotted path (a quoted
    path, or ``replace(spec, key=args.…)`` for a top-level key);
  - ``docs``: a ``--set`` under ``docs/`` names it (a path ending at
    the row, or one above it whose JSON value holds the row's key);
  - a ROADMAP item letter: that open item names the row's dotted path
    in backticks, or a record path above it as ``path.*``.

A row in none of these fails, and so does a line for a row that is not
a field, is a record, or that the catalog already sets: a new field
lands with its setter, and a field nothing sets is retired
(``serde.retired``) instead of kept.
"""

import dataclasses
import functools
import json
import re
import shlex
import string
import sys
import typing
from pathlib import Path

from repro import serde
from repro.experiment import ExperimentSpec, preset_names, preset_spec
from repro.service import ServiceSpec, service_preset_names, service_preset_spec
from repro.sweeps import SweepSpec, sweep_names, sweep_spec

ROOT = Path(__file__).resolve().parent.parent
KNOBS = ROOT / "tests" / "data" / "knobs.txt"
ROOTS = (ExperimentSpec, ServiceSpec, SweepSpec)
SET_ARG = re.compile(r"--set\s+((?:'[^']*'|[^\s`'])+)")
ROADMAP_ITEM = re.compile(r"^- \*\*([A-Z])\. (.*?)(?=^- \*\*|^#)", re.M | re.S)


def row(cls, f: serde.Field) -> str:
    return f"{cls.__name__}.{f.key}"


def is_record(f: serde.Field) -> bool:
    return serde._nested(f.type) is not None


def rows_under(cls) -> dict[str, serde.Field]:
    """Every field row of ``cls`` and of the records below it, by ``Class.key``."""
    rows, seen, pending = {}, set(), [cls]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        for f in serde.fields(cls).values():
            rows[row(cls, f)] = f
            if is_record(f):
                pending.append(serde._nested(f.type))
    return rows


def field_rows() -> dict[str, serde.Field]:
    return {knob: f for root in ROOTS for knob, f in rows_under(root).items()}


def knob_lines() -> list[list[str]]:
    """``[row, tag, ...]`` per line of the file (``#`` lines are comments)."""
    text = KNOBS.read_text(encoding="utf-8")
    return [line.split() for line in text.splitlines() if line.strip() and line[0] != "#"]


# ---------------------------------------------------------------------------
# The catalog: what presets, sweeps, service presets and the ledger set
# ---------------------------------------------------------------------------


def set_rows(value, found: set) -> set:
    """Add ``Class.key`` of every row ``value``'s tree holds away from its
    default (a row without a default always counts)."""
    if dataclasses.is_dataclass(value):
        for f in serde.fields(type(value)).values():
            inner = getattr(value, f.name)
            if inner != f.default:
                found.add(row(type(value), f))
            set_rows(inner, found)
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            set_rows(item, found)
    return found


def ledger_specs() -> list:
    """The spec ``benchmarks/ledger`` generates for each workload (seed 0)."""
    ledger = str(ROOT / "benchmarks" / "ledger")
    if ledger not in sys.path:
        sys.path.insert(0, ledger)
    import workloads

    specs = []
    for workload in workloads.WORKLOADS:
        text = workloads.generate(workload, 0)["spec"]
        kind = json.loads(text).keys() & {"base", "world"}
        root = {"base": SweepSpec, "world": ServiceSpec}[kind.pop()] if kind else ExperimentSpec
        specs.append(root.from_json(text))
    return specs


@functools.cache
def catalog_rows() -> frozenset:
    """The rows some catalog spec holds away from their defaults."""
    specs = [preset_spec(name) for name in preset_names()]
    specs += [service_preset_spec(name) for name in service_preset_names()]
    specs += [sweep_spec(name) for name in sweep_names()]
    specs += ledger_specs()
    found: set = set()
    for spec in specs:
        set_rows(spec, found)
        if isinstance(spec, SweepSpec):
            for point in spec.expand().points:
                set_rows(point.spec, found)
    return frozenset(found)


# ---------------------------------------------------------------------------
# The free tags: what a dotted path, a --set or a ROADMAP item names
# ---------------------------------------------------------------------------


def held(tp, value) -> set:
    """The rows below a field of type ``tp`` that the JSON ``value`` has keys for."""
    nested = serde._nested(tp)
    if nested is None:
        return set()
    if typing.get_origin(tp) is dict and isinstance(value, dict):
        items = list(value.values())
    else:
        items = value if isinstance(value, list) else [value]
    found = set()
    for item in items:
        for key, inner in item.items() if isinstance(item, dict) else ():
            f = serde.fields(nested).get(key)
            if f is not None:
                found |= {row(nested, f)} | held(f.type, inner)
    return found


def named(path: str, value=None, whole: bool = False) -> set:
    """The rows dotted ``path`` names under any root: the one it ends at,
    plus the rows below it that ``value`` has keys for (``whole``: all of
    them).  ``[]`` / ``[N]`` and a chain id under ``overrides`` are read
    through."""
    found = set()
    for cls in ROOTS:
        parts = re.sub(r"\[\d*\]", "", path).split(".")
        while cls is not None:
            f = serde.fields(cls).get(parts.pop(0))
            if f is None:
                break
            if typing.get_origin(f.type) is dict and parts:
                parts.pop(0)
            if not parts:
                found.add(row(cls, f))
                if whole and is_record(f):
                    found |= set(rows_under(serde._nested(f.type)))
                found |= held(f.type, value)
                break
            cls = serde._nested(f.type)
    return found


def named_by_set_args(text: str) -> set:
    """The rows the ``--set KEY=VALUE`` arguments in ``text`` name."""
    found = set()
    for match in SET_ARG.finditer(text):
        key, _, raw = shlex.split(match.group(1))[0].partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        found |= named(key, value)
    return found


@functools.cache
def named_by_cli() -> frozenset:
    text = (ROOT / "src" / "repro" / "cli.py").read_text(encoding="utf-8")
    paths = re.findall(r'"([a-z_]+(?:\.[a-z_]+)+)"', text)
    paths += re.findall(r"replace\(spec, ([a-z_]+)=args\.", text)
    return frozenset(set().union(*map(named, paths)))


@functools.cache
def named_by_docs() -> frozenset:
    texts = [path.read_text(encoding="utf-8") for path in ROOT.glob("docs/*.md")]
    return frozenset(set().union(*map(named_by_set_args, texts)))


@functools.cache
def named_by_roadmap() -> dict:
    """Item letter -> the rows its text names in backticks."""
    text = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    items = {}
    for letter, body in ROADMAP_ITEM.findall(text):
        tokens = re.findall(r"`([^`\s]+)`", body)
        found = (named(t.removesuffix(".*"), whole=t.endswith(".*")) for t in tokens)
        items[letter] = frozenset(set().union(*found))
    return items


def tag_holds(tag: str, knob: str) -> bool:
    if tag == "cli":
        return knob in named_by_cli()
    if tag == "docs":
        return knob in named_by_docs()
    if len(tag) == 1 and tag in string.ascii_uppercase:
        return knob in named_by_roadmap().get(tag, ())
    return False


# ---------------------------------------------------------------------------
# The ratchet
# ---------------------------------------------------------------------------


def test_every_row_is_set_by_the_catalog_or_listed():
    listed = [knob for knob, *_ in knob_lines()]
    assert listed == sorted(set(listed)), f"{KNOBS.name} must stay sorted and unique"
    rows = field_rows()
    unset = sorted(
        knob
        for knob, f in rows.items()
        if not is_record(f) and knob not in catalog_rows() and knob not in listed
    )
    assert not unset, f"a new field lands with its setter; add a line to {KNOBS.name}: {unset}"
    gone = sorted(set(listed) - rows.keys())
    assert not gone, f"no longer a field row; delete the line from {KNOBS.name}: {gone}"
    records = sorted(knob for knob in listed if is_record(rows[knob]))
    assert not records, f"record rows are checked through their fields; delete: {records}"
    derived = sorted(set(listed) & catalog_rows())
    assert not derived, f"a catalog spec already sets these; delete the lines: {derived}"


def test_every_listed_row_names_a_setter_that_holds():
    wrong = [f"{knob}: names no setter" for knob, *tags in knob_lines() if not tags]
    wrong += [
        f"{knob} {tag}" for knob, *tags in knob_lines() for tag in tags if not tag_holds(tag, knob)
    ]
    assert not wrong, (
        f"tags (cli, docs, a ROADMAP item letter) the named source does not bear out: {wrong}"
    )


def test_the_free_tags_read_what_they_name():
    # The workflow sets no knob: "ci" is not a tag.
    assert not tag_holds("ci", "EngineSpec.eager")
    assert "EngineSpec.eager" in named_by_roadmap()["A"]
    docs = named_by_docs()
    assert {"ChainOverride.confirmation_depth", "FeeShockSpec.count", "ChainsSpec.witness"} <= docs
    assert "TrafficSpec.prefix" not in docs
    assert {"ServiceSpec.duration", "MonitorSpec.stderr"} <= named_by_cli()
    adversary = serde._nested(serde.fields(ExperimentSpec)["adversary"].type)
    assert set(rows_under(adversary)) <= named_by_roadmap()["H"]
    assert "EngineSpec.jitter" not in named_by_roadmap()["H"]
    assert named("sources[].fee_budget", {"cap": 1, "nope": 2}) == {
        "SourceSpec.fee_budget",
        "FeeBudgetSpec.cap",
    }
    assert named("chains.overrides.a.deploy_fee") == {"ChainOverride.deploy_fee"}
    assert named("no.such") == named("traffic.rate.x") == set()
    assert not tag_holds("Z", "TrafficSpec.rate") and not tag_holds("maybe", "TrafficSpec.rate")
