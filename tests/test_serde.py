"""Tests for :mod:`repro.serde`, the one strict loader/dumper.

Four parts:

* a **probe table** — one row per single-value corruption that, before
  ``repro.serde`` existed, either escaped a loader as a raw
  ``ValueError``/``TypeError``/``AttributeError`` or was silently
  accepted.  Each must raise the file format's own ``repro.errors``
  type with the dotted path of the bad value in the message, and the
  CLI must turn it into exit 2 and one ``repro <cmd>:`` line;
* **atomic writes** — a writer that dies mid-document leaves the
  previous checkpoint intact;
* **generated round trips and mutations** (Hypothesis, derandomized) —
  for every serde'd type ``load(dump(x)) == x`` and
  ``canonical(dump(load(text))) == text``, and one random mutation at a
  random dotted path (drop a key, add a key, swap in a value of another
  JSON type, a non-finite float) raises the named error and names the
  path.  Values and ``--set`` edits are drawn from the field table
  itself, so a new field is covered the day it is declared;
* a **structural** check that the duplicated serde idioms stay deleted.
"""

import copy
import dataclasses
import difflib
import functools
import hashlib
import json
import math
import operator
import re
import types
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serde
from repro.cli import main
from repro.errors import MetricsError, ServiceError, SpecError, TraceError
from repro.experiment import (
    ExperimentSpec,
    FeeBudgetSpec,
    apply_overrides,
    preset_names,
    preset_spec,
)
from repro.obs import MetricsRegistry, TraceCollector
from repro.obs.metrics import (
    _Family,
    _HistogramFamily,
    _HistogramRow,
    _SampleRow,
    _Snapshot,
)
from repro.obs.trace import TraceEvent
from repro.obs.trace import _Header as TraceHeader
from repro.service import (
    RequestRecord,
    ServiceSpec,
    SwapService,
    dump_request_log,
    load_request_log,
    service_preset_names,
    service_preset_spec,
)
from repro.service.requestlog import _Header as LogHeader
from repro.service.service import _Checkpoint
from repro.sweeps import SweepAxis, SweepSpec, sweep_names, sweep_spec

SRC = Path(__file__).parent.parent / "src" / "repro"
DATA = Path(__file__).parent / "data"


def small_service_spec() -> ServiceSpec:
    return apply_overrides(
        service_preset_spec("serve-steady"), {"capacity": 8, "duration": 3.0}
    )


# ---------------------------------------------------------------------------
# Fixtures: one small well-formed file of each format, as plain JSON data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def session():
    """A small served session: its checkpoint text and request log."""
    service = SwapService(small_service_spec())
    service.serve(max_swaps=3)
    files = {"checkpoint": service.checkpoint(), "log": service.request_log()}
    service.close()
    return files


def trace_text() -> str:
    collector = TraceCollector(ring_size=8)
    collector.emit("swap", "launch", swap_id=0, protocol="ac3wn")
    collector.emit("chain", "block", chain_id="witness", height=3)
    return collector.to_jsonl()


def snapshot_data() -> dict:
    registry = MetricsRegistry()
    registry.counter("swaps_total", "Swaps").inc(protocol="ac3wn")
    registry.gauge("depth", "Depth").set(3.0)
    registry.histogram("latency", "Latency", (1.0, 2.0)).observe(1.5, chain="a")
    return registry.to_dict()


def edit(data, path: list, value):
    """``data`` with the value at ``path`` (keys and indexes) replaced."""
    data = copy.deepcopy(data)
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return data


def edit_line(text: str, line: int, path: list, value) -> str:
    """JSONL ``text`` with one value on 1-based ``line`` replaced."""
    lines = text.splitlines()
    lines[line - 1] = json.dumps(edit(json.loads(lines[line - 1]), path, value))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The probe table
# ---------------------------------------------------------------------------

NAN = float("nan")


def load_log(session, line, path, value):
    load_request_log(edit_line(session["log"], line, path, value))


def load_trace(session, line, path, value):
    TraceCollector.from_jsonl(edit_line(trace_text(), line, path, value))


def load_snapshot(session, line, path, value):
    MetricsRegistry.from_dict(json.loads(json.dumps(edit(snapshot_data(), path, value))))


def load_checkpoint(session, line, path, value):
    data = edit(json.loads(session["checkpoint"]), path, value)
    serde.load(_Checkpoint, data, "checkpoint", ServiceError)


def load_spec(session, line, path, value):
    ExperimentSpec.from_json(json.dumps(edit(ExperimentSpec().to_dict(), path, value)))


def set_spec(session, line, path, value):
    apply_overrides(ExperimentSpec(), {".".join(path): json.dumps(value)})


#: (loader, line, path to the value, bad value, error type, dotted path)
PROBES = [
    # -- escaped as raw ValueError / TypeError / AttributeError --------------
    (load_log, 1, ["records"], None, ServiceError, "header.records"),
    (load_log, 1, ["records"], "x", ServiceError, "header.records"),
    (load_log, 2, ["at"], None, ServiceError, "line 2.at"),
    (load_log, 2, ["at"], "abc", ServiceError, "line 2.at"),
    (load_trace, 1, ["dropped"], "a", TraceError, "header.dropped"),
    (load_trace, 1, ["categories"], 5, TraceError, "header.categories"),
    (load_trace, 1, ["ring_size"], "big", TraceError, "header.ring_size"),
    (load_trace, 2, ["seq"], "x", TraceError, "line 2.seq"),
    (load_trace, 3, ["t"], None, TraceError, "line 3.t"),
    (load_snapshot, 0, ["metrics", 2, "samples", 0, "labels"], 5, MetricsError,
     "snapshot.metrics[2].samples[0].labels"),
    (load_snapshot, 0, ["metrics", 0, "samples"], 7, MetricsError,
     "snapshot.metrics[0].samples"),
    (load_snapshot, 0, ["metrics", 0, "samples", 0, "value"], "x", MetricsError,
     "snapshot.metrics[0].samples[0].value"),
    # -- silently accepted ----------------------------------------------------
    (load_log, 2, ["at"], True, ServiceError, "line 2.at"),
    (load_log, 2, ["at"], NAN, ServiceError, "line 2.at"),
    (load_trace, 2, ["swap"], "seven", TraceError, "line 2.swap"),
    (set_spec, 0, ["traffic", "rate"], NAN, SpecError, "traffic.rate"),
    (load_spec, 0, ["chains", "block_interval"], math.inf, SpecError, "chains.block_interval"),
    # -- reached users as CLI tracebacks --------------------------------------
    (load_checkpoint, 0, ["records", 0, "at"], "soon", ServiceError,
     "checkpoint.records[0].at"),
    (load_checkpoint, 0, ["cursors", "steady"], "x", ServiceError,
     "checkpoint.cursors.steady"),
    (load_log, 1, ["records"], "3", ServiceError, "header.records"),
    (load_checkpoint, 0, ["clock"], NAN, ServiceError, "checkpoint.clock"),
    # -- the stricter loaders keep what the old ones already rejected ---------
    (load_log, 3, ["seq"], 5, ServiceError, "line 3"),
    (load_trace, 2, ["cat"], "bogus", TraceError, "line 2.cat"),
]


def probe_id(probe) -> str:
    loader, line, path, value, _error, _where = probe
    return f"{loader.__name__}-{line}-{'.'.join(map(str, path))}={value!r}"


class TestProbeTable:
    @pytest.mark.parametrize("probe", PROBES, ids=probe_id)
    def test_bad_value_is_a_named_error_with_its_path(self, session, probe):
        loader, line, path, value, error, where = probe
        with pytest.raises(error) as caught:
            loader(session, line, path, value)
        assert type(caught.value) is error
        assert where in str(caught.value)

    def test_ints_are_accepted_for_floats_and_redump_as_floats(self, session):
        text = edit_line(session["log"], 2, ["at"], 1)
        spec, records = load_request_log(text)
        assert records[0].at == 1.0 and isinstance(records[0].at, float)
        assert '"at":1.0' in dump_request_log(spec, records).splitlines()[1]

    @pytest.mark.parametrize("value", [True, False])
    def test_bools_are_neither_ints_nor_floats(self, value):
        for field in ("seq", "at"):
            row = {**RequestRecord(0, 0.5, "s", "ac3wn", 1).to_dict(), field: value}
            with pytest.raises(ServiceError, match=f"request record.{field}: expected"):
                RequestRecord.from_dict(row)

    def test_exact_records_do_not_default_missing_keys(self):
        row = RequestRecord(0, 0.5, "s", "ac3wn", 1).to_dict()
        del row["fee_budget"]  # has a constructor default
        with pytest.raises(ServiceError, match=r"missing keys \['fee_budget'\]"):
            RequestRecord.from_dict(row)

    def test_specs_default_missing_keys_even_inside_exact_records(self):
        row = RequestRecord(0, 0.5, "s", "ac3wn", 1).to_dict()
        row["fee_budget"] = {"cap": 9}
        assert RequestRecord.from_dict(row).fee_budget == FeeBudgetSpec(cap=9)

    def test_field_table_is_per_class(self):
        assert serde.fields(TraceEvent) is serde.fields(TraceEvent)
        assert set(serde.fields(TraceEvent)) == {
            "seq", "t", "cat", "kind", "swap", "chain", "actor", "data",
        }
        assert "t" not in serde.fields(RequestRecord)
        assert serde.fields(RequestRecord)["fee_budget"].required
        assert not serde.fields(FeeBudgetSpec)["cap"].required
        for cls in FILE_RECORDS:
            assert all(f.required for f in serde.fields(cls).values()), cls


class TestCliSurfaces:
    """The five commands that read a file or a ``--set`` value."""

    def assert_one_line(self, capsys, argv, command, where):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {command}: ")
        assert captured.err.count("\n") == 1
        assert where in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize(
        "path, value, where",
        [
            (["records", 0, "at"], "soon", "checkpoint.records[0].at"),
            (["cursors", "steady"], "x", "checkpoint.cursors.steady"),
            (["clock"], NAN, "checkpoint.clock"),
        ],
    )
    def test_serve_restore(self, session, tmp_path, capsys, path, value, where):
        ckpt = tmp_path / "ck.json"
        ckpt.write_text(json.dumps(edit(json.loads(session["checkpoint"]), path, value)))
        self.assert_one_line(capsys, ["serve", "--restore", str(ckpt)], "serve", where)

    @pytest.mark.parametrize(
        "line, path, value, where",
        [
            (1, ["records"], "3", "header.records"),
            (2, ["at"], "soon", "line 2.at"),
            (3, ["seq"], 7, "line 3"),
        ],
    )
    def test_replay(self, session, tmp_path, capsys, line, path, value, where):
        log = tmp_path / "log.jsonl"
        log.write_text(edit_line(session["log"], line, path, value))
        self.assert_one_line(capsys, ["replay", str(log)], "replay", where)

    @pytest.mark.parametrize("command", ["trace", "alerts"])
    def test_trace_and_alerts(self, tmp_path, capsys, command):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(edit_line(trace_text(), 1, ["dropped"], "a"))
        self.assert_one_line(capsys, [command, str(trace)], command, "header.dropped")
        trace.write_bytes(b"\xff\xfe\x00binary")
        self.assert_one_line(capsys, [command, str(trace)], command, "cannot read trace")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_run_set_non_finite(self, capsys, value):
        argv = ["run", "--preset", "swap", "--set", f"chains.block_interval={value}"]
        self.assert_one_line(capsys, argv, "run", "chains.block_interval")


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class TestAtomicWrites:
    def test_killed_writer_keeps_the_last_good_checkpoint(self, tmp_path, monkeypatch):
        service = SwapService(small_service_spec())
        service.serve(max_swaps=2)
        path = tmp_path / "session.ckpt"
        first = service.checkpoint(str(path))
        assert path.read_text() == first
        service.serve(max_swaps=4)

        seen_at_target = []
        real_open = open

        class Killed(BaseException):
            pass

        class DyingWriter:
            """Writes half the document, then the process 'dies'."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                seen_at_target.append(path.read_text())
                raise Killed

        def dying_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return DyingWriter(handle) if "w" in mode else handle

        monkeypatch.setattr("builtins.open", dying_open)
        with pytest.raises(Killed):
            service.checkpoint(str(path))
        monkeypatch.undo()

        # The target never held a partial document, and still holds the
        # previous one byte for byte; it restores to the same session.
        assert seen_at_target == [first]
        assert path.read_text() == first
        service.close()
        restored = SwapService.restore(str(path))
        restored.close()
        assert restored.accepted == 2
        assert restored.request_log() == dump_request_log(
            service.spec, service.records[:2]
        )

    def test_symlinks_are_written_through_not_replaced(self, tmp_path):
        """``--json /dev/stdout`` must not rename a file over the link."""
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("old")
        link.symlink_to(real)
        serde.write_text(str(link), "new")
        assert link.is_symlink() and real.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


# ---------------------------------------------------------------------------
# Generated values, drawn from the field table
# ---------------------------------------------------------------------------

names = st.text("abcxyz-_.09", min_size=0, max_size=6)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40) | floats | names,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(names, inner, max_size=3),
    max_leaves=6,
)


def values_of(tp):
    """A strategy for in-memory values of annotated type ``tp``."""
    if tp is typing.Any:
        return json_values
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        return st.one_of([values_of(arm) for arm in typing.get_args(tp)])
    if tp is type(None):
        return st.none()
    if dataclasses.is_dataclass(tp):
        return instances_of(tp)
    if origin is tuple:
        args = typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(values_of(args[0]), max_size=3).map(tuple)
        return st.tuples(*[values_of(arm) for arm in args])
    if origin is dict:
        return st.dictionaries(names, values_of(typing.get_args(tp)[1]), max_size=3)
    return {
        bool: st.booleans(),
        int: st.integers(-(2**40), 2**40),
        float: floats,
        str: names,
    }[tp]


def instances_of(cls):
    """A strategy for instances of serde dataclass ``cls``: every field
    drawn from its declared type (``schema`` keeps its declared id)."""
    kwargs = {
        f.name: values_of(f.type)
        for f in serde.fields(cls).values()
        if f.key != "schema"
    }
    return st.builds(cls, **kwargs)


PRESET_SPECS = (
    [preset_spec(name) for name in preset_names()]
    + [sweep_spec(name) for name in sweep_names()]
    + [service_preset_spec(name) for name in service_preset_names()]
)


def leaf_paths(cls, prefix=""):
    """Every ``--set``-addressable dotted path under spec class ``cls``."""
    for f in serde.fields(cls).values():
        yield prefix + f.key, f.type
        if dataclasses.is_dataclass(f.type):
            yield from leaf_paths(f.type, f"{prefix}{f.key}.")


@st.composite
def edited_presets(draw):
    """A catalog preset after up to three random ``--set`` edits, each
    a path from the field table with a value of that field's type."""
    spec = draw(st.sampled_from(PRESET_SPECS))
    paths = sorted(leaf_paths(type(spec)), key=lambda item: item[0])
    for _ in range(draw(st.integers(0, 3))):
        path, tp = draw(st.sampled_from(paths))
        value = draw(values_of(tp))
        spec = apply_overrides(spec, {path: json.dumps(serde.dump(value))})
    return spec


def assert_round_trips(value, loader):
    """``load(dump(x)) == x`` and ``canonical(dump(load(text))) == text``."""
    data = serde.dump(value)
    assert loader(data) == value
    text = serde.canonical(data)
    reloaded = loader(json.loads(text))
    assert reloaded == value
    assert serde.canonical(serde.dump(reloaded)) == text


class TestGeneratedRoundTrips:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(edited_presets())
    def test_specs(self, spec):
        assert_round_trips(spec, type(spec).from_dict)
        assert type(spec).from_json(spec.to_json()).to_json() == spec.to_json()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(instances_of(ExperimentSpec) | instances_of(SweepSpec) | instances_of(ServiceSpec))
    def test_fully_generated_specs(self, spec):
        assert_round_trips(spec, type(spec).from_dict)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(instances_of(RequestRecord))
    def test_request_record(self, record):
        assert_round_trips(record, RequestRecord.from_dict)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(instances_of(TraceEvent))
    def test_trace_event(self, event):
        assert_round_trips(
            event, lambda data: serde.load(TraceEvent, data, "event", TraceError)
        )

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(instances_of(_Checkpoint) | instances_of(LogHeader) | instances_of(TraceHeader))
    def test_documents_and_headers(self, document):
        cls = type(document)
        assert_round_trips(
            document, lambda data: serde.load(cls, data, "doc", ServiceError)
        )

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(instances_of(ServiceSpec), st.lists(instances_of(RequestRecord), max_size=4))
    def test_request_log_file(self, spec, records):
        records = [dataclasses.replace(r, seq=i) for i, r in enumerate(records)]
        text = dump_request_log(spec, records)
        assert load_request_log(text) == (spec, records)
        assert dump_request_log(*load_request_log(text)) == text

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(instances_of(TraceEvent), max_size=5), st.integers(1, 9) | st.none())
    def test_trace_file(self, events, ring_size):
        collector = TraceCollector(ring_size=ring_size)
        for seq, event in enumerate(events):
            event.seq = seq
            event.category = "swap"
            collector._events.append(event)
        text = collector.to_jsonl()
        assert TraceCollector.from_jsonl(text).to_jsonl() == text

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["counter", "gauge", "histogram"]),
                st.sampled_from(["a", "b"]),
                st.dictionaries(st.sampled_from(["x", "y"]), names, max_size=2),
                st.floats(0, 1e6, allow_nan=False),
            ),
            max_size=8,
        )
    )
    def test_metrics_snapshot(self, updates):
        registry = MetricsRegistry()
        for kind, name, labels, value in updates:
            if kind == "counter":
                registry.counter(f"c_{name}", "C").inc(value, **labels)
            elif kind == "gauge":
                registry.gauge(f"g_{name}", "G").set(value, **labels)
            else:
                registry.histogram(f"h_{name}", "H", (1.0, 10.0)).observe(value, **labels)
        text = registry.to_json()
        again = MetricsRegistry.from_dict(json.loads(text))
        assert again.to_json() == text
        assert again.to_prometheus() == registry.to_prometheus()


# ---------------------------------------------------------------------------
# Generated mutations: one wrong thing at one typed location
# ---------------------------------------------------------------------------

#: One representative value per JSON kind.
KINDS = {
    "null": None, "bool": True, "int": 7, "float": 2.5, "str": "zz",
    "list": [1], "object": {"zz": 1},
}


def accepted_kinds(tp) -> set[str]:
    """The JSON kinds a value of declared type ``tp`` may have."""
    if tp is typing.Any:
        return set(KINDS)
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        return set().union(*(accepted_kinds(arm) for arm in typing.get_args(tp)))
    if tp is type(None):
        return {"null"}
    if dataclasses.is_dataclass(tp) or origin is dict:
        return {"object"}
    if origin is tuple:
        return {"list"}
    return {bool: {"bool"}, int: {"int"}, float: {"int", "float"}, str: {"str"}}[tp]


def locations(tp, data, path, steps=(), rule=None):
    """Walk declared type and JSON data in parallel, yielding every typed
    location as ``(dotted path, steps into the data, declared type, the
    rule of the field it sits in)``; ``Any``-typed content is opaque."""
    yield path, steps, tp, rule
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        for arm in typing.get_args(tp):
            if arm is not type(None) and data is not None:
                for found in locations(arm, data, path, steps, rule):
                    if found[1] != steps:
                        yield found
    elif dataclasses.is_dataclass(tp):
        prefix = f"{path}." if path else ""
        for f in serde.fields(tp).values():
            if f.key in data:
                yield from locations(
                    f.type, data[f.key], prefix + f.key, steps + (f.key,), f.rule
                )
    elif origin is tuple:
        args = typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(data)
        for i, (arm, item) in enumerate(zip(args, data)):
            yield from locations(arm, item, f"{path}[{i}]", steps + (i,), rule)
    elif origin is dict:
        for key, item in data.items():
            yield from locations(
                typing.get_args(tp)[1], item, f"{path}.{key}", steps + (key,), rule
            )


def dataclass_arm(tp):
    """The dataclass ``tp`` is or optionally wraps, else None."""
    arms = typing.get_args(tp) if typing.get_origin(tp) in (typing.Union, types.UnionType) else (tp,)
    found = [arm for arm in arms if dataclasses.is_dataclass(arm)]
    return found[0] if found else None


@st.composite
def mutations(draw, tp, data, root):
    """One mutation of ``data``: ``(mutated data, path it must be blamed on,
    a second string the message must contain)``."""
    found = sorted(locations(tp, data, root), key=lambda item: (item[0], str(item[2])))
    candidates = []
    for path, steps, declared, _rule in found:
        value = data
        for step in steps:
            value = value[step]
        cls = dataclass_arm(declared)
        label = path or cls.__name__  # an unnamed root is labelled by its class
        if (tp, steps) == (_HistogramFamily, ("type",)):
            continue  # the tag picks the record shape; a bad one blames the family
        for kind in sorted(set(KINDS) - accepted_kinds(declared)):
            candidates.append((steps, KINDS[kind], label, "expected"))
        if "float" in accepted_kinds(declared) and declared is not typing.Any:
            candidates.append((steps, NAN, path, "finite"))
            candidates.append((steps, -math.inf, path, "finite"))
        if cls is not None and isinstance(value, dict):
            candidates.append((steps + ("zzz",), 1, label, "unknown keys ['zzz']"))
            for f in dataclasses.fields(cls):
                # Requiredness is restated here, not read from the table
                # under test: every key of a file record, and spec keys
                # without a default.
                no_default = f.default is f.default_factory is dataclasses.MISSING
                key = f.metadata.get("wire", f.name)
                if (cls in FILE_RECORDS or no_default) and key in value:
                    candidates.append((steps + (key,), DROP, label, f"missing keys ['{key}']"))
    steps, value, path, detail = draw(st.sampled_from(candidates))
    mutated = copy.deepcopy(data)
    target = mutated
    for step in steps[:-1]:
        target = target[step]
    if value is DROP:
        del target[steps[-1]]
    elif steps:
        target[steps[-1]] = value
    else:
        mutated = value
    return mutated, path, detail


DROP = object()
#: The ``@serde.exact`` dataclasses: no key of theirs may be omitted.
FILE_RECORDS = {
    RequestRecord, LogHeader, _Checkpoint, TraceEvent, TraceHeader,
    _Snapshot, _Family, _HistogramFamily, _SampleRow, _HistogramRow,
}
RAW_ERRORS = (ValueError, TypeError, AttributeError, KeyError, IndexError)


def assert_rejected(load, error, path, detail):
    try:
        load()
    except error as exc:
        assert type(exc) is error
        assert f"{path}: " in str(exc) and detail in str(exc), str(exc)
    except RAW_ERRORS as exc:  # pragma: no cover - the regression this guards
        pytest.fail(f"raw {type(exc).__name__} escaped the loader: {exc}")
    else:
        pytest.fail(f"mutation at {path} ({detail}) was accepted")


class TestGeneratedMutations:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_specs(self, data):
        spec = data.draw(st.sampled_from(PRESET_SPECS))
        mutated, path, detail = data.draw(mutations(type(spec), spec.to_dict(), ""))
        text = json.dumps(mutated)
        assert_rejected(lambda: type(spec).from_json(text), SpecError, path, detail)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_checkpoint(self, session, data):
        good = json.loads(session["checkpoint"])
        mutated, path, detail = data.draw(mutations(_Checkpoint, good, "checkpoint"))
        document = json.loads(json.dumps(mutated))
        assert_rejected(
            lambda: serde.load(_Checkpoint, document, "checkpoint", ServiceError),
            ServiceError, path, detail,
        )

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_request_log(self, session, data):
        lines = session["log"].splitlines()
        number = data.draw(st.integers(1, len(lines)))
        cls, root = (LogHeader, "header") if number == 1 else (RequestRecord, f"line {number}")
        mutated, path, detail = data.draw(
            mutations(cls, json.loads(lines[number - 1]), root)
        )
        lines[number - 1] = json.dumps(mutated)
        text = "\n".join(lines) + "\n"
        assert_rejected(lambda: load_request_log(text), ServiceError, path, detail)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_trace(self, data):
        lines = trace_text().splitlines()
        number = data.draw(st.integers(1, len(lines)))
        cls, root = (TraceHeader, "header") if number == 1 else (TraceEvent, f"line {number}")
        mutated, path, detail = data.draw(
            mutations(cls, json.loads(lines[number - 1]), root)
        )
        lines[number - 1] = json.dumps(mutated)
        text = "\n".join(lines) + "\n"
        assert_rejected(lambda: TraceCollector.from_jsonl(text), TraceError, path, detail)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_metrics_snapshot(self, data):
        good = snapshot_data()
        index = data.draw(st.integers(-1, len(good["metrics"]) - 1))
        if index < 0:
            mutated, path, detail = data.draw(mutations(_Snapshot, good, "snapshot"))
        else:
            entry = good["metrics"][index]
            cls = _HistogramFamily if entry["type"] == "histogram" else _Family
            entry, path, detail = data.draw(
                mutations(cls, entry, f"snapshot.metrics[{index}]")
            )
            mutated = edit(good, ["metrics", index], entry)
        text = json.dumps(mutated)
        assert_rejected(
            lambda: MetricsRegistry.from_dict(json.loads(text)), MetricsError, path, detail
        )


# ---------------------------------------------------------------------------
# Generated boundary values: every declared rule, just inside and just outside
# ---------------------------------------------------------------------------


#: Every catalog spec as the documents ``validate()`` sees: a nested
#: ``Serializable`` (a service preset's ``world``) is its own document.
DOCUMENTS = PRESET_SPECS + [
    spec.world for spec in PRESET_SPECS if isinstance(spec, ServiceSpec)
]


def is_document(tp) -> bool:
    cls = dataclass_arm(tp)
    return cls is not None and issubclass(cls, serde.Serializable)


def populated(tp, data):
    """``data`` with no spec node left out: an unset ``| None`` spec and
    an empty container of specs get one all-defaults instance, so every
    declared rule has a location whatever the catalog happens to set."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    cls = dataclass_arm(tp)
    if cls is not None:
        data = serde.dump(cls()) if data is None else data
        return {
            f.key: data[f.key] if is_document(f.type) else populated(f.type, data[f.key])
            for f in serde.fields(cls).values()
        }
    if origin is tuple and args[1:] == (Ellipsis,):
        if not data and dataclasses.is_dataclass(args[0]):
            data = [None]
        return [populated(args[0], item) for item in data]
    if origin is dict:
        if not data and dataclasses.is_dataclass(args[1]):
            data = {"x": None}
        return {key: populated(args[1], item) for key, item in data.items()}
    return data


def boundary_values(rule, kinds):
    """``(just inside, just outside)`` a rule, for a leaf accepting the
    JSON ``kinds``: the bound itself and one step beyond it (the next
    float, or the next int), every member and a non-member, ``"x"`` and
    ``""``."""
    if "float" in kinds:
        step = math.nextafter
    else:
        def step(value, towards):
            return value + (1 if towards > value else -1)
    inside, outside = [], []
    if "str" in kinds and rule.choices is not None:
        inside += rule.choices
        outside.append("no-such-member")
    if "str" in kinds and rule.nonempty:
        inside.append("x")
        outside.append("")
    if "int" in kinds and rule.gt is not None:
        inside.append(step(rule.gt, math.inf))
        outside.append(rule.gt)
    if "int" in kinds and rule.ge is not None:
        inside.append(rule.ge)
        outside.append(step(rule.ge, -math.inf))
    if "int" in kinds and rule.le is not None:
        inside.append(rule.le)
        outside.append(step(rule.le, math.inf))
    return inside, outside


def boundary_cases(document):
    """Every ruled leaf of ``document`` (populated) as ``(data, dotted
    path, steps, rule, inside values, outside values)``.  An empty list
    of scalars is probed as its first item."""
    cls = type(document)
    populated_data = populated(cls, document.to_dict())
    nested = tuple(f"{key}." for key, f in serde.fields(cls).items() if is_document(f.type))
    for path, steps, tp, rule in locations(cls, populated_data, ""):
        if rule is None or path.startswith(nested):
            continue
        data, kinds = populated_data, accepted_kinds(tp) - {"null"}
        if kinds == {"list"} and not functools.reduce(operator.getitem, steps, data):
            data = edit(data, steps, [None])
            kinds = accepted_kinds(typing.get_args(tp)[0])
            path, steps = f"{path}[0]", steps + (0,)
        if kinds <= {"int", "float", "str"}:
            yield (data, path, steps, rule, *boundary_values(rule, kinds))


def ruled_fields(cls, seen=None):
    """``{id(rule): "Class.key"}`` over the spec tree under ``cls``."""
    seen = {} if seen is None else seen
    for f in serde.fields(cls).values():
        if f.rule is not None:
            seen[id(f.rule)] = f"{cls.__name__}.{f.key}"
        nested = dataclass_arm(f.type) or next(
            filter(None, map(dataclass_arm, typing.get_args(f.type))), None
        )
        if nested is not None:
            ruled_fields(nested, seen)
    return seen


def build_economy(spec):
    """What licensed deleting ``validate()``'s ``FeeError`` relay: a spec
    that passes ``check`` builds its ``FeePolicy`` and every ``FeeBudget``
    — the fields declare each bound those constructors enforce."""
    dataclasses.replace(spec.fee_market, enabled=True).build()
    traffic = spec.traffic
    for budget in (traffic.fee_budget, traffic.low_budget, traffic.high_budget):
        if budget is not None:
            budget.build()


class TestGeneratedBoundaries:
    """The declared rules, probed from the field table: a new field's
    bound is exercised the day it is declared."""

    def test_just_inside_passes_and_just_outside_names_the_path(self):
        probed = set()
        for document in DOCUMENTS:
            cls = type(document)
            for data, path, steps, rule, inside, outside in boundary_cases(document):
                probed.add(id(rule))
                for value in inside:
                    spec = cls.from_dict(edit(data, steps, value))
                    serde.check(spec)
                    if cls is ExperimentSpec:
                        build_economy(spec)
                for value in outside:
                    spec = cls.from_dict(edit(data, steps, value))
                    with pytest.raises(SpecError) as caught:
                        spec.validate()
                    _, _, said = str(caught.value).partition(f" {spec.name!r}: ")
                    assert said.startswith((f"{path} must ", f"{path}: unknown ")), (
                        f"{path}={value!r}: {caught.value}"
                    )
        declared = {}
        for cls in (ExperimentSpec, ServiceSpec, SweepSpec):
            ruled_fields(cls, declared)
        assert not {name for key, name in declared.items() if key not in probed}

    def test_the_whole_catalog_satisfies_the_unconditional_rules(self):
        """A disabled actor or an unused source knob with a nonsense
        number is still a nonsense spec; no catalog spec — preset,
        service preset, sweep point — has one."""
        points = 0
        for spec in PRESET_SPECS:
            spec.validate()
            if isinstance(spec, SweepSpec):
                points += len(spec.expand().points)
        assert points == 76

    def test_a_nested_document_validates_itself(self):
        """``check`` stops at a nested ``Serializable``: a sweep's base
        need not be valid where an axis overrides it, and a session's
        world reports its own paths."""
        base = apply_overrides(ExperimentSpec(), {"traffic.num_swaps": 0})
        axis = SweepAxis(name="n", path="traffic.num_swaps", values=(1, 2))
        assert len(SweepSpec(base=base, axes=(axis,)).expand().points) == 2
        session = apply_overrides(small_service_spec(), {"world.traffic.amount": 0})
        with pytest.raises(SpecError, match="^invalid spec .*': traffic.amount must be at least 1$"):
            session.validate()

    def test_the_first_violation_in_field_order_is_reported(self):
        spec = apply_overrides(
            ExperimentSpec(),
            {"traffic.rate": 0.0, "chains.funding_chunks": 0, "protocol": "zz", "obs.ring_size": 0},
        )
        with pytest.raises(SpecError, match="': protocol: unknown protocol 'zz'"):
            spec.validate()

    def test_check_reports_through_fail_or_raises(self):
        spec = apply_overrides(ExperimentSpec(), {"traffic.rate": -1.0})
        said = []
        serde.check(spec, fail=said.append)
        assert said == ["traffic.rate must be positive"]
        with pytest.raises(SpecError, match="^world.traffic.rate must be positive$"):
            serde.check(spec, "world")


# ---------------------------------------------------------------------------
# Retired keys: what files written before a removal carry still loads
# ---------------------------------------------------------------------------

#: What every spec echo carried before ``latency`` left the schema.
OLD_LATENCY = {"base": 0.05, "jitter": 0.0}
#: The keys retired before the parent commit of the committed fixtures.
EARLIER = ("latency", "fifo")
#: One catalog document of each root: the experiment, the session, the sweep.
RETIRED_IN = [
    preset_spec("congestion"),
    service_preset_spec("serve-steady"),
    sweep_spec("crash-matrix"),
]
#: ``serve --preset serve-steady --max-swaps 8 --checkpoint`` files
#: written before every retirement but ``latency`` and ``fifo``.
OLD_SESSION = {
    "checkpoint": DATA / "old-serve-steady-max8.ckpt",
    "log": DATA / "old-serve-steady-max8.log",
}
#: sha256 of the same session's files as ``tests/data/golden-artifact-digests.json``
#: pinned them before ``latency`` and ``fifo`` were retired.
PARENT_SESSION_DIGESTS = {
    "checkpoint": "a6ff128865fbe4d6699862b63d3a20e1d608f5e2773678d7f7f7dd3463bc1497",
    "log": "671ba8ca1a31f3f6de3fc3903f4c395de47d7df2950b25ffb78c5bf7fbe4cc68",
}


def records_in(cls, data, path=""):
    """``(dotted path, record class, dict)`` of every record in ``data``,
    a document of ``cls``, outermost first."""
    yield path, cls, data
    prefix = f"{path}." if path else ""
    for f in serde.fields(cls).values():
        nested, inner = serde._nested(f.type), data.get(f.key)
        if nested is None or inner is None:
            continue
        if isinstance(inner, list):
            for index, item in enumerate(inner):
                yield from records_in(nested, item, f"{prefix}{f.key}[{index}]")
        elif typing.get_origin(f.type) is dict:
            for key, item in inner.items():
                yield from records_in(nested, item, f"{prefix}{f.key}.{key}")
        else:
            yield from records_in(nested, inner, prefix + f.key)


def retired_keys(cls) -> dict:
    return getattr(cls, "__serde_retired__", {})


def as_the_parent_wrote(cls, data, skip=(), latency=OLD_LATENCY, **values):
    """``data`` with every retired key but ``skip`` back in each record
    that had it: at ``values[key]``, else its one value (``latency`` had
    none)."""
    data = copy.deepcopy(data)
    values = {"latency": latency, **values}
    for _, record, found in list(records_in(cls, data)):
        for key, (why, only) in retired_keys(record).items():
            if key not in skip:
                found[key] = values[key] if key in values else serde.dump(only[0])
    return data


def retired_case_table() -> dict:
    """``(root class, record class, key) -> (document, dotted path, key,
    why, only)`` for every retired key, at its first place in each
    root's catalog document (so ``world.`` and ``base.`` paths too)."""
    cases = {}
    for spec in RETIRED_IN:
        for path, record, _ in records_in(type(spec), spec.to_dict()):
            for key, (why, only) in retired_keys(record).items():
                dotted = f"{path}.{key}" if path else key
                cases.setdefault((type(spec), record, key), (spec, dotted, key, why, only))
    return cases


def retired_cases() -> list:
    return list(retired_case_table().values())


def another(value):
    """A JSON value other than ``value``, of its kind where there is one."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    return ["x"] if value in ((), []) else 1.0


def case_id(case) -> str:
    return f"{type(case[0]).__name__}:{case[1]}"


def set_retired(spec, dotted: str, value):
    """A ``--set`` pair that hands ``value`` to the retired ``dotted``
    path (through a list, the list's whole new value)."""
    if "[" not in dotted:
        return f"{dotted}={json.dumps(value)}"
    head, _, rest = dotted.partition("[")
    data = as_the_parent_wrote(type(spec), spec.to_dict())
    target = data[head][int(rest.split("]")[0])]
    target[dotted.rsplit(".", 1)[1]] = value
    return f"{head}={json.dumps(data[head])}"


def set_cases() -> list:
    """Every ``--set`` of a retired path: at its one value and at another
    (``latency`` had none: a number and its old record).  Through a list
    only the other, since the list at the one value is an old file."""
    params = []
    for case in retired_cases():
        spec, dotted, key, why, only = case
        if not only:
            values = [5, OLD_LATENCY]
        elif "[" in dotted:
            values = [another(serde.dump(only[0]))]
        else:
            values = [serde.dump(only[0]), another(serde.dump(only[0]))]
        params += [pytest.param(case, v, id=f"{case_id(case)}={json.dumps(v)}") for v in values]
    return params


CLI_OF = {ExperimentSpec: "run", ServiceSpec: "serve", SweepSpec: "sweep"}


class TestRetiredKeys:
    def test_every_retired_key_has_a_case(self):
        declared, pending, seen = set(), [ExperimentSpec, ServiceSpec, SweepSpec], set()
        while pending:
            cls = pending.pop()
            if cls not in seen:
                seen.add(cls)
                declared |= {(cls, key) for key in retired_keys(cls)}
                pending += filter(None, (serde._nested(f.type) for f in serde.fields(cls).values()))
        assert {(record, key) for _, record, key in retired_case_table()} == declared
        assert len(declared) == 18
        # Each root reaches every retired key its schema nests.
        assert {dotted for _, dotted, key, *_ in retired_cases() if key == "fifo"} == {
            "fee_market.fifo",
            "world.fee_market.fifo",
            "base.fee_market.fifo",
        }

    @pytest.mark.parametrize("latency", [OLD_LATENCY, {"base": 5.0, "jitter": 3.0}, None])
    @pytest.mark.parametrize("spec", RETIRED_IN, ids=lambda spec: type(spec).__name__)
    def test_an_old_document_loads_equal_and_dumps_without_them(self, spec, latency):
        old = as_the_parent_wrote(type(spec), spec.to_dict(), latency=latency)
        loaded = type(spec).from_dict(old)
        assert loaded == spec
        assert loaded.to_dict() == spec.to_dict() != old
        assert type(spec).from_json(json.dumps(old)).to_json() == spec.to_json()

    @pytest.mark.parametrize(
        "spec, trim",
        [
            (RETIRED_IN[0], {"traffic.num_swaps": 6}),
            (RETIRED_IN[1], {"duration": 3.0}),
            (RETIRED_IN[2], {}),
        ],
        ids=["run", "serve", "sweep"],
    )
    def test_an_old_spec_file_runs_to_the_bytes_of_a_new_one(self, tmp_path, capsys, spec, trim):
        """A ``--spec`` file carrying all eighteen retired keys at once, at
        the values they still load at, runs through the command to the
        same result bytes as the file without them."""
        new = apply_overrides(spec, trim).to_dict()
        results = {}
        for age, data in (("new", new), ("old", as_the_parent_wrote(type(spec), new))):
            path, result = tmp_path / f"{age}.json", tmp_path / f"{age}.result.json"
            path.write_text(json.dumps(data))
            argv = [CLI_OF[type(spec)], "--spec", str(path), "--json", str(result)]
            assert main(argv) in (0, 1)  # the crash-matrix sweep exits 1 by design
            results[age] = result.read_bytes()
        assert results["old"] == results["new"]

    @pytest.mark.parametrize("case", [c for c in retired_cases() if c[4]], ids=case_id)
    def test_any_other_value_is_refused_naming_path_and_reason(self, case):
        spec, dotted, key, why, only = case
        for bad in (another(serde.dump(only[0])), {"x": 1}):
            old = as_the_parent_wrote(type(spec), spec.to_dict(), **{key: bad})
            text = re.escape(f"{dotted} was retired ({why}): only {serde.canonical(only[0])}")
            with pytest.raises(SpecError, match=f"^{text} still loads, got "):
                type(spec).from_dict(old)

    @pytest.mark.parametrize("bad", [True, 0, None, "false"])
    @pytest.mark.parametrize("case", [c for c in retired_cases() if c[2] == "fifo"], ids=case_id)
    def test_fifo_holds_only_false(self, case, bad):
        spec, dotted, *_ = case
        old = as_the_parent_wrote(type(spec), spec.to_dict(), fifo=bad)
        text = re.escape(dotted)
        with pytest.raises(SpecError, match=f"^{text} was retired .*: only false still loads"):
            type(spec).from_dict(old)

    @pytest.mark.parametrize("case, value", set_cases())
    def test_setting_a_retired_path_exits_2_in_one_line(self, capsys, case, value):
        spec, dotted, key, why, only = case
        command = CLI_OF[type(spec)]
        argv = [command, "--preset", spec.name, "--set", set_retired(spec, dotted, value)]
        if "[" in dotted:
            TestCliSurfaces().assert_one_line(capsys, argv, command, f"{dotted} was retired ({why})")
        else:
            TestCliSurfaces().assert_one_line(
                capsys, argv, command, f"override '{dotted}': field '{key}' was retired: {why}"
            )

    @pytest.mark.parametrize("sub", ["base", "jitter"])
    @pytest.mark.parametrize("case", [c for c in retired_cases() if c[2] == "latency"], ids=case_id)
    def test_a_path_through_a_retired_key_is_refused(self, capsys, case, sub):
        spec, dotted, key, why, _ = case
        command, path = CLI_OF[type(spec)], f"{dotted}.{sub}"
        argv = [command, "--preset", spec.name, "--set", f"{path}=0.1"]
        TestCliSurfaces().assert_one_line(
            capsys, argv, command, f"override '{path}': field 'latency' was retired: {why}"
        )

    @pytest.mark.parametrize("case", retired_cases(), ids=case_id)
    def test_describing_a_retired_path_exits_2_in_one_line(self, capsys, case):
        spec, dotted, key, why, _ = case
        path = re.sub(r"\[\d+\]", "", dotted)
        paths = [path, f"{path}.base", f"{path}.jitter"] if key == "latency" else [path]
        for path in paths:
            with pytest.raises(SpecError, match=re.escape(f"field '{key}' was retired: {why}")):
                serde.describe(type(spec), path)
            TestCliSurfaces().assert_one_line(
                capsys,
                ["describe", CLI_OF[type(spec)], path],
                "describe",
                f"field '{key}' was retired: {why}",
            )

    def test_retirement_belongs_to_the_class_that_had_the_key(self):
        row = {**RequestRecord(0, 0.5, "s", "ac3wn", 1).to_dict(), "latency": OLD_LATENCY}
        with pytest.raises(ServiceError, match=r"unknown keys \['latency'\]"):
            RequestRecord.from_dict(row)
        for path in (["chains", "fifo"], ["traffic", "latency"], ["fee_market", "count"]):
            data = edit(ExperimentSpec().to_dict(), path, False)
            with pytest.raises(SpecError, match=rf"^{path[0]}: unknown keys \['{path[1]}'\]"):
                ExperimentSpec.from_dict(data)

    def test_no_schema_reader_knows_a_retired_key(self):
        for (_, record, key), (spec, dotted, *_) in retired_case_table().items():
            assert key not in serde.fields(record)
            old = as_the_parent_wrote(type(spec), spec.to_dict())
            assert dotted not in {where for where, *_ in locations(type(spec), old, "")}
        for typo in ("latencey", "fee_market.fifi"):
            with pytest.raises(SpecError, match="unknown field") as caught:
                apply_overrides(ExperimentSpec(), {typo: 1})
            assert "'latency'" not in str(caught.value) and "'fifo'" not in str(caught.value)

    def test_the_parents_session_files_restore_and_replay_to_our_bytes(self):
        service = SwapService(service_preset_spec("serve-steady"))
        service.serve(max_swaps=8)
        ours = {"checkpoint": service.checkpoint(), "log": service.request_log()}
        old = {name: path.read_text(encoding="utf-8") for name, path in OLD_SESSION.items()}

        def parents(text, *skip):
            """Our session file as a parent would have written it."""
            header, *rows = text.splitlines()
            data = json.loads(header)
            data["spec"] = as_the_parent_wrote(ServiceSpec, data["spec"], skip)
            return "\n".join([serde.canonical(data)] + rows) + "\n"

        # Putting the retired keys back is all it takes to get the
        # parents' bytes: only the spec echo moved.
        for name in ours:
            assert parents(ours[name], *EARLIER) == old[name], name
            assert _sha(parents(ours[name])) == PARENT_SESSION_DIGESTS[name], name
        restored = SwapService.restore(str(OLD_SESSION["checkpoint"]))
        assert restored.request_log() == ours["log"]
        assert restored.checkpoint() == service.checkpoint()
        service.close()
        restored.serve()
        restored.drain()
        uninterrupted = SwapService(service_preset_spec("serve-steady"))
        assert restored.result().to_json() == uninterrupted.run().to_json()
        assert restored.request_log() == uninterrupted.request_log()
        replayed = SwapService.replay(*load_request_log(old["log"]))
        assert replayed.to_json() == SwapService.replay(*load_request_log(ours["log"])).to_json()
        assert '"sample_window"' not in restored.request_log() + replayed.to_json()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Docs are output: every schema tree in docs/ is a pinned `repro describe`
# ---------------------------------------------------------------------------

DOCS = Path(__file__).parent.parent / "docs"
DESCRIBED = {"run": ExperimentSpec, "serve": ServiceSpec, "sweep": SweepSpec}
BLOCK = re.compile(r"^```text repro describe (\w+) ?(\S*)\n(.*?)^```$", re.M | re.S)


class TestDocsAreOutput:
    """A fenced block opened ````` ```text repro describe run obs ````` holds
    that command's output.  The committed blocks are the golden for the
    type, default, rule and doc of every field; regenerate one by
    pasting the command's output."""

    def blocks(self):
        for page in sorted(DOCS.glob("*.md")):
            for match in BLOCK.finditer(page.read_text(encoding="utf-8")):
                yield page.name, match.group(1), match.group(2), match.group(3)

    def test_every_schema_page_holds_its_block(self):
        assert [block[:3] for block in self.blocks()] == [
            ("adversary.md", "run", "adversary"),
            ("experiments.md", "run", ""),
            ("observability.md", "run", "obs"),
            ("observability.md", "run", "obs.metrics"),
            ("service.md", "serve", ""),
            ("sweeps.md", "sweep", ""),
        ]

    def test_no_block_has_drifted_from_the_declarations(self):
        for page, command, path, committed in self.blocks():
            current = serde.describe(DESCRIBED[command], path) + "\n"
            diff = "".join(
                difflib.unified_diff(
                    committed.splitlines(True),
                    current.splitlines(True),
                    f"docs/{page} (committed)",
                    f"repro describe {command} {path}".rstrip(),
                )
            )
            assert not diff, f"docs/{page} is stale; paste the command's output:\n{diff}"


# ---------------------------------------------------------------------------
# Structure: the duplicated idioms stay deleted
# ---------------------------------------------------------------------------


class TestOneSerde:
    def occurrences(self, needle: str) -> dict[str, int]:
        found = {}
        for path in sorted(SRC.rglob("*.py")):
            count = path.read_text(encoding="utf-8").count(needle)
            if count:
                found[str(path.relative_to(SRC))] = count
        return found

    def test_json_decode_errors_are_translated_in_one_place(self):
        assert self.occurrences("JSONDecodeError") == {
            "experiment/spec.py": 1,  # _parse_override_value's bare-string fallback
            "serde.py": 1,
        }
        spec_source = (SRC / "experiment" / "spec.py").read_text(encoding="utf-8")
        fallback = spec_source[spec_source.index("def _parse_override_value") :]
        assert "JSONDecodeError" in fallback[: fallback.index("\n\n\n")]

    @pytest.mark.parametrize("needle", ["missing keys", "separators="])
    def test_key_set_check_and_canonical_form_live_in_serde(self, needle):
        assert list(self.occurrences(needle)) == ["serde.py"]

    @pytest.mark.parametrize(
        "name",
        [
            "spec_from_dict", "spec_to_dict", "_coerce", "_HEADER_KEYS", "_RECORD_KEYS",
            "_EVENT_KEYS", "_CKPT_KEYS", "_SNAPSHOT_KEYS", "_FAMILY_KEYS", "compute_metrics",
        ],
    )
    def test_replaced_names_are_gone(self, name):
        assert self.occurrences(name) == {}

    def test_serde_is_an_import_leaf(self):
        source = (SRC / "serde.py").read_text(encoding="utf-8")
        imports = re.findall(r"^(?:from|import) (\S+)", source, flags=re.M)
        assert [name for name in imports if name.startswith(".")] == [".errors"]
