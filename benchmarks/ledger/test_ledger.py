"""Tier-1 checks on the benchmark itself (smoke sizes, well under 30 s).

The benchmark is the instrument every later performance claim is read
off, so it gets the tests an instrument needs: its output matches what
``BENCHMARK.json`` declares, its span arithmetic is right, its verdicts
are the guide's, and its unrolled finite-run driver is still
``run_experiment`` step for step.
"""

import contextlib
import json
import os
import re

import compare
import run
import tracing
import worker
import workloads
from repro.experiment import run_experiment

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def test_benchmark_json_declares_what_run_py_emits():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == workloads.WORKLOADS
    assert all(len(why) <= 200 and "\n" not in why for why in declared.values())
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == run.END_TO_END and len(end_to_end) <= 16
    assert per_layer == run.PER_LAYER and len(per_layer) <= 128
    names = [*declared, *end_to_end, *per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(m["better"] in ("lower", "higher") for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_smoke_ledger_has_every_declared_metric(tmp_path, capsys):
    out = tmp_path / "ledger.json"
    assert run.main(["--smoke", "--seconds", "0", "--out", str(out)]) == 0
    ledger = json.loads(out.read_text())
    assert set(ledger["workloads"]) == set(workloads.WORKLOADS)
    for name, entry in ledger["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 1, name
        assert set(entry["end_to_end"]) == set(run.END_TO_END), name
        assert set(entry["per_layer"]) == set(run.PER_LAYER), name
        for metric, value in entry["end_to_end"].items():
            assert value["value"] > 0 and value["unit"] == run.END_TO_END[metric]
        for guard in compare.GUARDS[:2]:
            assert entry["per_layer"][guard]["value"] > 0, (name, guard)
    sweep = ledger["workloads"]["sweep_congestion"]["per_layer"]
    assert sweep["store.appends"]["value"] == 2
    assert 0 < sweep["sweeps.parallel_efficiency"]["value"] <= 1.05
    restore = ledger["workloads"]["service_restore"]["per_layer"]
    assert restore["span.restore.self_s"]["value"] > 0
    # A ledger compared with itself: nothing regressed, nothing moved.
    assert compare.main([str(out), str(out)]) == 0
    printed = capsys.readouterr().out
    assert "0 regressed, 0 unresolved" in printed


def test_contract_line_shape(tmp_path, capsys):
    assert run.main(
        ["--smoke", "--workload", "engine_mixed", "--seed", "3", "--seconds", "0", "--trace", "0"]
    ) == 0
    result = json.loads(capsys.readouterr().out.rstrip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == workloads.SMOKE.engine_swaps
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_span_self_time_arithmetic():
    spans = [
        {"id": 0, "parent": None, "name": "run", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "serve", "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "name": "drain", "start": 3.0, "end": 6.0},  # overlaps serve
        {"id": 3, "parent": 2, "name": "result", "start": 5.0, "end": 5.5},
        {"id": 4, "parent": 0, "name": "serve", "start": 8.0, "end": 9.0},  # same name again
    ]
    own = tracing.self_times(spans)
    assert own == {"run": 10.0 - 5.0 - 1.0, "serve": 3.0 + 1.0, "drain": 2.5, "result": 0.5}
    recorder = tracing.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert (outer["parent"], inner["parent"]) == (None, outer["id"])
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_layer_of_buckets_on_package_prefix():
    assert tracing.layer_of("/x/src/repro/crypto/ecdsa.py") == "crypto"
    assert tracing.layer_of("/x/src/repro/cli.py") == "other"
    assert tracing.layer_of("/x/src/repro/analysis/cost.py") == "other"
    assert tracing.layer_of("~") == "other"


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.judge(steady, [10.0, 10.05, 9.95, 10.0], "higher", 0.1)[0] == "unchanged"
    assert compare.judge(steady, [8.0, 8.1, 7.9, 8.0], "higher", 0.1)[0] == "regressed"
    assert compare.judge(steady, [12.0, 12.1, 11.9, 12.0], "higher", 0.1)[0] == "improved"
    assert compare.judge(steady, [8.0, 8.1, 7.9, 8.0], "lower", 0.1)[0] == "improved"
    noisy = [10.0, 13.0, 8.0, 11.0]
    assert compare.judge(noisy, [9.0, 12.0, 8.5, 10.0], "higher", 0.1)[0] == "unresolved"


def test_mirrored_finite_run_driver_is_run_experiment():
    spec = workloads.engine_spec(seed=1, sizes=workloads.SMOKE)
    expected = run_experiment(spec).to_dict()
    recorder = tracing.SpanRecorder()
    _, text = worker.drive_experiment(spec, recorder, contextlib.nullcontext())
    mirrored = json.loads(text)
    assert mirrored["metrics"] == expected["metrics"]
    assert mirrored["outcomes"] == expected["outcomes"]
    assert mirrored == json.loads(json.dumps(expected))
    assert [s["name"] for s in recorder.spans if s["parent"] is None] == ["setup", "run"]
