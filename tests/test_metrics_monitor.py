"""Live metrics registry and invariant monitor (PR 9).

The contract under test:

* **Prometheus exposition** — the text format is pinned golden-style:
  HELP/TYPE headers, label rendering, cumulative histogram buckets
  with the ``+Inf`` rail, ``_sum``/``_count``.
* **Strict serde** — JSON snapshot round-trips byte-exactly and rejects
  unknown keys / wrong schema ids.
* **Determinism** — bucket layout is fixed at registration, snapshots
  are pure functions of the spec, and sweep artifacts (including
  ``reports.metrics``) are byte-identical across worker counts.
* **Monitor semantics** — rules fire in event order, atomicity alerts
  cover both direct non-atomic outcomes and audit-time rewrites,
  clean presets fire nothing, and alerts land in all three places at
  once (``reports.alerts``, the trace, optionally stderr).
* **Disabled mode** — with metrics/monitor off the artifact carries no
  ``reports.metrics``/``reports.alerts`` keys and run metrics stay
  byte-identical to the pinned goldens.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import MetricsError
from repro.experiment import (
    ExperimentSpec,
    apply_overrides,
    preset_spec,
    run_experiment,
)
from repro.obs import (
    AtomicityRule,
    InvariantMonitor,
    MempoolSaturationRule,
    MetricsRegistry,
    ReorgDepthRule,
    TraceCollector,
    alerts_from_events,
)
from repro.sim import Simulator
from repro.sweeps import SweepRunner, sweep_spec

GOLDEN_DIR = Path(__file__).parent / "data"


def metrics_spec(preset: str, **extra) -> ExperimentSpec:
    overrides = {"obs.metrics.enabled": True, "obs.monitor.enabled": True}
    overrides.update(extra)
    return apply_overrides(preset_spec(preset), overrides)


@pytest.fixture(scope="module")
def security_attacked():
    """The acceptance-criteria run: security preset, reorg armed.

    ``obs.enabled`` rides along (the acceptance command passes
    ``--trace``) so alert events can be checked in the retained trace.
    """
    return run_experiment(
        metrics_spec(
            "security",
            **{"adversary.reorg.enabled": True, "obs.enabled": True},
        )
    )


@pytest.fixture(scope="module")
def nolan_shallow():
    """Shallow-depth Nolan under a winning reorg attacker."""
    return run_experiment(
        metrics_spec(
            "security",
            protocol="nolan",
            **{"chains.confirmation_depth": 1, "obs.enabled": True},
        )
    )


# ---------------------------------------------------------------------------
# Registry: families, labels, buckets
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "X")
        c.inc(kind="a")
        c.inc(kind="a", amount=2.0)
        c.inc(kind="b")
        assert dict(c.samples()) == {(("kind", "a"),): 3.0, (("kind", "b"),): 1.0}

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.counter("x_total", "X").inc(amount=-1.0)

    def test_reregistration_is_idempotent_but_signature_checked(self):
        reg = MetricsRegistry()
        first = reg.counter("x_total", "X")
        assert reg.counter("x_total", "X") is first
        with pytest.raises(MetricsError):
            reg.gauge("x_total", "X")

    def test_histogram_buckets_fixed_and_strictly_increasing(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.histogram("h", "H", buckets=())
        with pytest.raises(MetricsError):
            reg.histogram("h2", "H", buckets=(1.0, 1.0))

    def test_histogram_cumulative_counts(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", "H", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        (family,) = reg.families()
        ((_, sample),) = tuple(family.samples())
        assert sample.bucket_counts == [1, 2]
        assert sample.count == 3
        assert sample.sum == 55.5


# ---------------------------------------------------------------------------
# Prometheus exposition: golden text pin
# ---------------------------------------------------------------------------

PROMETHEUS_GOLDEN = """\
# HELP repro_swap_latency_seconds Swap completion latency
# TYPE repro_swap_latency_seconds histogram
repro_swap_latency_seconds_bucket{le="1"} 1
repro_swap_latency_seconds_bucket{le="5"} 1
repro_swap_latency_seconds_bucket{le="10"} 2
repro_swap_latency_seconds_bucket{le="+Inf"} 3
repro_swap_latency_seconds_sum 48.5
repro_swap_latency_seconds_count 3
# HELP repro_swaps_in_flight Swaps currently in flight
# TYPE repro_swaps_in_flight gauge
repro_swaps_in_flight 2
# HELP repro_swaps_launched_total Swaps launched by protocol
# TYPE repro_swaps_launched_total counter
repro_swaps_launched_total{protocol="ac3wn"} 2
repro_swaps_launched_total{protocol="nolan"} 1
"""


def golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    c = reg.counter("repro_swaps_launched_total", "Swaps launched by protocol")
    c.inc(protocol="ac3wn")
    c.inc(protocol="nolan")
    c.inc(protocol="ac3wn")
    reg.gauge("repro_swaps_in_flight", "Swaps currently in flight").set(2.0)
    h = reg.histogram(
        "repro_swap_latency_seconds",
        "Swap completion latency",
        buckets=(1.0, 5.0, 10.0),
    )
    for v in (0.5, 6.0, 42.0):
        h.observe(v)
    return reg


class TestPrometheusExposition:
    def test_exposition_matches_golden_text(self):
        assert golden_registry().to_prometheus() == PROMETHEUS_GOLDEN

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "X").inc(kind='we"ird\\thing')
        text = reg.to_prometheus()
        assert 'kind="we\\"ird\\\\thing"' in text

    def test_scalar_items_flatten_every_family(self):
        items = dict(golden_registry().scalar_items())
        assert items['repro_swaps_launched_total{protocol="ac3wn"}'] == 2.0
        assert items["repro_swaps_in_flight"] == 2.0
        # Histograms flatten to their _sum/_count rails only.
        assert items["repro_swap_latency_seconds_sum"] == 48.5
        assert items["repro_swap_latency_seconds_count"] == 3.0


# ---------------------------------------------------------------------------
# JSON snapshot: strict serde
# ---------------------------------------------------------------------------


class TestSnapshotSerde:
    def test_round_trip_is_byte_identical(self):
        reg = golden_registry()
        text = reg.to_json()
        again = MetricsRegistry.from_dict(json.loads(text))
        assert again.to_json() == text
        assert again.to_prometheus() == reg.to_prometheus()

    def test_unknown_top_level_key_rejected(self):
        blob = json.loads(golden_registry().to_json())
        blob["extra"] = 1
        with pytest.raises(MetricsError):
            MetricsRegistry.from_dict(blob)

    def test_wrong_schema_rejected(self):
        blob = json.loads(golden_registry().to_json())
        blob["schema"] = "repro-metrics/999"
        with pytest.raises(MetricsError):
            MetricsRegistry.from_dict(blob)

    def test_unknown_family_key_rejected(self):
        blob = json.loads(golden_registry().to_json())
        blob["metrics"][0]["surprise"] = True
        with pytest.raises(MetricsError):
            MetricsRegistry.from_dict(blob)


# ---------------------------------------------------------------------------
# Monitor: rule firing order and the three delivery paths
# ---------------------------------------------------------------------------


def _collector() -> TraceCollector:
    collector = TraceCollector()
    collector.bind(Simulator(seed=0))
    return collector


class TestMonitorOrdering:
    def test_alerts_follow_event_order(self):
        collector = _collector()
        monitor = InvariantMonitor(
            collector, rules=[AtomicityRule(), ReorgDepthRule(2)]
        )
        collector.add_sink(monitor.observe)
        collector.emit("chain", "reorg", chain_id="c0", abandoned=3)
        collector.emit("swap", "outcome", swap_id=1, atomic=False, decision="commit")
        collector.emit("chain", "reorg", chain_id="c1", abandoned=1)  # below policy
        assert [a.rule for a in monitor.alerts] == ["reorg_depth", "atomicity"]
        assert [a.index for a in monitor.alerts] == [0, 1]

    def test_rule_order_within_one_event_follows_rules_list(self):
        collector = _collector()
        # One event that trips both rules: a non-atomic outcome is not
        # possible for reorg_depth, so use two monitors to cross-check
        # the deterministic rules-list ordering instead.
        monitor = InvariantMonitor(
            collector, rules=[ReorgDepthRule(1), MempoolSaturationRule(1)]
        )
        collector.add_sink(monitor.observe)
        collector.emit("mempool", "submit", chain_id="c0", pending=5)
        collector.emit("chain", "reorg", chain_id="c0", abandoned=2)
        assert [a.rule for a in monitor.alerts] == [
            "mempool_saturation",
            "reorg_depth",
        ]

    def test_alert_events_land_after_their_trigger_in_the_trace(self):
        collector = _collector()
        monitor = InvariantMonitor(collector, rules=[AtomicityRule()])
        collector.add_sink(monitor.observe)
        collector.emit("swap", "outcome", swap_id=3, atomic=False, decision="abort")
        kinds = [(e.category, e.kind) for e in collector.events()]
        assert kinds == [("swap", "outcome"), ("alert", "atomicity")]
        # And the serialized trace stays strictly valid.
        rebuilt = TraceCollector.from_jsonl(collector.to_jsonl())
        assert rebuilt.to_jsonl() == collector.to_jsonl()

    def test_monitor_never_recurses_on_alert_events(self):
        collector = _collector()
        monitor = InvariantMonitor(collector, rules=[AtomicityRule()])
        collector.add_sink(monitor.observe)
        collector.emit("swap", "outcome", swap_id=1, atomic=False, decision="x")
        collector.emit("swap", "outcome", swap_id=2, atomic=False, decision="x")
        assert len(monitor.alerts) == 2

    def test_stderr_stream_receives_rendered_lines(self):
        lines: list[str] = []
        collector = _collector()
        monitor = InvariantMonitor(
            collector, rules=[AtomicityRule()], stream=lines.append
        )
        collector.add_sink(monitor.observe)
        collector.emit("swap", "outcome", swap_id=7, atomic=False, decision="commit")
        assert len(lines) == 1
        assert "[atomicity/critical]" in lines[0] and "swap=7" in lines[0]

    def test_saturation_hysteresis_rearms_on_drain(self):
        collector = _collector()
        monitor = InvariantMonitor(collector, rules=[MempoolSaturationRule(3)])
        collector.add_sink(monitor.observe)
        collector.emit("mempool", "submit", chain_id="c0", pending=3)
        collector.emit("mempool", "submit", chain_id="c0", pending=4)  # still saturated
        collector.emit("mempool", "evict", chain_id="c0", pending=1)  # drains
        collector.emit("mempool", "submit", chain_id="c0", pending=3)  # re-fires
        assert [a.rule for a in monitor.alerts] == [
            "mempool_saturation",
            "mempool_saturation",
        ]


# ---------------------------------------------------------------------------
# End-to-end: alerts in the artifact, the trace, and the registry
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_clean_preset_fires_no_alerts(self):
        result = run_experiment(metrics_spec("engine-smoke"))
        assert result.alerts == []
        report = json.loads(result.to_json())["reports"]
        assert report["alerts"] == []
        assert any(
            f["name"] == "repro_swaps_launched_total"
            for f in report["metrics"]["metrics"]
        )

    def test_acceptance_run_alerts_in_reports_and_trace(self, security_attacked):
        result = security_attacked
        rules = {a.rule for a in result.alerts}
        assert "reorg_depth" in rules  # the hostile fork was observed
        artifact = json.loads(result.to_json())
        report_rules = [a["rule"] for a in artifact["reports"]["alerts"]]
        assert report_rules == [a.rule for a in result.alerts]
        trace_alerts = [
            e for e in result.trace_collector.events() if e.category == "alert"
        ]
        assert [e.kind for e in trace_alerts] == report_rules
        # The registry counted the same firings.
        items = dict(result.metrics_registry.scalar_items())
        assert items['repro_alerts_total{rule="reorg_depth"}'] == float(
            report_rules.count("reorg_depth")
        )

    def test_shallow_nolan_fires_atomicity_alert(self, nolan_shallow):
        result = nolan_shallow
        violations = result.metrics.atomicity_violations
        assert violations >= 1
        atomicity = [a for a in result.alerts if a.rule == "atomicity"]
        assert len(atomicity) == violations
        assert all(a.severity == "critical" for a in atomicity)
        # Audit-time rewrites surface as swap/violation trace events.
        kinds = {
            (e.category, e.kind) for e in result.trace_collector.events()
        }
        assert ("swap", "violation") in kinds
        items = dict(result.metrics_registry.scalar_items())
        assert items["repro_atomicity_violations_total"] == float(violations)

    def test_snapshot_deterministic_across_runs(self):
        spec = metrics_spec("security", **{"adversary.reorg.enabled": True})
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.metrics_registry.to_json() == b.metrics_registry.to_json()
        assert [x.to_dict() for x in a.alerts] == [x.to_dict() for x in b.alerts]

    def test_alerts_recoverable_from_trace(self, security_attacked):
        rebuilt = TraceCollector.from_jsonl(
            security_attacked.trace_collector.to_jsonl()
        )
        alerts = alerts_from_events(rebuilt.events())
        assert [a.rule for a in alerts] == [
            a.rule for a in security_attacked.alerts
        ]
        assert [a.message for a in alerts] == [
            a.message for a in security_attacked.alerts
        ]


# ---------------------------------------------------------------------------
# Disabled mode: byte identity
# ---------------------------------------------------------------------------


class TestDisabledMode:
    @pytest.mark.parametrize("preset", ["engine-smoke", "congestion", "security"])
    def test_disabled_artifacts_match_goldens(self, preset):
        spec = preset_spec(preset)
        assert spec.obs.metrics.enabled is False
        assert spec.obs.monitor.enabled is False
        result = run_experiment(spec)
        assert result.metrics_registry is None
        assert result.alerts is None
        reports = json.loads(result.to_json())["reports"]
        assert "metrics" not in reports and "alerts" not in reports
        got = {
            "metrics": asdict(result.metrics),
            "by_protocol": {
                name: asdict(pm) for name, pm in result.by_protocol.items()
            },
        }
        want = json.loads(
            (GOLDEN_DIR / f"golden-{preset}-metrics.json").read_text()
        )
        assert json.loads(json.dumps(got)) == want

    def test_metrics_only_run_changes_no_outcome(self):
        base = run_experiment(preset_spec("security"))
        armed = run_experiment(metrics_spec("security"))
        assert asdict(base.metrics) == asdict(armed.metrics)
        # Metrics-only runs keep --trace semantics: no retained trace.
        assert armed.trace_collector is None


# ---------------------------------------------------------------------------
# Sweeps: worker-count determinism and store metric rows
# ---------------------------------------------------------------------------


def _metrics_sweep():
    spec = sweep_spec("security-smoke")
    return apply_overrides(
        spec,
        {
            "base.obs.metrics.enabled": True,
            "base.obs.monitor.enabled": True,
        },
    )


class TestSweepIntegration:
    def test_histogram_buckets_identical_across_worker_counts(self):
        """The full artifact — including every reports.metrics histogram
        — is byte-identical whatever the worker count."""
        serial = SweepRunner(_metrics_sweep(), workers=1).run()
        parallel = SweepRunner(_metrics_sweep(), workers=2).run()
        assert serial.to_json() == parallel.to_json()
        snapshots = [
            point.artifact["reports"]["metrics"] for point in serial.points
        ]
        for got, want in zip(
            snapshots,
            (point.artifact["reports"]["metrics"] for point in parallel.points),
        ):
            assert got == want
        # Bucket layout comes from the spec, not the data: every point
        # shares the same latency rails.
        layouts = {
            tuple(f["buckets"])
            for snap in snapshots
            for f in snap["metrics"]
            if f["type"] == "histogram"
        }
        assert len(layouts) >= 1

    def test_store_indexes_registry_snapshot_rows(self, tmp_path):
        db = tmp_path / "camp.db"
        SweepRunner(_metrics_sweep(), workers=1, store=str(db)).run()
        from repro.store import CampaignStore

        with CampaignStore(str(db)) as store:
            rows = store.conn.execute(
                "SELECT DISTINCT name FROM metrics WHERE name LIKE 'repro_%'"
            ).fetchall()
            names = {row["name"] for row in rows}
            assert "repro_atomicity_violations_total" in names
            assert any(name.startswith("repro_swap_outcomes_total") for name in names)
            # The pinned row_json contract never widens.
            row_json = store.conn.execute(
                "SELECT row_json FROM points WHERE status = 'ok' LIMIT 1"
            ).fetchone()["row_json"]
            assert not any(k.startswith("repro_") for k in json.loads(row_json))

    def test_progress_heartbeats_cover_every_point(self):
        beats: list[dict] = []
        SweepRunner(
            _metrics_sweep(),
            workers=1,
            on_progress=lambda point, beat: beats.append(beat),
        ).run()
        assert len(beats) == 8
        assert [b["completed"] for b in beats] == list(range(1, 9))
        assert all(b["total"] == 8 for b in beats)
        assert all(b["wall"] is not None and b["pid"] is not None for b in beats)
        assert beats[-1]["running"] == 0


# ---------------------------------------------------------------------------
# CLI: --metrics, repro alerts, --series annotations
# ---------------------------------------------------------------------------


class TestCli:
    def test_run_metrics_prom_and_alerts_explorer(self, tmp_path, capsys):
        prom = tmp_path / "out.prom"
        trace = tmp_path / "t.jsonl"
        status = main(
            [
                "run",
                "--preset",
                "security",
                "--set",
                "adversary.reorg.enabled=true",
                "--metrics",
                str(prom),
                "--trace",
                str(trace),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "monitor:" in out and "alert(s)" in out
        text = prom.read_text()
        assert "# TYPE repro_swaps_launched_total counter" in text
        assert 'repro_alerts_total{rule="reorg_depth"}' in text
        status = main(["alerts", str(trace)])
        assert status == 0
        alerts_out = capsys.readouterr().out
        assert "[reorg_depth/warning]" in alerts_out
        assert "alert(s):" in alerts_out

    def test_run_metrics_json_snapshot_round_trips(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert (
            main(["run", "--preset", "engine-smoke", "--metrics", str(path)])
            == 0
        )
        reg = MetricsRegistry.from_dict(json.loads(path.read_text()))
        # The family set is spec-shaped: the alert counter is present
        # even on a clean run, just with no fired label sets.
        names = [f.name for f in reg.families()]
        assert "repro_alerts_total" in names
        assert not any(
            key.startswith("repro_alerts_total{")
            for key, _ in reg.scalar_items()
        )

    def test_alerts_on_clean_trace_says_none(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert (
            main(
                [
                    "run",
                    "--preset",
                    "engine-smoke",
                    "--metrics",
                    "-",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["alerts", str(trace)]) == 0
        assert "no alerts recorded" in capsys.readouterr().out

    def test_series_csv_gains_alert_columns(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        series = tmp_path / "series.csv"
        assert (
            main(
                [
                    "run",
                    "--preset",
                    "security",
                    "--set",
                    "adversary.reorg.enabled=true",
                    "--set",
                    "obs.sample_interval=1.0",
                    "--metrics",
                    "-",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace", str(trace), "--series", str(series)]) == 0
        header, *rows = series.read_text().splitlines()
        assert "alerts" in header.split(",")
        assert "alert_rules" in header.split(",")
        annotated = [r for r in rows if "reorg_depth" in r]
        assert annotated, "no sample window carries the fired alerts"

    def test_series_csv_without_monitor_keeps_columns(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        series = tmp_path / "series.csv"
        assert (
            main(
                [
                    "run",
                    "--preset",
                    "engine-smoke",
                    "--set",
                    "obs.sample_interval=1.0",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace", str(trace), "--series", str(series)]) == 0
        header = series.read_text().splitlines()[0].split(",")
        assert "alerts" not in header and "alert_rules" not in header
