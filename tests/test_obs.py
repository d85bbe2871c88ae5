"""The flight recorder: collector, emit sites, spans, sampler, explorer.

The contract under test, in order of importance:

* **Zero cost when disabled** — running a preset with ``obs`` off
  produces metrics byte-identical to the pinned goldens, and running
  *with* tracing on changes nothing observable either (the recorder is
  a pure read-side tap).
* **Strict serde** — ``to_jsonl`` → ``from_jsonl`` → ``to_jsonl`` is
  byte-identical; malformed traces are rejected with TraceError.
* **Determinism** — the same seed produces the same trace, byte for
  byte.
* **Spans** — ``SwapTimeline`` folds the flat stream back into phase
  spans for committed, priced-out, and attacked swaps.
* The satellite surfaces: the time-series sampler, the event-queue
  stats behind ``--profile``, the per-run cache report, and the
  ``run --trace`` / ``trace`` CLI round trip.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import TraceError
from repro.experiment import (
    ExperimentSpec,
    apply_overrides,
    preset_spec,
    run_experiment,
)
from repro.experiment.spec import ChainsSpec, ObsSpec, TrafficSpec
from repro.obs import (
    CATEGORIES,
    SwapTimeline,
    TimeSeriesSampler,
    TraceCollector,
    category_histogram,
    series_csv,
    swap_ids,
)
from repro.sim import Simulator

GOLDEN_DIR = Path(__file__).parent / "data"


def traced_spec(preset: str, **obs_overrides) -> ExperimentSpec:
    overrides = {"obs.enabled": True}
    overrides.update({f"obs.{k}": v for k, v in obs_overrides.items()})
    return apply_overrides(preset_spec(preset), overrides)


@pytest.fixture(scope="module")
def security_traced():
    """One traced security run, shared by the span/explorer tests."""
    return run_experiment(traced_spec("security", sample_interval=1.0))


@pytest.fixture(scope="module")
def congestion_traced():
    return run_experiment(traced_spec("congestion"))


@pytest.fixture(scope="module")
def attacked_traced():
    """A depth-1 Nolan run where the reorg attacker wins and exploits."""
    from repro.adversary import AdversarySpec, ReorgAttackSpec

    spec = ExperimentSpec(
        name="attack-trace",
        seed=7,
        protocol="nolan",
        chains=ChainsSpec(ids=("chain-0", "chain-1"), confirmation_depth=1),
        traffic=TrafficSpec(generator="poisson", num_swaps=12, rate=4.0),
        adversary=AdversarySpec(
            reorg=ReorgAttackSpec(
                enabled=True,
                hashpower=2.0,
                value_at_risk=175_000.0,
                hourly_cost=300_000.0,
                blocks_per_hour=6.0,
            )
        ),
        obs=ObsSpec(enabled=True),
    )
    return run_experiment(spec)


# ---------------------------------------------------------------------------
# Zero cost when disabled
# ---------------------------------------------------------------------------


class TestDisabledByteIdentity:
    """With ``obs`` off, nothing in the instrumented stack may change."""

    @pytest.mark.parametrize("preset", ["engine-smoke", "congestion", "security"])
    def test_disabled_matches_goldens(self, preset):
        spec = preset_spec(preset)
        assert spec.obs.enabled is False
        result = run_experiment(spec)
        assert result.trace_collector is None
        got = {
            "metrics": asdict(result.metrics),
            "by_protocol": {
                name: asdict(pm) for name, pm in result.by_protocol.items()
            },
        }
        want = json.loads((GOLDEN_DIR / f"golden-{preset}-metrics.json").read_text())
        assert json.loads(json.dumps(got)) == want

    def test_tracing_is_a_pure_tap(self):
        """Arming the recorder changes no outcome, latency, or fee."""
        base = run_experiment(preset_spec("security"))
        traced = run_experiment(traced_spec("security", sample_interval=1.0))
        assert asdict(base.metrics) == asdict(traced.metrics)
        assert base.trace() == traced.trace()

    def test_no_collector_attribute_leaks(self):
        """Untraced runs never attach a collector anywhere."""
        result = run_experiment(preset_spec("security"))
        assert all(pool.collector is None for pool in result.env.mempools.values())
        engine_refs = [r.driver for r in result.engine_result.requests if r.driver]
        assert all(d.collector is None for d in engine_refs)


# ---------------------------------------------------------------------------
# Collector mechanics
# ---------------------------------------------------------------------------


class TestTraceCollector:
    def test_emit_records_in_order(self):
        collector = TraceCollector()
        sim = Simulator()
        collector.bind(sim)
        collector.emit("swap", "launch", swap_id=1)
        sim.now = 3.5
        collector.emit("chain", "block", chain_id="c0", height=2)
        events = collector.events()
        assert [e.seq for e in events] == [0, 1]
        assert events[1].time == 3.5
        assert events[1].payload == {"height": 2}

    def test_category_filter(self):
        collector = TraceCollector(categories=("swap",))
        collector.emit("swap", "launch", swap_id=1)
        collector.emit("chain", "block", chain_id="c0")
        assert [e.category for e in collector.events()] == ["swap"]
        assert collector.wants("swap") and not collector.wants("chain")

    def test_empty_categories_means_all(self):
        assert TraceCollector().categories == frozenset(CATEGORIES)

    def test_unknown_category_rejected(self):
        with pytest.raises(TraceError, match="unknown trace category"):
            TraceCollector(categories=("swap", "nope"))

    def test_ring_truncation(self):
        collector = TraceCollector(ring_size=3)
        for i in range(10):
            collector.emit("swap", "phase", swap_id=i)
        assert len(collector) == 3
        assert collector.dropped == 7
        # The ring holds the *most recent* events; seqs keep counting.
        assert [e.swap_id for e in collector.events()] == [7, 8, 9]
        assert [e.seq for e in collector.events()] == [7, 8, 9]

    def test_ring_size_validated(self):
        with pytest.raises(TraceError, match="ring_size"):
            TraceCollector(ring_size=0)


# ---------------------------------------------------------------------------
# JSONL serde
# ---------------------------------------------------------------------------


class TestJsonlSerde:
    def test_round_trip_byte_identity(self, security_traced):
        text = security_traced.trace_collector.to_jsonl()
        parsed = TraceCollector.from_jsonl(text)
        assert parsed.to_jsonl() == text
        assert len(parsed) == len(security_traced.trace_collector)

    def test_round_trip_preserves_fields(self):
        collector = TraceCollector(ring_size=5)
        for i in range(8):
            collector.emit("swap", "phase", swap_id=i, actor="a", phase="deploy")
        parsed = TraceCollector.from_jsonl(collector.to_jsonl())
        assert parsed.ring_size == 5
        assert parsed.dropped == 3
        event = parsed.events()[0]
        assert (event.swap_id, event.actor) == (3, "a")
        assert event.payload == {"phase": "deploy"}

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError, match="empty trace"):
            TraceCollector.from_jsonl("")

    def test_unknown_header_key_rejected(self):
        text = TraceCollector().to_jsonl()
        header = json.loads(text.splitlines()[0])
        header["extra"] = 1
        with pytest.raises(TraceError, match="unknown keys \\['extra'\\]"):
            TraceCollector.from_jsonl(json.dumps(header))

    def test_wrong_schema_rejected(self):
        text = TraceCollector().to_jsonl()
        header = json.loads(text.splitlines()[0])
        header["schema"] = "repro-trace/999"
        with pytest.raises(TraceError, match="unsupported trace schema"):
            TraceCollector.from_jsonl(json.dumps(header))

    def test_event_count_mismatch_rejected(self):
        collector = TraceCollector()
        collector.emit("swap", "launch", swap_id=0)
        lines = collector.to_jsonl().splitlines()
        with pytest.raises(TraceError, match="declares 1 events but file has 0"):
            TraceCollector.from_jsonl(lines[0])

    def test_out_of_order_seq_rejected(self):
        collector = TraceCollector()
        collector.emit("swap", "launch", swap_id=0)
        collector.emit("swap", "outcome", swap_id=0)
        lines = collector.to_jsonl().splitlines()
        header = json.loads(lines[0])
        swapped = "\n".join([lines[0], lines[2], lines[1]]) + "\n"
        assert header["events"] == 2
        with pytest.raises(TraceError, match="out of order"):
            TraceCollector.from_jsonl(swapped)

    def test_malformed_event_keys_rejected(self):
        collector = TraceCollector()
        collector.emit("swap", "launch", swap_id=0)
        lines = collector.to_jsonl().splitlines()
        event = json.loads(lines[1])
        del event["actor"]
        event["who"] = "x"
        bad = "\n".join([lines[0], json.dumps(event)]) + "\n"
        with pytest.raises(TraceError, match="unknown keys \\['who'\\]"):
            TraceCollector.from_jsonl(bad)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_trace_bytes(self):
        first = run_experiment(traced_spec("security", sample_interval=1.0))
        second = run_experiment(traced_spec("security", sample_interval=1.0))
        assert (
            first.trace_collector.to_jsonl() == second.trace_collector.to_jsonl()
        )

    def test_different_seed_different_trace(self):
        first = run_experiment(traced_spec("security"))
        second = run_experiment(
            apply_overrides(traced_spec("security"), {"seed": 8})
        )
        assert first.trace_collector.to_jsonl() != second.trace_collector.to_jsonl()


# ---------------------------------------------------------------------------
# Emit-site coverage
# ---------------------------------------------------------------------------


class TestEmitSites:
    def test_swap_lifecycle_events(self, security_traced):
        events = security_traced.trace_collector.events()
        histogram = category_histogram(events)
        swaps = security_traced.metrics.total
        assert histogram[("swap", "launch")] == swaps
        assert histogram[("swap", "outcome")] == swaps
        assert histogram[("swap", "phase")] >= swaps  # >=1 phase per swap
        assert histogram[("chain", "block")] > 0
        assert histogram[("mempool", "submit")] > 0
        assert histogram[("sample", "gauges")] > 0

    def test_launch_and_outcome_payloads(self, security_traced):
        events = security_traced.trace_collector.events()
        launch = next(
            e for e in events if e.category == "swap" and e.kind == "launch"
        )
        assert launch.payload["protocol"] == "ac3wn"
        assert launch.payload["chains"] == ["chain-0", "chain-1"]
        outcome = next(
            e for e in events if e.category == "swap" and e.kind == "outcome"
        )
        assert outcome.payload["decision"] == "commit"
        assert outcome.payload["atomic"] is True
        assert outcome.payload["contracts"]  # per-contract milestones

    def test_fee_market_events(self, congestion_traced):
        events = congestion_traced.trace_collector.events()
        kinds = {(e.category, e.kind) for e in events}
        assert ("mempool", "evict") in kinds or ("mempool", "rbf") in kinds
        assert ("fee", "priced_out") in kinds
        priced = next(e for e in events if e.kind == "priced_out")
        assert priced.swap_id is not None

    def test_adversary_and_reorg_events(self, attacked_traced):
        events = attacked_traced.trace_collector.events()
        kinds = {(e.category, e.kind) for e in events}
        assert ("adversary", "launch") in kinds
        assert ("adversary", "won") in kinds
        assert ("adversary", "exploit") in kinds
        assert ("chain", "reorg") in kinds
        exploit = next(e for e in events if e.kind == "exploit")
        assert exploit.swap_id is not None
        assert exploit.payload["refunds"] > 0

    def test_crash_events(self):
        result = run_experiment(traced_spec("crash"))
        events = result.trace_collector.events()
        crashes = [e for e in events if e.category == "sim" and e.kind == "crash"]
        assert len(crashes) == result.metrics.injected_crashes
        assert crashes and all(e.actor for e in crashes)
        # Recovery events fire on the node hook directly (a run can end
        # before any scheduled recovery lands).
        victim = result.env.participant(crashes[0].actor)
        assert victim.collector is result.trace_collector
        was_crashed = victim.crashed
        if not was_crashed:
            victim.crash()
        victim.recover()
        recover = result.trace_collector.events()[-1]
        assert (recover.category, recover.kind) == ("sim", "recover")
        assert recover.actor == victim.name


# ---------------------------------------------------------------------------
# SwapTimeline spans
# ---------------------------------------------------------------------------


class TestSwapTimeline:
    def test_committed_swap_spans(self, security_traced):
        events = security_traced.trace_collector.events()
        timeline = SwapTimeline.from_events(events, 1)
        assert timeline.protocol == "ac3wn"
        assert timeline.decision == "commit"
        assert timeline.atomic is True
        # Figure 9's four Δ-phases, in order.
        names = [span.name for span in timeline.spans]
        assert names == ["scw-wait", "deploy", "decision-wait", "settle"]
        # Spans chain: each ends where the next begins, last at outcome.
        for prev, nxt in zip(timeline.spans, timeline.spans[1:]):
            assert prev.end == nxt.start
        assert timeline.spans[-1].end == timeline.finished_at
        assert sum(timeline.blocks_waited.values()) > 0
        rendered = timeline.render()
        assert "deploy" in rendered and "blocks:" in rendered

    def test_priced_out_swap(self, congestion_traced):
        events = congestion_traced.trace_collector.events()
        victim = next(
            r.swap_id
            for r in congestion_traced.engine_result.requests
            if r.outcome is not None and r.outcome.priced_out
        )
        timeline = SwapTimeline.from_events(events, victim)
        assert timeline.priced_out is True
        assert "priced-out" in timeline.render()

    def test_attacked_swap_shows_reorg_and_exploit(self, attacked_traced):
        events = attacked_traced.trace_collector.events()
        victim = next(
            e.swap_id for e in events if e.category == "adversary" and e.kind == "won"
        )
        timeline = SwapTimeline.from_events(events, victim)
        assert timeline.attacks
        rendered = timeline.render()
        assert "attacked" in rendered
        assert "adversary/won" in rendered
        assert "adversary/exploit" in rendered
        assert "chain/reorg" in rendered

    def test_non_atomic_flagged(self):
        """The Section 1 HTLC crash violation shows up in the timeline."""
        spec = apply_overrides(
            preset_spec("swap"),
            {
                "protocol": "nolan",
                "traffic.crash.participant": "b",
                "traffic.crash.delay": 2.0,
                "traffic.crash.down_for": 500.0,
                "obs.enabled": True,
            },
        )
        result = run_experiment(spec)
        events = result.trace_collector.events()
        broken = next(
            e.swap_id
            for e in events
            if e.kind == "outcome" and e.payload["atomic"] is False
        )
        assert "NON-ATOMIC" in SwapTimeline.from_events(events, broken).render()

    def test_unknown_swap_rejected(self, security_traced):
        with pytest.raises(TraceError, match="no events for swap 999"):
            SwapTimeline.from_events(security_traced.trace_collector.events(), 999)

    def test_swap_ids_ascending(self, security_traced):
        ids = swap_ids(security_traced.trace_collector.events())
        assert ids == sorted(ids)
        assert len(ids) == security_traced.metrics.total


# ---------------------------------------------------------------------------
# Time-series sampler
# ---------------------------------------------------------------------------


class TestTimeSeriesSampler:
    def test_fixed_cadence(self, security_traced):
        samples = [
            e for e in security_traced.trace_collector.events() if e.category == "sample"
        ]
        assert len(samples) >= 2
        gaps = {
            round(b.time - a.time, 9) for a, b in zip(samples, samples[1:])
        }
        assert gaps == {1.0}

    def test_gauges_shape(self, security_traced):
        sample = next(
            e for e in security_traced.trace_collector.events() if e.category == "sample"
        )
        gauges = sample.payload
        assert set(gauges["mempool"]) == {"chain-0", "chain-1", "witness"}
        assert set(gauges["height"]) == {"chain-0", "chain-1", "witness"}
        for key in ("in_flight", "completed", "commit_rate", "p50_latency"):
            assert key in gauges

    def test_bad_interval_rejected(self):
        collector = TraceCollector()
        with pytest.raises(TraceError, match="sample interval"):
            TimeSeriesSampler(collector, env=None, interval=0.0)

    def test_stop_cancels_pending(self):
        from repro.workloads.scenarios import build_scenario

        env = build_scenario(participants=["alice", "bob"], seed=0)
        collector = TraceCollector()
        collector.bind(env.simulator)
        sampler = TimeSeriesSampler(collector, env, interval=5.0).start()
        before = env.simulator.pending_events
        sampler.stop()
        assert env.simulator.pending_events == before - 1
        assert sampler.samples == 0

    def test_series_csv(self, security_traced):
        text = series_csv(security_traced.trace_collector.events())
        lines = text.splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert "mempool.chain-0" in header
        assert "commit_rate" in header
        assert len(lines) >= 3
        assert all(len(line.split(",")) == len(header) for line in lines[1:])

    def test_series_csv_quotes_a_chain_id_holding_a_comma(self):
        """Header and cells were joined raw: a comma in a chain id
        shifted every column to its right."""
        import csv
        import io

        collector = TraceCollector()
        collector.emit("sample", "gauges", mempool={"a,b": 3, 'c"d': 4}, in_flight=2)
        text = series_csv(collector.events())
        header, row = csv.reader(io.StringIO(text))
        assert header == ["t", "in_flight", 'mempool.a,b', 'mempool.c"d']
        assert row[1:] == ["2", "3", "4"]
        assert text.splitlines()[0] == 't,in_flight,"mempool.a,b","mempool.c""d"'


# ---------------------------------------------------------------------------
# ObsSpec
# ---------------------------------------------------------------------------


class TestObsSpec:
    def test_defaults_off(self):
        spec = preset_spec("engine-smoke")
        assert spec.obs == ObsSpec()
        assert spec.obs.enabled is False

    def test_round_trip(self):
        spec = apply_overrides(
            preset_spec("security"),
            {
                "obs.enabled": True,
                "obs.categories": ["swap", "chain"],
                "obs.ring_size": 100,
                "obs.sample_interval": 2.5,
            },
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.obs == spec.obs
        assert again.obs.categories == ("swap", "chain")

    def test_unknown_category_fails_validation(self):
        spec = apply_overrides(
            preset_spec("security"),
            {"obs.enabled": True, "obs.categories": ["swap", "bogus"]},
        )
        with pytest.raises(Exception, match="unknown category 'bogus'"):
            spec.validate()

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"obs.ring_size": 0}, "ring_size"),
            ({"obs.sample_interval": 0.0}, "sample_interval"),
            ({"obs.sample_window": -1.0}, "sample_window"),
        ],
    )
    def test_bad_numbers_fail_validation(self, overrides, match):
        spec = apply_overrides(preset_spec("security"), overrides)
        with pytest.raises(Exception, match=match):
            spec.validate()

    def test_category_filter_respected_end_to_end(self):
        result = run_experiment(
            traced_spec("security", categories=["swap", "adversary"])
        )
        categories = {e.category for e in result.trace_collector.events()}
        assert categories <= {"swap", "adversary"}
        assert "swap" in categories

    def test_ring_size_respected_end_to_end(self):
        result = run_experiment(traced_spec("security", ring_size=10))
        collector = result.trace_collector
        assert len(collector) == 10
        assert collector.dropped > 0


# ---------------------------------------------------------------------------
# Satellite: event-queue stats
# ---------------------------------------------------------------------------


class TestQueueStats:
    def test_counters(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append(1))
        for _ in range(5):
            sim.schedule(2.0, lambda: None).cancel()
        sim.run()
        stats = sim.queue_stats()
        assert stats["events_processed"] == 1
        assert stats["cancelled"] == 5
        assert stats["pending"] == 0
        assert fired == [1]
        del keep

    def test_pool_reuse_counted(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None).cancel()
            sim.run()
        stats = sim.queue_stats()
        assert stats["pool_reuses"] >= 1
        assert stats["cancelled"] == 3

    def test_real_run_has_cancellations(self):
        result = run_experiment(preset_spec("security"))
        stats = result.env.simulator.queue_stats()
        assert stats["events_processed"] > 0
        assert stats["cancelled"] > 0


# ---------------------------------------------------------------------------
# Satellite: per-run cache report
# ---------------------------------------------------------------------------


class TestCachesReport:
    def test_sections_present(self, security_traced):
        caches = security_traced.caches
        assert set(caches) == {"ecdsa_verify", "multisig_verify", "evidence_memo"}
        for row in caches.values():
            assert row["hits"] >= 0 and row["misses"] >= 0
            assert 0.0 <= row["hit_rate"] <= 1.0

    def test_report_is_per_run_deterministic(self):
        """The caches reset at run start: repeating a spec in the same
        process reports the identical cache activity (so exported
        artifacts stay a pure function of the spec)."""
        first = run_experiment(preset_spec("security"))
        second = run_experiment(preset_spec("security"))
        assert first.caches == second.caches
        assert any(
            row["hits"] + row["misses"] > 0 for row in first.caches.values()
        )

    def test_exported_in_reports(self, security_traced):
        artifact = security_traced.to_dict()
        assert artifact["reports"]["caches"] == security_traced.caches


# ---------------------------------------------------------------------------
# CLI: run --trace / trace
# ---------------------------------------------------------------------------


class TestCli:
    def test_run_trace_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["run", "--preset", "security", "--trace", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        parsed = TraceCollector.from_jsonl(out.read_text())
        assert len(parsed) > 0
        assert parsed.to_jsonl() == out.read_text()

    def test_trace_summary(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        main(["run", "--preset", "security", "--trace", str(out)])
        capsys.readouterr()
        assert main(["trace", str(out)]) == 0
        text = capsys.readouterr().out
        assert "events by category/kind" in text
        assert "attacked swaps" in text

    def test_trace_swap_timeline(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        main(["run", "--preset", "security", "--trace", str(out)])
        capsys.readouterr()
        assert main(["trace", str(out), "--swap", "0"]) == 0
        text = capsys.readouterr().out
        assert "swap 0 (ac3wn)" in text
        assert "deploy" in text and "phases:" in text

    def test_trace_unknown_swap(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        main(["run", "--preset", "security", "--trace", str(out)])
        capsys.readouterr()
        assert main(["trace", str(out), "--swap", "999"]) == 2
        assert "no events for swap 999" in capsys.readouterr().err

    def test_trace_series_csv(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        main(
            [
                "run", "--preset", "security",
                "--set", "obs.sample_interval=1.0",
                "--trace", str(out),
            ]
        )
        capsys.readouterr()
        csv_path = tmp_path / "series.csv"
        assert main(["trace", str(out), "--series", str(csv_path)]) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("t,")
        assert "in_flight" in header

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "repro trace:" in capsys.readouterr().err

    def test_trace_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"wrong"}\n')
        assert main(["trace", str(bad)]) == 2
        assert "repro trace:" in capsys.readouterr().err

    def test_profile_prints_queue_stats(self, tmp_path, capsys):
        assert main(["run", "--preset", "swap", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "event queue:" in err
        assert "events processed" in err
        assert "pool" in err
