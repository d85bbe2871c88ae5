"""Service mode: sources, specs, request logs, handles, checkpoint/restore.

The load-bearing tests here are the byte-identity pins: a session that
is checkpointed mid-flight and restored (in-process or in a fresh
process) must produce final metrics and a request log byte-identical to
the uninterrupted session, and ``SwapService.replay`` must reproduce a
recorded session exactly.  Everything in the service subsystem —
the out-of-loop accept path, deterministic sources with skip-based
cursors, log-structured checkpoints — exists to make those pins hold.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.engine import PROTOCOLS
from repro.errors import ServiceError, SpecError
from repro.experiment import apply_overrides
from repro.experiment.spec import (
    ChainsSpec,
    ExperimentSpec,
    FeeBudgetSpec,
    TrafficSpec,
)
from repro.service import (
    CKPT_SCHEMA,
    PoissonSource,
    RequestRecord,
    ServiceSpec,
    SourceSpec,
    SwapService,
    dump_request_log,
    load_request_log,
    service_preset_names,
    service_preset_spec,
)
from repro.service.sources import DiurnalSource, FlashCrowdSource
from repro.sim import Simulator


def make_world(seed: int = 7, protocol: str = "ac3wn") -> ExperimentSpec:
    return ExperimentSpec(
        name="svc-test",
        seed=seed,
        protocol=protocol,
        chains=ChainsSpec(block_interval=1.0, confirmation_depth=2),
        traffic=TrafficSpec(participants_per_swap=2),
    )


def make_spec(
    protocol: str = "ac3wn",
    duration: float = 6.0,
    rate: float = 3.0,
    seed: int = 7,
    **kwargs,
) -> ServiceSpec:
    kwargs.setdefault(
        "sources", (SourceSpec(kind="poisson", name="p", rate=rate),)
    )
    kwargs.setdefault("capacity", 64)
    return ServiceSpec(
        name="svc-test",
        world=make_world(seed=seed, protocol=protocol),
        duration=duration,
        metrics_window=5.0,
        metrics_interval=2.0,
        **kwargs,
    )


def emit(source, n):
    items = []
    for _ in range(n):
        item = source.next()
        assert item is not None
        items.append(item)
    return items


class TestSources:
    def test_poisson_is_deterministic_in_seed_and_name(self):
        spec = SourceSpec(kind="poisson", name="p", rate=5.0, protocol="ac3wn")
        a = emit(PoissonSource(spec, seed=3, default_amount=100), 10)
        b = emit(PoissonSource(spec, seed=3, default_amount=100), 10)
        assert a == b
        c = emit(PoissonSource(spec, seed=4, default_amount=100), 10)
        assert a != c

    def test_arrivals_strictly_increase(self):
        for cls, spec in (
            (PoissonSource, SourceSpec(kind="poisson", name="p", rate=5.0)),
            (
                DiurnalSource,
                SourceSpec(kind="diurnal", name="d", rate=5.0, period=8.0),
            ),
            (
                FlashCrowdSource,
                SourceSpec(kind="flash-crowd", name="f", rate=2.0, burst_at=2.0),
            ),
        ):
            source = cls(spec, seed=11, default_amount=100)
            source.resolve_protocol("ac3wn")
            times = [item.at for item in emit(source, 40)]
            assert times == sorted(times)
            assert all(t >= 0 for t in times)

    def test_skip_positions_the_stream_exactly(self):
        spec = SourceSpec(kind="diurnal", name="d", rate=6.0, period=10.0)
        reference = DiurnalSource(spec, seed=9, default_amount=100)
        reference.resolve_protocol("ac3wn")
        items = emit(reference, 8)
        skipped = DiurnalSource(spec, seed=9, default_amount=100)
        skipped.resolve_protocol("ac3wn")
        skipped.skip(5)
        assert skipped.emitted == 5
        assert skipped.next() == items[5]
        assert skipped.next() == items[6]

    def test_mixed_protocol_round_robins(self):
        spec = SourceSpec(kind="poisson", name="p", rate=5.0, protocol="mixed")
        source = PoissonSource(spec, seed=1, default_amount=100)
        source.resolve_protocol("ac3wn")
        protocols = [item.protocol for item in emit(source, 8)]
        assert protocols == list(PROTOCOLS) * 2

    def test_source_inherits_world_protocol(self):
        spec = SourceSpec(kind="poisson", name="p", rate=5.0)
        source = PoissonSource(spec, seed=1, default_amount=100)
        source.resolve_protocol("herlihy")
        assert source.next().protocol == "herlihy"

    def test_flash_crowd_bursts_are_denser(self):
        spec = SourceSpec(
            kind="flash-crowd",
            name="f",
            rate=2.0,
            burst_at=10.0,
            burst_every=None,
            burst_duration=10.0,
            burst_multiplier=6.0,
        )
        source = FlashCrowdSource(spec, seed=5, default_amount=100)
        source.resolve_protocol("ac3wn")
        times = []
        while not times or times[-1] < 20.0:
            times.append(source.next().at)
        baseline = sum(1 for t in times if t < 10.0)
        burst = sum(1 for t in times if 10.0 <= t < 20.0)
        assert burst > baseline


class TestServiceSpec:
    def test_round_trip(self):
        spec = make_spec()
        assert ServiceSpec.from_dict(spec.to_dict()) == spec
        assert ServiceSpec.from_json(spec.to_json()) == spec

    def test_unknown_key_rejected(self):
        data = make_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(SpecError):
            ServiceSpec.from_dict(data)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"capacity": 0},
            {"duration": None, "max_swaps": None},
            {"max_swaps": 999},
            {"metrics_window": 0.0},
            {"metrics_interval": -1.0},
            {"drain_timeout": 0.0},
            {"sources": (SourceSpec(name=""),)},
            {
                "sources": (
                    SourceSpec(name="twin"),
                    SourceSpec(name="twin"),
                )
            },
            {"sources": (SourceSpec(kind="no-such-kind", name="x"),)},
            {"sources": (SourceSpec(name="x", protocol="no-such-protocol"),)},
            {"sources": (SourceSpec(name="x", rate=0.0),)},
            {
                "sources": (
                    SourceSpec(kind="diurnal", name="x", trough=0.0),
                )
            },
            {
                "sources": (
                    SourceSpec(
                        kind="flash-crowd",
                        name="x",
                        burst_every=2.0,
                        burst_duration=5.0,
                    ),
                )
            },
        ],
    )
    def test_validate_rejects(self, mutation):
        import dataclasses

        spec = dataclasses.replace(make_spec(), **mutation)
        with pytest.raises(SpecError):
            spec.validate()

    def test_nolan_needs_two_parties(self):
        import dataclasses

        spec = make_spec(protocol="nolan")
        world = dataclasses.replace(
            spec.world, traffic=TrafficSpec(participants_per_swap=3)
        )
        with pytest.raises(SpecError, match="two-party"):
            dataclasses.replace(spec, world=world).validate()

    def test_presets_validate(self):
        assert {"serve-steady", "serve-diurnal", "serve-flash-crowd"} <= set(
            service_preset_names()
        )
        for name in service_preset_names():
            service_preset_spec(name).validate()


class TestRequestLog:
    def records(self):
        return [
            RequestRecord(seq=0, at=0.5, source="p", protocol="ac3wn", amount=100),
            RequestRecord(
                seq=1,
                at=1.25,
                source="q",
                protocol="nolan",
                amount=40,
                fee_budget=FeeBudgetSpec(cap=4000, fee_rate=None),
            ),
        ]

    def test_round_trip_is_byte_identical(self):
        spec = make_spec()
        text = dump_request_log(spec, self.records())
        loaded_spec, loaded = load_request_log(text)
        assert loaded_spec == spec
        assert loaded == self.records()
        assert dump_request_log(loaded_spec, loaded) == text

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda lines: [],
            lambda lines: ["not json"] + lines[1:],
            lambda lines: [lines[0].replace("repro-service-log/1", "v9")] + lines[1:],
            lambda lines: lines[:1],  # count mismatch
            lambda lines: [lines[0], lines[2], lines[1]],  # seq out of order
            lambda lines: lines[:2] + ['{"seq":1}'],
        ],
    )
    def test_malformed_logs_rejected(self, corrupt):
        text = dump_request_log(make_spec(), self.records())
        lines = text.splitlines()
        with pytest.raises(ServiceError):
            load_request_log("\n".join(corrupt(lines)))

    def test_record_unknown_key_rejected(self):
        row = self.records()[0].to_dict()
        row["extra"] = True
        with pytest.raises(ServiceError, match="unknown keys"):
            RequestRecord.from_dict(row)


class TestSessionBounds:
    def test_a_replayed_log_past_capacity_raises(self):
        """A log with more records than the spec's ``capacity`` (an edited
        or foreign log) fails on the first record without a slot."""
        records = [
            RequestRecord(seq=seq, at=0.5 + seq, source="p", protocol="ac3wn", amount=100)
            for seq in range(2)
        ]
        spec = make_spec(max_swaps=1, capacity=1)
        with pytest.raises(ServiceError, match="capacity exhausted"):
            SwapService.replay(spec, records)

    def test_a_drained_session_is_closed(self):
        service = SwapService(make_spec(duration=1.0))
        service.serve()
        service.drain()
        service.result()
        with pytest.raises(ServiceError, match="session is closed"):
            service.serve()
        with pytest.raises(ServiceError, match="session is closed"):
            service.checkpoint()

    @pytest.mark.parametrize(
        "limits, said",
        [
            ({"checkpoint_every": 0}, "checkpoint_every must be at least 1, got 0"),
            ({"max_swaps": -1}, "max_swaps must be at least 1, got -1"),
            ({"duration": 0.0}, "duration must be positive, got 0.0"),
            ({"duration": float("nan")}, "duration: expected a finite number, got nan"),
            ({"max_swaps": 2.5}, "max_swaps: expected an int, got 2.5"),
        ],
    )
    def test_serve_holds_per_call_limits_to_the_spec_rules(self, tmp_path, limits, said):
        service = SwapService(make_spec(duration=1.0))
        with pytest.raises(SpecError) as refused:
            service.serve(checkpoint_path=str(tmp_path / "ck.json"), **limits)
        assert str(refused.value) == said
        assert service.accepted == 0 and not list(tmp_path.iterdir())

    def test_live_serving_stops_at_capacity_without_raising(self):
        """The slot pool bounds live serving like ``max_swaps``; only a
        replayed log can overrun it."""
        service = SwapService(make_spec(rate=6.0, capacity=3))
        assert service.serve() == 3
        assert service.serve() == 3
        assert [r.seq for r in service.records] == [0, 1, 2]

    def test_drain_settles_every_accepted_swap(self):
        service = SwapService(make_spec(seed=8))
        service.serve(max_swaps=4)
        assert any(r.outcome is None for r in service.engine.requests)
        service.drain()
        result = service.result()
        assert len(result.requests) == 4
        assert all(r.outcome is not None for r in result.requests)
        assert len(result.to_dict()["outcomes"]) == 4

    def test_drain_twice_changes_nothing(self):
        service = SwapService(make_spec(seed=9, duration=3.0))
        service.serve()
        service.drain()
        first = service.result().to_json()
        clock = service.env.simulator.now
        service.drain()
        assert service.env.simulator.now == clock
        assert service.result().to_json() == first

    def test_result_mid_session_then_serve_on(self):
        """``result`` aggregates without closing: serving continues, and the
        finished session matches one that never paused."""
        spec = make_spec(seed=10)
        paused = SwapService(spec)
        paused.serve(max_swaps=3)
        assert paused.result().accepted == 3
        final = paused.run()
        assert final.to_json() == SwapService(spec).run().to_json()

    def test_a_sourceless_session_serves_nothing(self):
        service = SwapService(make_spec(sources=(), duration=4.0))
        assert service.serve() == 0
        assert service.env.simulator.now == service.start + 4.0
        service.drain()
        result = service.result()
        assert result.accepted == 0 and result.metrics.total == 0
        assert service.request_log().count("\n") == 1  # the header alone


class TestCheckpointRestore:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_restore_is_byte_identical(self, tmp_path, protocol):
        spec = make_spec(protocol=protocol, seed=20 + PROTOCOLS.index(protocol))
        baseline = SwapService(spec)
        baseline.run()
        assert baseline.accepted > 4, "session too small to interrupt"

        interrupted = SwapService(spec)
        interrupted.serve(max_swaps=baseline.accepted // 2)
        path = str(tmp_path / "ck.json")
        interrupted.checkpoint(path)

        restored = SwapService.restore(path)
        result = restored.run()
        assert result.to_json() == baseline.result().to_json()
        assert restored.request_log() == baseline.request_log()

    def test_a_flash_crowd_fee_market_session_restores_byte_identical(self, tmp_path):
        """The ``serve-flash-crowd`` preset (a fee market, and a source
        whose bursts change its rate mid-stream) checkpointed once its
        first burst has begun: the restored session ends with the uninterrupted
        one's result and request log, byte for byte."""
        spec = apply_overrides(service_preset_spec("serve-flash-crowd"), {"duration": 10.0})
        baseline = SwapService(spec)
        baseline.run()
        interrupted = SwapService(spec)
        interrupted.serve(max_swaps=baseline.accepted // 2)
        burst = spec.sources[0]
        assert burst.burst_at < interrupted.env.simulator.now - interrupted.start
        path = str(tmp_path / "ck.json")
        interrupted.checkpoint(path)
        restored = SwapService.restore(path)
        assert restored.run().to_json() == baseline.result().to_json()
        assert restored.request_log() == baseline.request_log()

    def test_restore_in_a_fresh_process(self, tmp_path):
        """The pin the subsystem exists for: a checkpoint written here,
        restored by a brand-new interpreter, byte-matches the
        uninterrupted session's result and request log."""
        spec = make_spec(seed=31)
        baseline = SwapService(spec)
        baseline.run()
        interrupted = SwapService(spec)
        interrupted.serve(max_swaps=baseline.accepted // 2)
        ckpt = tmp_path / "ck.json"
        interrupted.checkpoint(str(ckpt))

        script = (
            "import sys\n"
            "from repro.service import SwapService\n"
            "service = SwapService.restore(sys.argv[1])\n"
            "result = service.run()\n"
            "open(sys.argv[2], 'w').write(result.to_json())\n"
            "open(sys.argv[3], 'w').write(service.request_log())\n"
        )
        out_json = tmp_path / "restored.json"
        out_log = tmp_path / "restored.log"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", script, str(ckpt), str(out_json), str(out_log)],
            check=True,
            env=env,
            timeout=300,
        )
        assert out_json.read_text() == baseline.result().to_json()
        assert out_log.read_text() == baseline.request_log()

    def test_periodic_checkpoints_during_serve(self, tmp_path):
        path = str(tmp_path / "ck.json")
        service = SwapService(make_spec(seed=33))
        service.serve(checkpoint_path=path, checkpoint_every=5)
        assert service.epoch >= 1
        restored = SwapService.restore(path)
        assert restored.accepted == int(
            json.loads(open(path).read())["accepted"]
        )

    def test_digest_mismatch_fails_loudly(self, tmp_path):
        service = SwapService(make_spec(seed=34))
        service.serve(max_swaps=6)
        path = tmp_path / "ck.json"
        service.checkpoint(str(path))
        data = json.loads(path.read_text())
        data["digest"]["committed"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(ServiceError, match="digest mismatch"):
            SwapService.restore(str(path))

    def test_malformed_checkpoints_rejected(self, tmp_path):
        service = SwapService(make_spec(seed=35))
        service.serve(max_swaps=4)
        path = tmp_path / "ck.json"
        service.checkpoint(str(path))
        good = json.loads(path.read_text())

        bad = dict(good)
        bad["schema"] = "nope/1"
        path.write_text(json.dumps(bad))
        with pytest.raises(ServiceError, match="schema"):
            SwapService.restore(str(path))

        bad = dict(good)
        bad["extra"] = 1
        path.write_text(json.dumps(bad))
        with pytest.raises(ServiceError, match="unknown keys"):
            SwapService.restore(str(path))

        path.write_text("not json")
        with pytest.raises(ServiceError, match="malformed"):
            SwapService.restore(str(path))
        with pytest.raises(ServiceError, match="cannot read"):
            SwapService.restore(str(tmp_path / "missing.json"))
        assert CKPT_SCHEMA == good["schema"]

    @pytest.mark.parametrize(
        "field, value",
        [("clock", None), ("epoch", "x"), ("accepted", None), ("records", 5)],
    )
    def test_mistyped_checkpoint_field_is_named(self, tmp_path, field, value):
        service = SwapService(make_spec(seed=35))
        service.serve(max_swaps=2)
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({**json.loads(service.checkpoint()), field: value}))
        with pytest.raises(ServiceError, match=rf"checkpoint\.{field}: expected"):
            SwapService.restore(str(path))

    def test_pre_removal_checkpoint_and_log_still_load(self, tmp_path):
        """Checkpoints and request-log headers written before the poll
        cadence was removed echo ``"eager": true``; both still load."""
        service = SwapService(make_spec(seed=36))
        service.serve(max_swaps=3)
        path = tmp_path / "ck.json"
        checkpoint = service.checkpoint(str(path))
        header = service.request_log().splitlines()[0]
        assert '"eager":true' in checkpoint and '"eager":true' in header
        assert SwapService.restore(str(path)).accepted == 3
        log_spec, records = load_request_log(service.request_log())
        assert log_spec.world.engine.eager is True and len(records) == 3


class TestReplay:
    def test_replay_reproduces_a_live_session(self):
        spec = make_spec(seed=40)
        live = SwapService(spec)
        live.run()
        log_spec, records = load_request_log(live.request_log())
        result = SwapService.replay(log_spec, records)
        assert result.to_json() == live.result().to_json()
        assert dump_request_log(log_spec, records) == live.request_log()

    def test_replayed_records_keep_their_protocol_and_amount(self):
        """A log's per-record fields drive the replay, whatever the spec's
        world defaults are."""
        records = [
            RequestRecord(seq=0, at=0.5, source="desk", protocol="herlihy", amount=55),
            RequestRecord(
                seq=1, at=1.0, source="desk", protocol="nolan", amount=100,
                fee_budget=FeeBudgetSpec(cap=4000, fee_rate=None),
            ),
        ]
        spec = make_spec(sources=(), duration=10.0)
        result = SwapService.replay(spec, records)
        assert result.accepted == 2
        assert [r.protocol for r in result.requests] == ["herlihy", "nolan"]
        assert {e.amount for e in result.requests[0].graph.edges} == {55}
        assert result.requests[1].fee_budget.cap == 4000
        assert all(r.outcome is not None for r in result.requests)
        assert SwapService.replay(spec, records).to_json() == result.to_json()

    def test_replay_rejects_out_of_order_records(self):
        records = [
            RequestRecord(seq=1, at=0.5, source="p", protocol="ac3wn", amount=100),
            RequestRecord(seq=0, at=1.0, source="p", protocol="ac3wn", amount=100),
        ]
        with pytest.raises(ServiceError, match="out of order"):
            SwapService.replay(make_spec(), records)

    def test_windowed_series_is_replay_stable(self):
        spec = make_spec(seed=42)
        live = SwapService(spec)
        live.run()
        assert live.windows, "expected windowed samples during the session"
        log_spec, records = load_request_log(live.request_log())
        replayed = SwapService.replay(log_spec, records)
        assert replayed.windows == live.windows
        sample = live.windows[-1]
        assert {
            "t",
            "total",
            "commit_rate",
            "p50_latency",
            "p99_latency",
            "priced_out_rate",
            "accepted",
            "in_flight",
        } <= set(sample)


class TestRunUntilIdle:
    def test_idle_on_empty_queue(self):
        assert Simulator().run_until_idle() == ("idle", 0)

    def test_event_guard_trips_on_perpetual_rescheduler(self):
        sim = Simulator()

        def tick():
            sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        reason, processed = sim.run_until_idle(max_events=50)
        assert reason == "events"
        assert processed == 50

    def test_wall_guard_trips(self):
        sim = Simulator()

        def tick():
            sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        reason, _ = sim.run_until_idle(max_wall_s=0.0)
        assert reason == "wall"
