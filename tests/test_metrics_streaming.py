"""Tests for the streaming metrics layer (:mod:`repro.engine.metrics`).

The accumulator replaced a multi-pass reduction over the full outcome
list on the engine's hot path, so these tests pin the two properties
that made that replacement safe:

* **Fold-order independence** — folding the same outcomes in any order
  (with their canonical keys) yields the *identical* ``EngineMetrics``,
  bit-for-bit, because order-sensitive float sums run in key order at
  snapshot time.
* **Byte-identity with the historical output** — the three CI presets
  (engine-smoke, congestion, security) reproduce the exact metrics the
  pre-streaming implementation produced, pinned as JSON goldens in
  ``tests/data/``.

Plus the new capabilities: live counters, windowed streaming views, and
snapshot caching across repeated queries.
"""

import hashlib
import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.protocol import SwapOutcome
from repro.engine.metrics import MetricsAccumulator, percentile
from repro.workloads.graphs import two_party_swap

GOLDEN_DIR = Path(__file__).parent / "data"


def make_outcome(
    i: int,
    decision: str = "commit",
    started_at: float = 0.0,
    finished_at: float = 1.0,
    fees_paid: int = 0,
    **extra,
) -> SwapOutcome:
    graph = two_party_swap(
        chain_a="x", chain_b="y", timestamp=1, names=(f"a{i}", f"b{i}")
    )
    return SwapOutcome(
        protocol="nolan",
        graph=graph,
        decision=decision,
        started_at=started_at,
        finished_at=finished_at,
        fees_paid=fees_paid,
        **extra,
    )


def fold_all(outcomes: list[SwapOutcome]):
    """Fold in list order under the default keys, then snapshot."""
    acc = MetricsAccumulator()
    for outcome in outcomes:
        acc.fold(outcome)
    return acc.snapshot()


def varied_outcomes(n: int = 40, seed: int = 7) -> list[SwapOutcome]:
    """A batch with irrational-ish floats so sum order actually matters."""
    rng = random.Random(seed)
    outcomes = []
    for i in range(n):
        start = rng.random() * 50
        outcomes.append(
            make_outcome(
                i,
                decision=rng.choice(["commit", "commit", "abort", "undecided"]),
                started_at=start,
                finished_at=start + 0.1 + rng.random() * 9,
                fees_paid=rng.randrange(0, 400),
                priced_out=rng.random() < 0.2,
                evictions=rng.randrange(0, 3),
                fee_bumps=rng.randrange(0, 2),
                attacks_launched=rng.randrange(0, 2),
                attack_cost=rng.random() * 100,
            )
        )
    return outcomes


class TestFoldOrderIndependence:
    def test_any_fold_order_is_bit_identical(self):
        outcomes = varied_outcomes()
        reference = fold_all(outcomes)
        rng = random.Random(99)
        for _ in range(5):
            order = list(enumerate(outcomes))
            rng.shuffle(order)
            acc = MetricsAccumulator()
            for key, outcome in order:
                acc.fold(outcome, key=key)
            assert acc.snapshot() == reference

    def test_matches_compute_metrics_incrementally(self):
        """Every prefix snapshot equals a fresh fold over that prefix."""
        outcomes = varied_outcomes(12)
        acc = MetricsAccumulator()
        for i, outcome in enumerate(outcomes):
            acc.fold(outcome, key=i)
            assert acc.snapshot() == fold_all(outcomes[: i + 1])

    def test_empty_snapshot_matches_compute_metrics(self):
        assert MetricsAccumulator().snapshot() == fold_all([])

    def test_snapshot_is_repeatable(self):
        acc = MetricsAccumulator()
        for i, outcome in enumerate(varied_outcomes(10)):
            acc.fold(outcome, key=i)
        assert acc.snapshot() == acc.snapshot()


class TestLiveCounters:
    def test_launch_fold_tracks_peak_concurrency(self):
        acc = MetricsAccumulator()
        acc.launched()
        acc.launched()
        acc.launched()
        assert acc.in_flight == 3
        acc.fold(make_outcome(0), key=0, completes_flight=True)
        acc.launched()
        assert acc.max_in_flight == 3
        assert acc.in_flight == 3

    def test_live_commit_and_fee_counters(self):
        acc = MetricsAccumulator()
        acc.fold(make_outcome(0, decision="commit", fees_paid=10), key=0)
        acc.fold(make_outcome(1, decision="abort", fees_paid=5), key=1)
        assert acc.total == 2
        assert acc.committed == 1
        assert acc.total_fees == 15


class TestWindowedViews:
    def build(self):
        acc = MetricsAccumulator()
        # Finishes at 2, 4, 6, 8, 10; commits at even indices.
        for i in range(5):
            acc.fold(
                make_outcome(
                    i,
                    decision="commit" if i % 2 == 0 else "abort",
                    started_at=float(i),
                    finished_at=2.0 * (i + 1),
                ),
                key=i,
            )
        return acc

    def test_window_selects_half_open_interval(self):
        acc = self.build()
        view = acc.windowed(window=4.0, end=10.0)
        # (6, 10] -> finishes at 8 and 10.
        assert view.total == 2
        assert view.committed == 1
        assert view.commit_rate == 0.5

    def test_end_defaults_to_latest_finish(self):
        acc = self.build()
        assert acc.windowed(window=100.0).total == 5

    def test_percentiles_match_percentile_function(self):
        acc = self.build()
        view = acc.windowed(window=100.0)
        latencies = [2.0 * (i + 1) - float(i) for i in range(5)]
        assert view.p50_latency == percentile(latencies, 50.0)
        assert view.p99_latency == percentile(latencies, 99.0)

    def test_empty_window(self):
        acc = self.build()
        view = acc.windowed(window=1.0, end=100.0)
        assert view.total == 0
        assert view.commit_rate == 0.0

    def test_window_usable_mid_stream(self):
        acc = self.build()
        before = acc.windowed(window=4.0, end=10.0)
        acc.fold(make_outcome(9, started_at=9.0, finished_at=9.5), key=9)
        after = acc.windowed(window=4.0, end=10.0)
        assert after.total == before.total + 1

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            self.build().windowed(window=0.0)


class TestPercentile:
    def test_nearest_rank_examples(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 50.0) == 3.0
        assert percentile(values, 99.0) == 5.0
        assert percentile(values, 100.0) == 5.0

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 50.0) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestPresetByteIdentity:
    """The three CI presets reproduce the pre-streaming metrics exactly.

    The goldens were captured from the multi-pass reduction the
    accumulator replaced, before it was replaced; any drift
    here means the hot-path rework changed observable results.  The
    whole artifact (spec echo, outcomes, ``caches``, adversary report)
    is pinned by digest, captured at the commit before PR 14.
    """

    @pytest.mark.parametrize("preset", ["engine-smoke", "congestion", "security"])
    def test_preset_metrics_pinned(self, preset):
        from repro.experiment import preset_spec, run_experiment

        result = run_experiment(preset_spec(preset))
        got = {
            "metrics": asdict(result.metrics),
            "by_protocol": {
                name: asdict(pm) for name, pm in result.by_protocol.items()
            },
        }
        golden_path = GOLDEN_DIR / f"golden-{preset}-metrics.json"
        want = json.loads(golden_path.read_text())
        # Round-trip through JSON so float representations compare the
        # same way the golden was serialized.
        assert json.loads(json.dumps(got)) == want
        digests = json.loads((GOLDEN_DIR / "golden-artifact-digests.json").read_text())
        assert hashlib.sha256(result.to_json().encode()).hexdigest() == digests[preset]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestSerdeFileDigests:
    """Every file a serde writes, pinned by digest.

    Captured from the commit before ``repro.serde`` existed (PR 14's
    rule: digests come from the parent's code, before any source edit),
    so a serde that changed writer and reader the same way still fails
    here — the restore/replay round-trip tests compare new code with
    new code and would not notice.
    """

    DIGESTS = json.loads((GOLDEN_DIR / "golden-artifact-digests.json").read_text())

    def test_checkpointed_session_files(self):
        from repro.service import SwapService, service_preset_spec

        service = SwapService(service_preset_spec("serve-steady"))
        service.serve(max_swaps=8)
        checkpoint = service.checkpoint()
        service.close()
        files = self.DIGESTS["files"]
        assert _sha(checkpoint) == files["serve-steady.max8.checkpoint"]
        assert _sha(service.request_log()) == files["serve-steady.max8.request-log"]

    def test_full_session_request_log(self):
        from repro.service import SwapService, service_preset_spec

        service = SwapService(service_preset_spec("serve-steady"))
        service.run()
        assert _sha(service.request_log()) == self.DIGESTS["files"]["serve-steady.request-log"]

    def test_trace_jsonl(self):
        from repro.experiment import apply_overrides, preset_spec, run_experiment

        spec = apply_overrides(preset_spec("engine-smoke"), {"obs.enabled": True})
        trace = run_experiment(spec).trace_collector.to_jsonl()
        assert _sha(trace) == self.DIGESTS["files"]["engine-smoke.trace"]

    def test_metrics_snapshot(self):
        from repro.experiment import apply_overrides, preset_spec, run_experiment

        spec = apply_overrides(
            preset_spec("engine-smoke"),
            {"obs.metrics.enabled": True, "obs.monitor.enabled": True},
        )
        snapshot = run_experiment(spec).metrics_registry.to_json() + "\n"
        assert _sha(snapshot) == self.DIGESTS["files"]["engine-smoke.metrics"]

    def test_every_preset_spec_echo(self):
        from repro.experiment import preset_names, preset_spec
        from repro.service import service_preset_names, service_preset_spec
        from repro.sweeps import sweep_names, sweep_spec

        got = {f"experiment/{n}": _sha(preset_spec(n).to_json()) for n in preset_names()}
        got.update({f"sweep/{n}": _sha(sweep_spec(n).to_json()) for n in sweep_names()})
        got.update(
            {
                f"service/{n}": _sha(service_preset_spec(n).to_json())
                for n in service_preset_names()
            }
        )
        assert got == self.DIGESTS["specs"]
