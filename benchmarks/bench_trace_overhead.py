"""Flight-recorder and metrics/monitor overhead: both stay within 10%.

Runs the ``engine-smoke`` preset three ways — observability off, full
tracing (every category armed, unbounded buffer — the worst case), and
metrics registry + invariant monitor (retain-nothing collector purely
dispatching to sinks) — with interleaved best-of-N wall-clock timings
so scheduler noise hits all arms equally.  The contract is *zero* cost
when disabled (verified byte-for-byte by ``tests/test_obs.py``) and
near-zero when enabled: every emit site is one attribute check plus,
when armed, one slotted object construct and sink dispatch.  A breach
here means an emit site or a sink grew real work — serialization,
rendering, or state copies belong in the explorer/exporters, never on
the hot path.

When ``BENCH_STORE_DB`` is set, the timing rows also append to a
``trace-overhead`` campaign in that database (one campaign per
benchmark run), so ``repro compare DB`` diffs this run's overhead
ratios against the previous one.
"""

import time

from repro.experiment import apply_overrides, preset_spec, run_experiment

from conftest import print_table, record_store_timing

#: Wall-clock budget of each armed mode relative to the disabled run.
MAX_OVERHEAD = 1.10
ROUNDS = 3

_ARM_OVERRIDES = {
    "off": {},
    "trace": {"obs.enabled": True, "obs.sample_interval": 1.0},
    "metrics": {
        "obs.metrics.enabled": True,
        "obs.monitor.enabled": True,
        "obs.sample_interval": 1.0,
    },
}

def _run(arm: str):
    spec = preset_spec("engine-smoke")
    overrides = _ARM_OVERRIDES[arm]
    if overrides:
        spec = apply_overrides(spec, overrides)
    return run_experiment(spec)


def _best_of(rounds: int, arm: str) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        _run(arm)
        best = min(best, time.perf_counter() - start)
    return best


def _timed_arms() -> dict:
    """Interleaved best-of timings for every arm (drift hits all)."""
    # Warm every path once (imports, cache priming) before timing.
    for arm in _ARM_OVERRIDES:
        _run(arm)
    best = {arm: float("inf") for arm in _ARM_OVERRIDES}
    for _ in range(ROUNDS):
        for arm in _ARM_OVERRIDES:
            best[arm] = min(best[arm], _best_of(1, arm))
    return best


def test_observability_overhead_within_budget(table_printer):
    """Tracing and metrics+monitor each cost at most 10% wall-clock."""
    best = _timed_arms()
    base = best["off"]
    ratios = {arm: best[arm] / base for arm in ("trace", "metrics")}
    events = len(_run("trace").trace_collector)
    alerts = len(_run("metrics").alerts)
    rows = [["off", f"{base * 1000:.1f} ms", "-", "-"]]
    for arm in ("trace", "metrics"):
        rows.append(
            [
                arm,
                f"{best[arm] * 1000:.1f} ms",
                f"{ratios[arm]:.3f}x",
                f"budget {MAX_OVERHEAD:.2f}x",
            ]
        )
        record_store_timing(
            "trace-overhead",
            f"trace-overhead[{arm}]",
            {"arm": arm},
            {
                "arm": arm,
                "base_ms": round(base * 1000, 3),
                "armed_ms": round(best[arm] * 1000, 3),
                "overhead_ratio": round(ratios[arm], 4),
            },
        )
    table_printer(
        "Observability overhead (engine-smoke preset)",
        ["arm", "best wall-clock", "ratio", "gate"],
        rows,
    )
    assert events > 0
    assert alerts == 0, f"clean preset fired alerts: {alerts}"
    for arm, ratio in ratios.items():
        assert ratio <= MAX_OVERHEAD, (
            f"{arm} overhead {ratio:.3f}x exceeds the {MAX_OVERHEAD:.2f}x "
            f"budget ({base * 1000:.1f} ms -> {best[arm] * 1000:.1f} ms)"
        )


def test_traced_run_changes_nothing():
    """The recorder is a pure tap: metrics identical either way."""
    assert _run("off").metrics == _run("trace").metrics


def test_metrics_run_changes_nothing():
    """The registry/monitor sinks are pure taps too."""
    assert _run("off").metrics == _run("metrics").metrics
