"""Engine scale benchmark: wall-clock swaps/sec at 10^2, 10^3, and 10^4.

Pins the throughput the SwapEngine sustains as the swap count grows two
orders of magnitude past the smoke preset.  Each point derives its spec
from ``engine-smoke`` (same three chains, mixed protocols, Poisson
arrivals at 10 swaps/s) and varies only ``num_swaps``, so the points are
directly comparable and any regression is an engine/hot-path regression,
not a workload change.

The 10^3 point is the gate: it must sustain at least half the
wall-clock swaps/s measured when the gate was last re-based (PR 12's
curve kernel, see docs/performance.md).  The 10^4 point proves the engine
*completes* at that scale without superlinear blowup; it takes minutes,
so it only runs when ``RUN_SCALE_10K=1`` (nightly / local profiling, not
per-PR CI).

When ``ENGINE_SCALE_JSON`` is set, every point appends its wall-clock
timing to that JSON file — CI uploads it as the scale-smoke artifact so
throughput is tracked across commits.  When ``BENCH_STORE_DB`` is set,
the same timing rows also append to an ``engine-scale`` campaign in
that campaign database (one new campaign per benchmark run), so
``repro compare DB`` diffs this run's throughput against the previous
one.
"""

import dataclasses
import json
import os
import time

import pytest

from repro.experiment import preset_spec, run_experiment
from repro.experiment.spec import TrafficSpec

from conftest import print_table, record_store_timing

# Wall-clock swaps/sec at the 10^3 point, measured after PR 12 (recorded
# in docs/performance.md).  The floor is a fixed fraction of it:
# re-measure and re-base when a PR moves it.
MEASURED_1K_SWAPS_PER_SEC = 34.3
MIN_1K_SWAPS_PER_SEC = 0.5 * MEASURED_1K_SWAPS_PER_SEC

ARRIVAL_RATE = 10.0


def scale_spec(num_swaps: int):
    """The engine-smoke workload scaled to ``num_swaps`` arrivals."""
    return dataclasses.replace(
        preset_spec("engine-smoke"),
        name=f"scale-{num_swaps}",
        traffic=TrafficSpec(
            generator="poisson", num_swaps=num_swaps, rate=ARRIVAL_RATE
        ),
    )


def _run_point(num_swaps: int):
    """Run one scale point; returns (result, wall_seconds)."""
    spec = scale_spec(num_swaps)
    start = time.perf_counter()
    result = run_experiment(spec)
    wall = time.perf_counter() - start
    return result, wall


def _record_timing(num_swaps: int, wall: float, result) -> None:
    """Append this point's timing to the configured artifacts (the
    ``ENGINE_SCALE_JSON`` file and/or the ``BENCH_STORE_DB`` campaign
    database), if any."""
    metrics = result.metrics
    entry = {
        "num_swaps": num_swaps,
        "wall_seconds": round(wall, 3),
        "swaps_per_second_wall": round(num_swaps / wall, 3),
        "committed": metrics.committed,
        "aborted": metrics.aborted,
        "atomicity_violations": metrics.atomicity_violations,
        "max_in_flight": metrics.max_in_flight,
        "p50_latency": metrics.p50_latency,
        "p99_latency": metrics.p99_latency,
    }
    path = os.environ.get("ENGINE_SCALE_JSON")
    if path:
        timings = {}
        if os.path.exists(path):
            with open(path) as fh:
                timings = json.load(fh)
        timings[str(num_swaps)] = entry
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(timings, fh, indent=2, sort_keys=True)
            fh.write("\n")
    record_store_timing(
        "engine-scale", f"engine-scale[{num_swaps}]", {"num_swaps": num_swaps}, entry
    )


def _check_and_report(num_swaps: int, result, wall, table_printer) -> None:
    metrics = result.metrics
    rows = [
        [
            name,
            pm.total,
            pm.committed,
            pm.atomicity_violations,
            f"{pm.p50_latency:.1f}s",
        ]
        for name, pm in sorted(result.by_protocol.items())
    ]
    rows.append(
        [
            "all",
            metrics.total,
            metrics.committed,
            metrics.atomicity_violations,
            f"{metrics.p50_latency:.1f}s",
        ]
    )
    table_printer(
        f"Engine scale {num_swaps}: {wall:.1f}s wall, "
        f"{num_swaps / wall:.2f} swaps/s, peak {metrics.max_in_flight}",
        ["protocol", "swaps", "committed", "violations", "p50"],
        rows,
    )
    assert metrics.total == num_swaps
    # Every swap terminates; the witness protocols never violate.
    assert metrics.committed + metrics.aborted == num_swaps
    for name in ("ac3tw", "ac3wn"):
        assert result.by_protocol[name].atomicity_violations == 0
    _record_timing(num_swaps, wall, result)


def test_scale_100(benchmark, table_printer):
    """10^2 swaps: the smoke-scale sanity point."""
    result, wall = benchmark.pedantic(
        lambda: _run_point(100), rounds=1, iterations=1
    )
    _check_and_report(100, result, wall, table_printer)


def test_scale_1000(benchmark, table_printer):
    """10^3 swaps: the throughput gate — at least half the last measurement."""
    result, wall = benchmark.pedantic(
        lambda: _run_point(1000), rounds=1, iterations=1
    )
    _check_and_report(1000, result, wall, table_printer)
    swaps_per_sec = 1000 / wall
    assert swaps_per_sec >= MIN_1K_SWAPS_PER_SEC, (
        f"10^3-swap run sustained {swaps_per_sec:.2f} swaps/s of wall time; "
        f"the floor is {MIN_1K_SWAPS_PER_SEC:.2f} (half the "
        f"{MEASURED_1K_SWAPS_PER_SEC:.1f} measured at the last re-base)"
    )


@pytest.mark.skipif(
    os.environ.get("RUN_SCALE_10K") != "1",
    reason="10^4-swap run takes minutes; set RUN_SCALE_10K=1 to enable",
)
def test_scale_10000(benchmark, table_printer):
    """10^4 swaps: the engine completes the paper-scale run."""
    result, wall = benchmark.pedantic(
        lambda: _run_point(10_000), rounds=1, iterations=1
    )
    _check_and_report(10_000, result, wall, table_printer)
