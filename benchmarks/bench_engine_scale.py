"""Engine scale benchmark: wall-clock swaps/sec at 10^2, 10^3, and 10^4.

Pins the throughput the SwapEngine sustains as the swap count grows two
orders of magnitude past the smoke preset.  Each point derives its spec
from ``engine-smoke`` (same three chains, mixed protocols, Poisson
arrivals at 10 swaps/s) and varies only ``num_swaps``, so the points are
directly comparable and any regression is an engine/hot-path regression,
not a workload change.

Two gates.  The 10^3 point must sustain at least half the wall-clock
swaps/s measured when the gate was last re-based (PR 17's curve kernel,
see docs/performance.md).  And throughput must not decay with run
length: each point must hold ``SCALING_FLOOR`` of the swaps/s of the
point a decade below it — 10^3 against 10^2 on every PR, 10^4 against
10^3 when ``RUN_SCALE_10K=1`` (the 10^4 run takes minutes: nightly /
local profiling, not per-PR CI).  Chain state that cost the whole world
per wallet lookup and per block (before PR 15) failed the second gate.

Each point also records ``build_environment_seconds`` — the world
construction (key derivation, genesis, warm-up) inside its wall time —
so set-up cost is tracked per commit next to swaps/s.

When ``ENGINE_SCALE_JSON`` is set, every point appends its wall-clock
timing to that JSON file — the CI ``benchmarks`` job uploads it so
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
from unittest import mock

import pytest

from repro.experiment import preset_spec, run_experiment, runner
from repro.experiment.spec import TrafficSpec

from conftest import print_table, record_store_timing

# Wall-clock swaps/sec at the 10^3 point, measured after PR 17 (recorded
# in docs/performance.md).  The floor is a fixed fraction of it:
# re-measure and re-base when a PR moves it.
MEASURED_1K_SWAPS_PER_SEC = 90.8
MIN_1K_SWAPS_PER_SEC = 0.5 * MEASURED_1K_SWAPS_PER_SEC
# A point's swaps/s as a fraction of the point a decade below it.
SCALING_FLOOR = 0.85

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
    """Run one scale point; returns (result, wall_seconds, build_seconds)."""
    spec = scale_spec(num_swaps)
    build_environment = runner.build_environment
    build_seconds = []

    def timed_build(*args):
        start = time.perf_counter()
        env = build_environment(*args)
        build_seconds.append(time.perf_counter() - start)
        return env

    with mock.patch.object(runner, "build_environment", timed_build):
        start = time.perf_counter()
        result = run_experiment(spec)
        wall = time.perf_counter() - start
    return result, wall, build_seconds[0]


def _record_timing(num_swaps: int, wall: float, build: float, result) -> None:
    """Append this point's timing to the configured artifacts (the
    ``ENGINE_SCALE_JSON`` file and/or the ``BENCH_STORE_DB`` campaign
    database), if any."""
    metrics = result.metrics
    entry = {
        "num_swaps": num_swaps,
        "wall_seconds": round(wall, 3),
        "build_environment_seconds": round(build, 3),
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


@pytest.fixture(scope="module")
def rates():
    """Wall-clock swaps/s of the points run so far, by swap count."""
    return {}


def _assert_holds_rate(rates: dict, num_swaps: int) -> None:
    """The scaling gate: ``num_swaps`` against the point a decade below
    (run here, unreported, if this session has not measured it)."""
    below = num_swaps // 10
    if below not in rates:
        rates[below] = below / _run_point(below)[1]
    assert rates[num_swaps] >= SCALING_FLOOR * rates[below], (
        f"{num_swaps} swaps ran at {rates[num_swaps]:.2f} swaps/s of wall time, "
        f"below {SCALING_FLOOR} x the {rates[below]:.2f} of {below} swaps: "
        f"throughput decays with run length"
    )


def _check_and_report(num_swaps: int, point, table_printer, rates) -> None:
    result, wall, build = point
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
        f"Engine scale {num_swaps}: {wall:.1f}s wall ({build:.1f}s building the world), "
        f"{num_swaps / wall:.2f} swaps/s, peak {metrics.max_in_flight}",
        ["protocol", "swaps", "committed", "violations", "p50"],
        rows,
    )
    assert metrics.total == num_swaps
    # Every swap terminates; the witness protocols never violate.
    assert metrics.committed + metrics.aborted == num_swaps
    for name in ("ac3tw", "ac3wn"):
        assert result.by_protocol[name].atomicity_violations == 0
    _record_timing(num_swaps, wall, build, result)
    rates[num_swaps] = num_swaps / wall


def test_scale_100(benchmark, table_printer, rates):
    """10^2 swaps: the smoke-scale sanity point."""
    point = benchmark.pedantic(lambda: _run_point(100), rounds=1, iterations=1)
    _check_and_report(100, point, table_printer, rates)


def test_scale_1000(benchmark, table_printer, rates):
    """10^3 swaps: at least half the last measurement, and no decay from 10^2."""
    point = benchmark.pedantic(lambda: _run_point(1000), rounds=1, iterations=1)
    _check_and_report(1000, point, table_printer, rates)
    swaps_per_sec = rates[1000]
    assert swaps_per_sec >= MIN_1K_SWAPS_PER_SEC, (
        f"10^3-swap run sustained {swaps_per_sec:.2f} swaps/s of wall time; "
        f"the floor is {MIN_1K_SWAPS_PER_SEC:.2f} (half the "
        f"{MEASURED_1K_SWAPS_PER_SEC:.1f} measured at the last re-base)"
    )
    _assert_holds_rate(rates, 1000)


@pytest.mark.skipif(
    os.environ.get("RUN_SCALE_10K") != "1",
    reason="10^4-swap run takes minutes; set RUN_SCALE_10K=1 to enable",
)
def test_scale_10000(benchmark, table_printer, rates):
    """10^4 swaps: the paper-scale run completes, with no decay from 10^3."""
    point = benchmark.pedantic(lambda: _run_point(10_000), rounds=1, iterations=1)
    _check_and_report(10_000, point, table_printer, rates)
    _assert_holds_rate(rates, 10_000)
