"""Service steady-state benchmark: sustained serving throughput + tail.

Pins the wall-clock rate at which a live :class:`~repro.service.SwapService`
session accepts, executes, and completes swaps under steady Poisson
traffic, and the windowed p99 latency the session reports while doing
it.  The workload is the ``serve-steady`` preset world (two 1s-block
chains plus witness, AC3WN, live metrics on) scaled up to 8 swaps/s for
20 sim-seconds — enough concurrent load that a hot-path regression in
the accept loop, the windowed-metrics sampler, or the drain shows up as
a throughput drop.

The throughput gate is half the rate measured when it was last re-based
(PR 17's curve kernel: 59.0 accepted swaps per wall-second).  The
windowed p99 ceiling (12 s) is ~2x the steady-state tail on two 1s
chains at confirmation depth 2 — a scheduling regression that stretches
the commit path blows through it.

When ``BENCH_STORE_DB`` is set, the timing row also appends to a
``service-steady-state`` campaign in that database (one campaign per
benchmark run), so ``repro compare DB`` diffs this run's throughput
against the previous one.
"""

import dataclasses
import time

from repro.service import SwapService, service_preset_spec
from repro.service.spec import SourceSpec

from conftest import record_store_timing

#: Accepted swaps per wall-second measured after PR 17; the floor is a
#: fixed fraction of it (re-measure and re-base when a PR moves it).
MEASURED_ACCEPTED_PER_WALL_SECOND = 59.0
MIN_ACCEPTED_PER_WALL_SECOND = 0.5 * MEASURED_ACCEPTED_PER_WALL_SECOND
#: Steady-state windowed-p99 ceiling on two 1s-block chains, depth 2.
P99_CEILING_S = 12.0

ARRIVAL_RATE = 8.0
DURATION_S = 20.0


def steady_spec():
    """The serve-steady preset world under 2x its stock arrival rate."""
    return dataclasses.replace(
        service_preset_spec("serve-steady"),
        name="service-steady-state",
        sources=(SourceSpec(kind="poisson", name="steady", rate=ARRIVAL_RATE),),
        capacity=512,
        duration=DURATION_S,
    )


def _run_session():
    """One full session lifecycle; returns (result, wall_seconds)."""
    start = time.perf_counter()
    result = SwapService(steady_spec()).run()
    wall = time.perf_counter() - start
    return result, wall


def test_steady_state_throughput_and_tail(benchmark, table_printer):
    result, wall = benchmark.pedantic(_run_session, rounds=1, iterations=1)
    metrics = result.metrics
    accepted_per_sec = result.accepted / wall
    max_p99 = max(w["p99_latency"] for w in result.windows)

    table_printer(
        f"Service steady state: {result.accepted} accepted in {wall:.1f}s wall "
        f"({accepted_per_sec:.1f} swaps/s), {len(result.windows)} window samples",
        ["metric", "value"],
        [
            ["accepted", result.accepted],
            ["completed", metrics.total],
            ["commit rate", f"{metrics.commit_rate:.1%}"],
            ["windowed p99 (max)", f"{max_p99:.2f}s"],
            ["aggregate p99", f"{metrics.p99_latency:.2f}s"],
            ["stall", result.stall or "none"],
        ],
    )

    # The session is healthy: every accepted swap completed, the queue
    # drained to idle, and steady-state AC3WN commits everything.
    assert result.accepted > DURATION_S * ARRIVAL_RATE * 0.5
    assert metrics.total == result.accepted
    assert result.stall is None
    assert metrics.atomicity_violations == 0
    assert metrics.commit_rate >= 0.95

    # The pins: sustained serving throughput and the windowed tail.
    assert accepted_per_sec >= MIN_ACCEPTED_PER_WALL_SECOND, (
        f"steady-state session sustained {accepted_per_sec:.2f} accepted "
        f"swaps per wall-second; the floor is {MIN_ACCEPTED_PER_WALL_SECOND:.2f}"
    )
    assert result.windows, "no windowed samples during a 20s session"
    assert 0.0 < max_p99 <= P99_CEILING_S, (
        f"windowed p99 peaked at {max_p99:.2f}s; ceiling {P99_CEILING_S}s"
    )

    record_store_timing(
        "service-steady-state",
        "service-steady-state",
        {"rate": ARRIVAL_RATE, "duration": DURATION_S},
        {
            "accepted": result.accepted,
            "wall_seconds": round(wall, 3),
            "swaps_per_second_wall": round(accepted_per_sec, 3),
            "committed": metrics.committed,
            "commit_rate": metrics.commit_rate,
            "atomicity_violations": metrics.atomicity_violations,
            "windowed_p99_max": round(max_p99, 3),
            "p99_latency": metrics.p99_latency,
        }
    )
