"""Sweep-orchestration scaling: points/sec at 1 vs N workers.

The sweep subsystem's contract is throughput-through-parallel-execution
*without* giving up reproducibility: a campaign's aggregate artifact
must be byte-identical whatever the worker count or completion order.
This benchmark measures both halves on a small congestion arrival-rate
campaign — points/sec for the in-process path vs a worker pool, and the
byte-level equality of the two aggregates.

Speedup is reported, not asserted: CI machines (and this container) may
expose a single core, where a pool can only break even.  The equality
assertion is the load-bearing one.

When ``BENCH_STORE_DB`` is set, the measured points/sec rows append to
a ``sweep-scaling`` campaign in that campaign database (one campaign
per run), joining the ``engine-scale`` campaign in the tracked perf
trajectory.
"""

import dataclasses
import multiprocessing
import time

from repro.experiment import apply_overrides
from repro.sweeps import SweepAxis, SweepRunner, sweep_spec

from conftest import record_store_timing

#: Trimmed campaign: the stock 6-rate congestion sweep over fewer swaps,
#: so the benchmark measures orchestration, not one giant simulation.
SMOKE_SWAPS = 16

POOL_WORKERS = max(2, min(4, multiprocessing.cpu_count()))


def _smoke_sweep():
    spec = sweep_spec("congestion-rates")
    # Shrink the block-space budget along with the traffic so the
    # oversubscribed end of the rate axis still prices swaps out.
    return dataclasses.replace(
        spec,
        name="congestion-rates-smoke",
        base=apply_overrides(
            spec.base,
            {
                "traffic.num_swaps": SMOKE_SWAPS,
                "fee_market.block_weight_budget": 8,
                "fee_market.capacity_weight": 48,
            },
        ),
    )


def test_sweep_scaling(table_printer):
    """1 worker vs a pool: identical bytes, measured points/sec."""
    spec = _smoke_sweep()
    points = spec.num_points()

    t0 = time.perf_counter()
    serial = SweepRunner(spec, workers=1).run()
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = SweepRunner(spec, workers=POOL_WORKERS).run()
    pooled_s = time.perf_counter() - t0

    for workers, wall in ((1, serial_s), (POOL_WORKERS, pooled_s)):
        record_store_timing(
            "sweep-scaling",
            f"sweep-scaling[workers={workers}]",
            {"workers": workers},
            {
                "workers": workers,
                "num_points": points,
                "wall_seconds": round(wall, 3),
                "points_per_second": round(points / wall, 3),
            },
        )

    table_printer(
        f"Sweep scaling: {points}-point congestion campaign "
        f"({SMOKE_SWAPS} swaps/point)",
        ["workers", "wall (s)", "points/s"],
        [
            [1, f"{serial_s:.1f}", f"{points / serial_s:.2f}"],
            [POOL_WORKERS, f"{pooled_s:.1f}", f"{points / pooled_s:.2f}"],
        ],
    )
    # The load-bearing guarantee: worker count and scheduling order
    # never leak into the campaign artifact.
    assert serial.to_json() == pooled.to_json()
    assert serial.to_csv() == pooled.to_csv()
    assert len(serial.points) == points
    assert serial.atomicity_violations == 0
    # Congestion economics survive the trim: somebody got priced out at
    # the oversubscribed end of the rate axis.
    assert sum(row["priced_out"] for row in serial.rows()) > 0


def test_single_point_sweep_stays_in_process():
    """A one-point campaign short-circuits the pool entirely."""
    spec = _smoke_sweep()
    one = dataclasses.replace(
        spec,
        name="one-point",
        axes=(SweepAxis(name="rate", path="traffic.rate", values=(12.0,)),),
    )
    result = SweepRunner(one, workers=8).run()
    assert len(result.points) == 1
    assert result.points[0].metrics["total"] == SMOKE_SWAPS
