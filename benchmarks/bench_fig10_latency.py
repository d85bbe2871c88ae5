"""E3 — Figure 10: overall AC2T latency (in Δs) vs graph diameter.

The paper's headline result: Herlihy's protocol is linear in Diam(D)
(2·Δ·Diam) while AC3WN is constant (4·Δ).  We reproduce the figure two
ways: the analytical series, and *measured* end-to-end runs of both
protocols on the simulator for each diameter, reported in Δ units.
"""

import pytest

from repro.analysis.latency import ac3wn_latency, figure10_series, herlihy_latency
from repro.experiment import apply_overrides, preset_spec, run_experiment
from repro.sweeps import SweepRunner, sweep_spec
from repro.sweeps.figures import figure10_curves

from conftest import print_table

MEASURED_DIAMETERS = [2, 3, 4, 5, 6]
ANALYTIC_MAX_DIAMETER = 14


def _measured_latency(protocol: str, diameter: int, seed: int) -> float:
    """Run one swap end-to-end via the ``figure10`` preset; latency in Δs.

    A ring AC2T of ``diameter`` participants over ``diameter`` chains —
    the preset's single measured point, swept by overriding the chain
    set and participants-per-swap together.
    """
    spec = apply_overrides(
        preset_spec("figure10"),
        {
            "protocol": protocol,
            "seed": seed,
            "chains.ids": [f"c{i}" for i in range(diameter)],
            "traffic.participants_per_swap": diameter,
        },
    )
    delta = 2.0  # confirmation_depth(2) × block_interval(1s)
    result = run_experiment(spec)
    (outcome,) = result.outcomes
    assert outcome.decision == "commit", outcome.summary()
    return outcome.latency / delta


def test_figure10_analytic(benchmark, table_printer):
    series = benchmark(figure10_series, ANALYTIC_MAX_DIAMETER)
    rows = [
        [p.diameter, p.herlihy_deltas, p.ac3wn_deltas, f"{p.speedup:.1f}x"]
        for p in series
    ]
    table_printer(
        "Figure 10 (analytic): AC2T latency in Δs vs Diam(D)",
        ["Diam(D)", "Herlihy (2·Δ·Diam)", "AC3WN (4·Δ)", "speedup"],
        rows,
    )
    assert all(p.ac3wn_deltas == 4.0 for p in series)
    assert series[-1].herlihy_deltas == 2.0 * ANALYTIC_MAX_DIAMETER


@pytest.mark.parametrize("diameter", MEASURED_DIAMETERS)
def test_figure10_measured_point(benchmark, diameter):
    """Measured latency for one diameter, both protocols.

    Shape check: Herlihy's measured latency grows with the diameter and
    exceeds AC3WN's for Diam > 2 (the paper's crossover).
    """

    def run_both():
        herlihy = _measured_latency("herlihy", diameter, seed=100 + diameter)
        ac3wn = _measured_latency("ac3wn", diameter, seed=200 + diameter)
        return herlihy, ac3wn

    herlihy_deltas, ac3wn_deltas = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(
        f"\nDiam={diameter}: Herlihy {herlihy_deltas:.1f}Δ "
        f"(paper {herlihy_latency(diameter):.0f}Δ) | "
        f"AC3WN {ac3wn_deltas:.1f}Δ (paper {ac3wn_latency(diameter):.0f}Δ)"
    )
    if diameter > 2:
        assert herlihy_deltas > ac3wn_deltas
    # AC3WN stays within a constant band regardless of diameter.
    assert ac3wn_deltas < 8.0


def test_figure10_measured_series(table_printer):
    """The full measured figure from the ``figure10`` sweep campaign.

    A thin consumer: the sweep subsystem expands protocol × diameter,
    runs every point, and :func:`repro.sweeps.figures.figure10_curves` extracts
    the per-protocol series — the same one command
    (``repro sweep --preset figure10``) regenerates from the CLI.
    """
    result = SweepRunner(sweep_spec("figure10"), workers=1).run()
    curves = figure10_curves(result)
    rows = []
    for diameter in MEASURED_DIAMETERS:
        herlihy = next(s for s in curves["herlihy"] if s.diameter == diameter)
        ac3wn = next(s for s in curves["ac3wn"] if s.diameter == diameter)
        rows.append(
            [
                diameter,
                f"{herlihy.latency_deltas:.1f}",
                f"{herlihy_latency(diameter):.0f}",
                f"{ac3wn.latency_deltas:.1f}",
                f"{ac3wn_latency(diameter):.0f}",
            ]
        )
    table_printer(
        "Figure 10 (measured via the figure10 sweep): latency in Δs",
        ["Diam(D)", "Herlihy meas.", "Herlihy paper", "AC3WN meas.", "AC3WN paper"],
        rows,
    )
    assert result.atomicity_violations == 0
    # Every executed point committed, for all four protocols.
    assert set(curves) == {"nolan", "herlihy", "ac3tw", "ac3wn"}
    assert all(s.decision == "commit" for series in curves.values() for s in series)
    # Nolan is strictly two-party: its diameter > 2 cells were skipped,
    # visibly, not silently.
    assert [s.diameter for s in curves["nolan"]] == [2]
    assert len(result.skipped) == len(MEASURED_DIAMETERS) - 1
    herlihy_curve = [s.latency_deltas for s in curves["herlihy"]]
    ac3wn_curve = [s.latency_deltas for s in curves["ac3wn"]]
    # Monotone growth vs flatness — the paper's headline contrast.
    assert herlihy_curve == sorted(herlihy_curve)
    assert max(ac3wn_curve) - min(ac3wn_curve) < 2.0
