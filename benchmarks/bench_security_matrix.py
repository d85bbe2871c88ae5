"""The empirical security matrix: Section 6.3's depth rule, measured.

Runs the CI-sized ``security-smoke`` campaign (2 depths x 2 attacker
hashpowers x {nolan, ac3wn}) and checks the subsystem's acceptance
shape: the reorg attacker wins shallow-depth points against Nolan
(measured atomicity violations), AC3WN stays atomic at every
coordinate, and every cell with ``d >= required_depth`` is silent —
the analytic cost model and the measured surface agree.
"""

from repro.analysis.security import security_report
from repro.sweeps import run_sweep, sweep_spec
from repro.sweeps.figures import violation_rate_surface


def test_security_smoke_matrix(table_printer):
    result = run_sweep(sweep_spec("security-smoke"), workers=1)
    surface = violation_rate_surface(result)
    table_printer(
        "Security matrix (measured)",
        ["protocol", "d", "hashpower", "swaps", "attacks", "won", "violations",
         "cost ($)", "model safe"],
        [
            [
                cell.protocol,
                cell.depth,
                cell.hashpower,
                cell.total,
                cell.attacks_launched,
                cell.reorgs_won,
                cell.violations,
                f"{cell.attack_cost:,.0f}",
                cell.model_safe,
            ]
            for cell in surface
        ],
    )

    # Every model-safe cell is empirically silent: the depth rule holds.
    for cell in surface:
        if cell.model_safe:
            assert cell.violations == 0, (
                f"{cell.protocol} violated at model-safe depth {cell.depth}"
            )
            assert cell.attacks_launched == 0  # priced out, never launched

    # The attacker wins at least one shallow-depth point against Nolan.
    nolan_unsafe = [
        c for c in surface if c.protocol == "nolan" and not c.model_safe
    ]
    assert any(c.violations > 0 for c in nolan_unsafe)
    assert any(c.reorgs_won > 0 for c in nolan_unsafe)

    # AC3WN never settles non-atomically, even where the attacker wins.
    ac3wn = [c for c in surface if c.protocol == "ac3wn"]
    assert all(c.violations == 0 for c in ac3wn)
    assert any(c.reorgs_won > 0 for c in ac3wn)

    # The empirical-vs-analytic report agrees on every cell.
    assert all(row.agrees for row in security_report(result))
