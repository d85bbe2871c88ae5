"""The reproduction scorecard: each paper claim as one row.

:data:`CLAIMS` maps a stock campaign (:mod:`repro.sweeps.presets`) to
the claims it measures, and :func:`scorecard` turns the campaign's
:class:`~repro.sweeps.result.SweepResult` into one :class:`ClaimRow` per
claim: the analytic value (from the :mod:`repro.analysis` functions
``repro paper`` prints), the measured value, the tolerance and a
verdict: ``holds``, ``gap`` (the measured cell says by how much) or
``not measured`` (the points that ran cannot back the claim, and the
measured cell says why).  ``repro sweep`` prints the rows after its
table (:func:`render`); ``docs/reproduction.md`` holds them.  A claim
that does not reproduce stays a ``gap``: the tolerances are the
claim's, not the measurement's.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from ..analysis.cost import overhead_ratio
from ..analysis.latency import ac3wn_latency, crossover_diameter, herlihy_latency
from ..analysis.security import is_depth_safe, required_depth
from ..analysis.throughput import paper_example
from .result import PointResult, SweepResult

NOT_MEASURED = "not measured"
#: AC3WN is flat when its latency spreads less than one of its phases.
FLAT_SPREAD_DELTAS = 1.0
#: Herlihy's growth per unit of Diam(D) may miss 2Δ by this share.
SLOPE_TOLERANCE = 0.25


@dataclass(frozen=True)
class ClaimRow:
    """One paper claim against one campaign's measurement."""

    claim: str
    paper: str
    analytic: str
    measured: str
    tolerance: str
    verdict: str


def _judged(analytic: str, measured: str, tolerance: str, ok: bool):
    return analytic, measured, tolerance, "holds" if ok else "gap"


def _unmeasured(analytic: str, tolerance: str, reason: str):
    return analytic, f"{NOT_MEASURED}: {reason}", tolerance, NOT_MEASURED


def _by_protocol(sweep: SweepResult, *protocols: str) -> dict[str, list[PointResult]]:
    """The points of each named protocol that ran, in point order."""
    groups: dict[str, list[PointResult]] = {}
    for point in sweep.points:
        if point.spec["protocol"] in protocols:
            groups.setdefault(point.spec["protocol"], []).append(point)
    return groups


def _num(value: float) -> str:
    """Two decimals, trailing zeros dropped: 4, 2.5, 2.61."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _span(series: dict[int, float]) -> str:
    """``lo–hiΔ over D = a–b`` for a diameter → Δ series."""
    if len(series) == 1:
        ((diameter, value),) = series.items()
        return f"{_num(value)}Δ at D = {diameter}"
    lo, hi = min(series.values()), max(series.values())
    return f"{_num(lo)}–{_num(hi)}Δ over D = {min(series)}–{max(series)}"


def _diameter(point: PointResult) -> int:
    """A ``figure10`` point is a ring of D participants (and contracts)."""
    return point.spec["traffic"]["participants_per_swap"]


def _latencies(sweep: SweepResult, protocol: str) -> dict[int, float]:
    """Mean swap latency in Δ (confirmation depth × block interval) per
    diameter, ascending, for one protocol."""
    series = {}
    for point in _by_protocol(sweep, protocol).get(protocol, []):
        chains = point.spec["chains"]
        delta = chains["confirmation_depth"] * chains["block_interval"]
        series[_diameter(point)] = point.metrics["mean_latency"] / delta
    return dict(sorted(series.items()))


def _ac3wn_is_flat(sweep: SweepResult):
    analytic = f"{_num(ac3wn_latency())}Δ at every D"
    tolerance = f"max − min < {_num(FLAT_SPREAD_DELTAS)}Δ"
    measured = _latencies(sweep, "ac3wn")
    if len(measured) < 2:
        return _unmeasured(analytic, tolerance, "fewer than two AC3WN diameters")
    spread = max(measured.values()) - min(measured.values())
    text = f"{_span(measured)} (spread {_num(spread)}Δ)"
    return _judged(analytic, text, tolerance, spread < FLAT_SPREAD_DELTAS)


def _herlihy_grows(sweep: SweepResult):
    diameters = sorted({_diameter(point) for point in sweep.points}) or [2]
    analytic = "2Δ·D: " + _span({d: herlihy_latency(d) for d in diameters})
    tolerance = f"rising, slope within ±{SLOPE_TOLERANCE:.0%} of 2Δ per unit D"
    measured = _latencies(sweep, "herlihy")
    if len(measured) < 2:
        return _unmeasured(analytic, tolerance, "fewer than two Herlihy diameters")
    values = list(measured.values())
    rising = all(a < b for a, b in zip(values, values[1:]))
    first, last = min(measured), max(measured)
    slope = (measured[last] - measured[first]) / (last - first)
    text = f"{_span(measured)}, {'rising' if rising else 'not rising'}, {_num(slope)}Δ per unit D"
    return _judged(analytic, text, tolerance, rising and abs(slope - 2.0) <= 2.0 * SLOPE_TOLERANCE)


def _crossover(sweep: SweepResult):
    crossover = crossover_diameter()
    analytic = f"AC3WN faster at every D > {crossover} (equal at D = {crossover})"
    tolerance = "exact: the order at each D"
    herlihy, ac3wn = _latencies(sweep, "herlihy"), _latencies(sweep, "ac3wn")
    both = [d for d in herlihy if d in ac3wn]
    past = [d for d in both if d > crossover]
    if not past:
        return _unmeasured(analytic, tolerance, f"no D > {crossover} with both protocols")
    slower = [str(d) for d in past if ac3wn[d] >= herlihy[d]]
    if slower:
        text = f"AC3WN not faster at D = {', '.join(slower)}"
    else:
        text = f"AC3WN faster at D = {min(past)}–{max(past)}"
    text += "".join(
        f"; at D = {d} AC3WN {_num(ac3wn[d])}Δ, Herlihy {_num(herlihy[d])}Δ"
        for d in both
        if d <= crossover
    )
    return _judged(analytic, text, tolerance, not slower)


def _fee_ratio(sweep: SweepResult):
    points = _by_protocol(sweep, "herlihy", "ac3wn")
    herlihy, ac3wn = (
        {_diameter(p): p for p in points.get(name, [])} for name in ("herlihy", "ac3wn")
    )
    ratios = {n: 1.0 + overhead_ratio(n) for n in sorted({*herlihy, *ac3wn}) or [2]}
    lo, hi = min(ratios), max(ratios)
    analytic = f"(N+1)/N: {_num(ratios[lo])} … {_num(ratios[hi])} at N = {lo}–{hi}"
    tolerance = "exact (relative 1e-9)"
    # (N, AC3WN fees, Herlihy fees) per N both protocols ran.
    fees = [
        (n, ac3wn[n].metrics["total_fees"], herlihy[n].metrics["total_fees"])
        for n in sorted(herlihy)
        if n in ac3wn
    ]
    if not fees:
        return _unmeasured(analytic, tolerance, "no N with both Herlihy and AC3WN")
    off = [
        str(n) for n, paid, base in fees if not math.isclose(paid, base * ratios[n], rel_tol=1e-9)
    ]
    (n0, paid0, base0), (n1, paid1, base1) = fees[0], fees[-1]
    text = (
        f"{'off at N = ' + ', '.join(off) if off else 'equal'} "
        f"at N = {n0}–{n1} ({paid0}/{base0} … {paid1}/{base1})"
    )
    return _judged(analytic, text, tolerance, not off)


def _crash_window(sweep: SweepResult):
    analytic = "HTLC non-atomic only inside its timelock window; AC3WN atomic at every onset"
    tolerance = "exact: HTLC atomic at the first and last onset, AC3WN never violated"
    points = _by_protocol(sweep, "nolan", "ac3wn")
    if len(points) < 2:
        return _unmeasured(analytic, tolerance, "needs both Nolan and AC3WN points")
    htlc, ac3wn = (
        dict(
            sorted(
                (p.spec["traffic"]["crash"]["delay"], p.metrics["atomicity_violations"] > 0)
                for p in points[name]
            )
        )
        for name in ("nolan", "ac3wn")
    )
    window, onsets = [onset for onset, bad in htlc.items() if bad], list(htlc)
    text = (
        f"HTLC non-atomic at onsets {', '.join(f'{o:g}' for o in window) or 'none'} "
        f"of {onsets[0]:g}–{onsets[-1]:g} s; "
        f"AC3WN violated at {sum(ac3wn.values())} of {len(ac3wn)} onsets"
    )
    ok = window and not htlc[onsets[0]] and not htlc[onsets[-1]] and not any(ac3wn.values())
    return _judged(analytic, text, tolerance, bool(ok))


def _cells(sweep: SweepResult) -> tuple[str, list[tuple[PointResult, bool]]]:
    """The cost model's required depth(s), and every point with whether
    its depth prices the attack out."""
    cells, bounds = [], set()
    for point in sweep.points:
        reorg = point.spec["adversary"]["reorg"]
        model = (reorg["value_at_risk"], reorg["hourly_cost"], reorg["blocks_per_hour"])
        cells.append((point, is_depth_safe(point.spec["chains"]["confirmation_depth"], *model)))
        bounds.add(required_depth(*model))
    return "/".join(map(str, sorted(bounds))), cells


def _depth_rule(sweep: SweepResult):
    bound, cells = _cells(sweep)
    analytic = f"required_depth = {bound}: deeper, the attack costs more than Va"
    tolerance = "exact: 0 violations, 0 attacks launched"
    safe = [point.metrics for point, model_safe in cells if model_safe]
    if not safe:
        return _unmeasured(analytic, tolerance, f"no cell with d ≥ {bound}")
    violated = sum(1 for m in safe if m["atomicity_violations"])
    launched = sum(m["attacks_launched"] for m in safe)
    text = (
        f"{violated} of {len(safe)} cells with d ≥ {bound} violated; "
        f"{launched} attacks launched"
    )
    return _judged(analytic, text, tolerance, violated == 0 and launched == 0)


def _htlc_shallow(sweep: SweepResult):
    bound, cells = _cells(sweep)
    analytic = f"d < {bound}: the attack pays, so HTLC swaps can be split"
    tolerance = "≥ 1 violated cell per HTLC protocol"
    shallow: dict[str, list[dict]] = {}
    for point, model_safe in cells:
        if point.spec["protocol"] in ("nolan", "herlihy") and not model_safe:
            shallow.setdefault(point.spec["protocol"], []).append(point.metrics)
    if not shallow:
        return _unmeasured(analytic, tolerance, "no HTLC cell below the bound")
    violated = {p: sum(1 for m in ms if m["atomicity_violations"]) for p, ms in shallow.items()}
    won = sum(m["reorgs_won"] for ms in shallow.values() for m in ms)
    text = "; ".join(
        f"{p}: {violated[p]} of {len(ms)} cells violated" for p, ms in shallow.items()
    )
    return _judged(analytic, f"{text}; {won} reorgs won", tolerance, all(violated.values()))


def _witness_atomic(sweep: SweepResult):
    analytic = "0 violations in every cell (Lemma 5.3)"
    tolerance = "exact: 0 violations, with ≥ 1 reorg won per protocol"
    cells = _by_protocol(sweep, "ac3tw", "ac3wn")
    if not cells:
        return _unmeasured(analytic, tolerance, "no AC3TW or AC3WN cell")
    violations = sum(p.metrics["atomicity_violations"] for ps in cells.values() for p in ps)
    won = {name: sum(1 for p in ps if p.metrics["reorgs_won"]) for name, ps in cells.items()}
    text = f"{violations} violations in {sum(map(len, cells.values()))} cells; " + ", ".join(
        f"{name}: reorgs won in {n} cells" for name, n in won.items()
    )
    if violations == 0 and not all(won.values()):
        return _unmeasured(analytic, tolerance, text)
    return _judged(analytic, text, tolerance, violations == 0)


def _min_rule(sweep: SweepResult):
    example = paper_example()
    analytic = (
        f"{example.tps} tps for {'+'.join(example.asset_chains)} "
        f"witnessed by {example.witness_chain}"
    )
    return _unmeasured(analytic, "exact", "the campaign runs one block rate on every chain")


_SECURITY = (
    ("every cell at d ≥ required_depth is silent", "§6.3", _depth_rule),
    ("HTLC protocols are violated at shallow d", "§6.3, §1", _htlc_shallow),
    ("AC3TW/AC3WN are atomic in every cell", "Lemma 5.3", _witness_atomic),
)

#: Campaign name -> the claims it measures: (claim, paper reference,
#: measure), where measure maps the campaign's result to (analytic,
#: measured, tolerance, verdict).
CLAIMS = {
    "figure10": (
        ("AC3WN latency is flat in Diam(D)", "§6.1, Fig. 10", _ac3wn_is_flat),
        ("Herlihy latency grows with Diam(D)", "§6.1, Fig. 10", _herlihy_grows),
        ("AC3WN is faster past the crossover", "§6.1, Fig. 10", _crossover),
        ("AC3WN/Herlihy fee ratio is (N+1)/N", "§6.2", _fee_ratio),
    ),
    "crash-matrix": (
        ("a crash past a timelock splits an HTLC swap, never an AC3WN one",
         "§1, Lemma 5.1", _crash_window),
    ),
    "security-matrix": _SECURITY,
    "security-smoke": _SECURITY,
    "table1": (("AC2T throughput is the min over its chains", "§6.4, Table 1", _min_rule),),
}


def scorecard(sweep: SweepResult) -> list[ClaimRow]:
    """The rows of the claims ``sweep``'s campaign measures, in order
    (none for a campaign that backs no claim)."""
    return [
        ClaimRow(claim, paper, *measure(sweep))
        for claim, paper, measure in CLAIMS.get(sweep.spec.name, ())
    ]


def render(rows: list[ClaimRow]) -> str:
    """The rows as a Markdown table: what ``repro sweep`` prints."""
    lines = ["| claim | paper | analytic | measured | tolerance | verdict |", "|---" * 6 + "|"]
    lines += ["| " + " | ".join(astuple(row)) + " |" for row in rows]
    return "\n".join(lines) + "\n"
