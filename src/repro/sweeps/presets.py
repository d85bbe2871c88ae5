"""The named sweep catalog: every paper figure as one campaign spec.

Mirrors the experiment preset registry: a sweep preset is a zero-arg
factory returning a fresh :class:`~repro.sweeps.spec.SweepSpec`, so the
CLI (``repro sweep --preset NAME``), the benchmarks, and CI all
regenerate the same figures from the same declarative descriptions.
Register project-specific campaigns with :func:`register_sweep`.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SpecError
from ..experiment.presets import preset_spec
from .spec import SweepAxis, SweepSpec

SweepFactory = Callable[[], SweepSpec]

_SWEEPS: dict[str, tuple[SweepFactory, str]] = {}


def register_sweep(
    name: str, factory: SweepFactory, description: str = "", replace: bool = False
) -> None:
    """Register a named sweep (a zero-arg factory returning a SweepSpec)."""
    if name in _SWEEPS and not replace:
        raise SpecError(f"sweep {name!r} is already registered")
    _SWEEPS[name] = (factory, description)


def unregister_sweep(name: str) -> None:
    """Remove a plug-in sweep from the catalog."""
    _SWEEPS.pop(name, None)


def sweep_names() -> tuple[str, ...]:
    return tuple(sorted(_SWEEPS))


def sweep_description(name: str) -> str:
    return _SWEEPS[name][1] if name in _SWEEPS else ""


def sweep_spec(name: str) -> SweepSpec:
    """A fresh spec for a named sweep."""
    if name not in _SWEEPS:
        raise SpecError(
            f"unknown sweep {name!r}; available: {', '.join(sweep_names())}"
        )
    return _SWEEPS[name][0]()


# ---------------------------------------------------------------------------
# Stock campaigns — the paper's figures
# ---------------------------------------------------------------------------

FIGURE10_DIAMETERS = (2, 3, 4, 5, 6)
CRASH_ONSETS = (0.0, 2.0, 3.0, 4.5, 12.0)
CONGESTION_RATES = (6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
SECURITY_DEPTHS = (1, 2, 3, 4)
SECURITY_HASHPOWERS = (2.0, 6.0)


def _figure10() -> SweepSpec:
    """Figure 10, measured: latency vs swap diameter for every protocol.

    The diameter axis moves the chain set and the participants-per-swap
    together (a diameter-D ring over D chains); the protocol axis covers
    all four drivers.  Nolan is strictly two-party, so its diameter > 2
    cells are dropped by ``drop_invalid`` — visible in the artifact's
    ``skipped`` list rather than silently absent.
    """
    return SweepSpec(
        name="figure10",
        base=preset_spec("figure10"),
        axes=(
            SweepAxis(
                name="protocol",
                path="protocol",
                values=("nolan", "herlihy", "ac3tw", "ac3wn"),
            ),
            SweepAxis(
                name="diameter",
                values=tuple(
                    {
                        "chains.ids": [f"c{i}" for i in range(d)],
                        "traffic.participants_per_swap": d,
                    }
                    for d in FIGURE10_DIAMETERS
                ),
                labels=tuple(str(d) for d in FIGURE10_DIAMETERS),
            ),
        ),
        mode="grid",
        drop_invalid=True,
    )


def _table1() -> SweepSpec:
    """Table 1, measured: engine swap-level throughput per protocol
    (40 open-loop AC2Ts at 8/s over three shared chains each)."""
    return SweepSpec(
        name="table1",
        base=preset_spec("table1"),
        axes=(
            SweepAxis(
                name="protocol",
                path="protocol",
                values=("nolan", "herlihy", "ac3tw", "ac3wn"),
            ),
        ),
        # One workload measured under four protocols: same seed (and so
        # the same arrival schedule) for every point.
        derive_seeds=False,
    )


def _crash_matrix() -> SweepSpec:
    """Section 1's crash comparison: Bob crashes at each onset, under
    Nolan (HTLC) and AC3WN.

    Seeds ride on the onset axis (one seed per onset, shared by both
    protocols) to reproduce the pinned cells:
    onsets 2.0/3.0 land in the HTLC vulnerability window and settle
    non-atomically; AC3WN aborts or commits cleanly everywhere.
    """
    return SweepSpec(
        name="crash-matrix",
        base=preset_spec("swap"),
        axes=(
            SweepAxis(
                name="onset",
                values=tuple(
                    {
                        "traffic.crash.participant": "b",
                        "traffic.crash.delay": onset,
                        "traffic.crash.down_for": 500.0,
                        "seed": index,
                    }
                    for index, onset in enumerate(CRASH_ONSETS)
                ),
                labels=tuple(str(onset) for onset in CRASH_ONSETS),
            ),
            SweepAxis(name="protocol", path="protocol", values=("nolan", "ac3wn")),
        ),
        mode="grid",
        derive_seeds=False,
    )


def _congestion_rates() -> SweepSpec:
    """The congestion arrival-rate sweep: the oversubscribed fee market
    measured from under- to over-subscription (6 → 16 swaps/s)."""
    return SweepSpec(
        name="congestion-rates",
        base=preset_spec("congestion"),
        axes=(
            SweepAxis(name="rate", path="traffic.rate", values=CONGESTION_RATES),
        ),
        # Same seed per point: the rate is the only moving part.
        derive_seeds=False,
    )


def _security_matrix() -> SweepSpec:
    """Section 6.3, measured: depth ``d`` x attacker hashpower x protocol
    under the budgeted reorg attacker.

    The base cost model pins ``required_depth = 4`` (budget 3 private
    blocks per attack), so the surface shows the measured violation
    rate falling to zero once ``d`` reaches the analytic bound: the
    HTLC protocols bleed at shallow depth while the witness protocols
    stay atomic everywhere — the paper's depth-``d`` defense, end to
    end.  Same seed for every point, so each protocol faces the same
    arrival schedule at every coordinate.
    """
    return SweepSpec(
        name="security-matrix",
        base=preset_spec("security"),
        axes=(
            SweepAxis(
                name="depth",
                path="chains.confirmation_depth",
                values=SECURITY_DEPTHS,
            ),
            SweepAxis(
                name="hashpower",
                path="adversary.reorg.hashpower",
                values=SECURITY_HASHPOWERS,
            ),
            SweepAxis(
                name="protocol",
                path="protocol",
                values=("nolan", "herlihy", "ac3tw", "ac3wn"),
            ),
        ),
        mode="grid",
        derive_seeds=False,
    )


def _security_smoke() -> SweepSpec:
    """The CI-sized security matrix: 2 depths x 2 hashpowers over the
    most informative protocol pair (Nolan bleeds, AC3WN holds)."""
    return SweepSpec(
        name="security-smoke",
        base=preset_spec("security"),
        axes=(
            SweepAxis(
                name="depth", path="chains.confirmation_depth", values=(1, 4)
            ),
            SweepAxis(
                name="hashpower",
                path="adversary.reorg.hashpower",
                values=SECURITY_HASHPOWERS,
            ),
            SweepAxis(name="protocol", path="protocol", values=("nolan", "ac3wn")),
        ),
        mode="grid",
        derive_seeds=False,
    )


register_sweep(
    "figure10",
    _figure10,
    "measured latency vs diameter, all four protocols (Figure 10)",
)
register_sweep(
    "table1", _table1, "measured engine throughput per protocol (Table 1)"
)
register_sweep(
    "crash-matrix",
    _crash_matrix,
    "crash onset x protocol decision matrix (Section 1)",
)
register_sweep(
    "congestion-rates",
    _congestion_rates,
    "fee-market commit/priced-out vs arrival rate (6 points)",
)
register_sweep(
    "security-matrix",
    _security_matrix,
    "violation rate vs depth d x attacker hashpower x protocol (Section 6.3)",
)
register_sweep(
    "security-smoke",
    _security_smoke,
    "CI-sized security matrix: 2 depths x 2 hashpowers, nolan vs ac3wn",
)
