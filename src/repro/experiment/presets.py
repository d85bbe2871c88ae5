"""The named preset catalog: every stock scenario as a spec.

A preset is a factory returning a fresh :class:`~repro.experiment.spec.ExperimentSpec`
— the same worlds the CLI subcommands and per-PR benchmarks used to
assemble by hand, now described declaratively and shared by all of
them.  Presets compose with dotted-path overrides::

    spec = preset_spec("congestion")
    spec = apply_overrides(spec, {"traffic.num_swaps": 60})

Register project-specific presets with :func:`register_preset`.
"""

from __future__ import annotations

from typing import Callable

from ..adversary import AdversarySpec, ReorgAttackSpec
from ..errors import SpecError
from .spec import (
    ChainsSpec,
    CrashSpec,
    ExperimentSpec,
    FeeMarketSpec,
    FeeShockSpec,
    TrafficSpec,
)

PresetFactory = Callable[[], ExperimentSpec]

_PRESETS: dict[str, tuple[PresetFactory, str]] = {}


def register_preset(
    name: str, factory: PresetFactory, description: str = "", replace: bool = False
) -> None:
    """Register a named preset (a zero-arg factory returning a spec)."""
    if name in _PRESETS and not replace:
        raise SpecError(f"preset {name!r} is already registered")
    _PRESETS[name] = (factory, description)


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset_description(name: str) -> str:
    return _PRESETS[name][1] if name in _PRESETS else ""


def preset_spec(name: str) -> ExperimentSpec:
    """A fresh spec for a named preset."""
    if name not in _PRESETS:
        raise SpecError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return _PRESETS[name][0]()


# ---------------------------------------------------------------------------
# Stock presets
# ---------------------------------------------------------------------------


def _swap() -> ExperimentSpec:
    """One two-party AC3WN swap — the quickstart scenario."""
    return ExperimentSpec(
        name="swap",
        seed=0,
        protocol="ac3wn",
        chains=ChainsSpec(ids=("chain-0", "chain-1")),
        traffic=TrafficSpec(generator="poisson", num_swaps=1, rate=1.0),
    )


def _engine_smoke() -> ExperimentSpec:
    """50 mixed-protocol AC2Ts over three shared chains (the per-PR
    throughput-regression tripwire)."""
    return ExperimentSpec(
        name="engine-smoke",
        seed=90,
        protocol="mixed",
        chains=ChainsSpec(ids=("c0", "c1", "c2")),
        traffic=TrafficSpec(generator="poisson", num_swaps=50, rate=10.0),
    )


def _congestion() -> ExperimentSpec:
    """Oversubscribed fee market: 60 swaps at 12/s against a block
    budget of 16 — congestion prices the low-budget class out.

    Mempool-eviction hooks plus the deterministic per-swap submission
    jitter de-herd the post-block bursts: ~9% low-budget / ~96%
    high-budget commit.
    """
    return ExperimentSpec(
        name="congestion",
        seed=0,
        protocol="ac3wn",
        chains=ChainsSpec(ids=("chain-0", "chain-1")),
        fee_market=FeeMarketSpec(
            enabled=True, block_weight_budget=16, capacity_weight=96
        ),
        traffic=TrafficSpec(generator="congestion", num_swaps=60, rate=12.0),
    )


def _table1() -> ExperimentSpec:
    """Measured swap-level throughput: 40 AC2Ts at 8/s over three asset
    chains (the engine-side counterpart of Table 1's min() rule)."""
    return ExperimentSpec(
        name="table1",
        seed=60,
        protocol="ac3wn",
        chains=ChainsSpec(ids=("c0", "c1", "c2")),
        traffic=TrafficSpec(generator="poisson", num_swaps=40, rate=8.0),
    )


def _figure10() -> ExperimentSpec:
    """One measured Figure 10 point: a diameter-4 ring swap.  Override
    ``chains.count`` + ``traffic.participants_per_swap`` (kept equal)
    to sweep the diameter, and ``protocol`` to compare curves."""
    return ExperimentSpec(
        name="figure10",
        seed=0,
        protocol="ac3wn",
        chains=ChainsSpec(ids=("c0", "c1", "c2", "c3")),
        traffic=TrafficSpec(
            generator="poisson", num_swaps=1, rate=1.0, participants_per_swap=4
        ),
    )


def _crash() -> ExperimentSpec:
    """Mixed-protocol traffic with mid-protocol crash injection: a
    quarter of the swaps lose one participant (never recovers)."""
    return ExperimentSpec(
        name="crash",
        seed=0,
        protocol="mixed",
        chains=ChainsSpec(ids=("chain-0", "chain-1")),
        traffic=TrafficSpec(
            generator="poisson",
            num_swaps=24,
            rate=6.0,
            crash=CrashSpec(rate=0.25),
        ),
    )


def _fee_shock() -> ExperimentSpec:
    """The congestion scenario plus a whale demand burst on the witness
    chain five seconds in — the bump-or-abort stress test."""
    return ExperimentSpec(
        name="fee-shock",
        seed=0,
        protocol="ac3wn",
        chains=ChainsSpec(ids=("chain-0", "chain-1")),
        fee_market=FeeMarketSpec(
            enabled=True, block_weight_budget=16, capacity_weight=96
        ),
        traffic=TrafficSpec(generator="congestion", num_swaps=60, rate=12.0),
        fee_shocks=(FeeShockSpec(at=5.0, count=32, fee_rate=8),),
    )


def _security() -> ExperimentSpec:
    """One security-matrix cell: open-loop traffic under a budgeted
    reorg attacker (Section 6.3's rented 51% attack).

    The cost model (``Va=175k``, ``Ch=300k``, ``dh=6``) gives
    ``required_depth = 4`` and an attack budget of 3 private blocks, so
    sweeping ``chains.confirmation_depth`` and
    ``adversary.reorg.hashpower`` around those numbers reproduces the
    depth-vs-cost trade-off empirically (the ``security-matrix`` sweep).
    """
    return ExperimentSpec(
        name="security",
        seed=7,
        protocol="ac3wn",
        chains=ChainsSpec(ids=("chain-0", "chain-1"), confirmation_depth=2),
        traffic=TrafficSpec(generator="poisson", num_swaps=12, rate=4.0),
        adversary=AdversarySpec(
            reorg=ReorgAttackSpec(
                enabled=True,
                hashpower=2.0,
                value_at_risk=175_000.0,
                hourly_cost=300_000.0,
                blocks_per_hour=6.0,
            )
        ),
    )


register_preset("swap", _swap, "one two-party AC3WN swap")
register_preset(
    "engine-smoke", _engine_smoke, "50 mixed-protocol concurrent AC2Ts (CI tripwire)"
)
register_preset(
    "congestion", _congestion, "oversubscribed fee market: 60 swaps @ 12/s, budget 16"
)
register_preset("table1", _table1, "measured swap throughput: 40 AC2Ts @ 8/s")
register_preset("figure10", _figure10, "one measured Figure 10 latency point")
register_preset("crash", _crash, "mixed traffic with 25% mid-protocol crashes")
register_preset(
    "security", _security, "traffic under a budgeted witness-reorg attacker"
)
register_preset("fee-shock", _fee_shock, "congestion plus a whale demand burst")
