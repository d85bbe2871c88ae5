"""Named service-session presets, mirroring the experiment preset catalog.

Presets are factories so every call returns a fresh spec; a new one is
an entry in :data:`SERVICE_PRESETS`.  The stock presets are CI-sized
(tens of swaps, tens of sim-seconds) — steady Poisson serving, a
compressed diurnal cycle, and a flash-crowd session over a fee market.
"""

from __future__ import annotations

import dataclasses

from .. import serde
from ..experiment.spec import (
    ChainsSpec,
    ExperimentSpec,
    FeeBudgetSpec,
    FeeMarketSpec,
    MetricsSpec,
    ObsSpec,
    TrafficSpec,
)
from .spec import ServiceSpec, SourceSpec


def service_preset_names() -> tuple[str, ...]:
    """All service preset names, sorted."""
    return tuple(SERVICE_PRESETS)


def service_preset_spec(name: str) -> ServiceSpec:
    """A fresh :class:`ServiceSpec` for a service preset name."""
    return serde.lookup(SERVICE_PRESETS, name, "service preset")[0]()


def _serve_world(seed: int) -> ExperimentSpec:
    """The shared CI-sized world: two fast chains + witness, live
    windowed metrics on, two-party swaps so every protocol can serve."""
    return ExperimentSpec(
        name="service-world",
        seed=seed,
        protocol="ac3wn",
        chains=ChainsSpec(block_interval=1.0, confirmation_depth=2),
        traffic=TrafficSpec(participants_per_swap=2),
        obs=ObsSpec(metrics=MetricsSpec(enabled=True)),
    )


def _serve_steady() -> ServiceSpec:
    return ServiceSpec(
        name="serve-steady",
        world=_serve_world(seed=1200),
        sources=(SourceSpec(kind="poisson", name="steady", rate=4.0),),
        capacity=128,
        duration=20.0,
        metrics_window=10.0,
        metrics_interval=5.0,
    )


def _serve_diurnal() -> ServiceSpec:
    return ServiceSpec(
        name="serve-diurnal",
        world=_serve_world(seed=1201),
        sources=(
            SourceSpec(
                kind="diurnal",
                name="daily",
                rate=6.0,
                period=10.0,
                trough=0.2,
            ),
        ),
        capacity=128,
        duration=20.0,
        metrics_window=10.0,
        metrics_interval=5.0,
    )


def _serve_flash_crowd() -> ServiceSpec:
    world = dataclasses.replace(
        _serve_world(seed=1202), fee_market=FeeMarketSpec(enabled=True)
    )
    return ServiceSpec(
        name="serve-flash-crowd",
        world=world,
        sources=(
            SourceSpec(
                kind="flash-crowd",
                name="crowd",
                rate=2.0,
                burst_at=4.0,
                burst_every=8.0,
                burst_duration=3.0,
                burst_multiplier=4.0,
                fee_budget=FeeBudgetSpec(cap=4000, fee_rate=None),
            ),
        ),
        capacity=128,
        duration=20.0,
        metrics_window=10.0,
        metrics_interval=5.0,
    )


#: The service preset catalog, name -> (factory, description), sorted.
SERVICE_PRESETS = {
    "serve-diurnal": (
        _serve_diurnal,
        "compressed day/night cycle: peak 6 swaps/s, trough 20%",
    ),
    "serve-flash-crowd": (
        _serve_flash_crowd,
        "fee-market world with periodic 4x flash-crowd bursts",
    ),
    "serve-steady": (
        _serve_steady,
        "steady Poisson serving at 4 swaps/s for 20 s (AC3WN)",
    ),
}
