"""Named service-session presets, mirroring the experiment preset catalog.

Presets are factories so every call returns a fresh spec; register new
ones with :func:`register_service_preset` without editing this file.
The stock presets are CI-sized (tens of swaps, tens of sim-seconds) —
steady Poisson serving, a compressed diurnal cycle, and a flash-crowd
session over a fee market.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..errors import SpecError
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

ServicePresetFactory = Callable[[], ServiceSpec]

_SERVICE_PRESETS: dict[str, tuple[ServicePresetFactory, str]] = {}


def register_service_preset(
    name: str,
    factory: ServicePresetFactory,
    description: str = "",
    replace: bool = False,
) -> None:
    """Register a named service preset (factory returning a fresh spec)."""
    if not replace and name in _SERVICE_PRESETS:
        raise SpecError(
            f"service preset {name!r} is already registered; "
            f"pass replace=True to override"
        )
    _SERVICE_PRESETS[name] = (factory, description)


def unregister_service_preset(name: str) -> None:
    """Remove a registered service preset (tests clean up)."""
    _SERVICE_PRESETS.pop(name, None)


def service_preset_names() -> tuple[str, ...]:
    """All registered service preset names, sorted."""
    return tuple(sorted(_SERVICE_PRESETS))


def service_preset_description(name: str) -> str:
    if name not in _SERVICE_PRESETS:
        raise SpecError(
            f"unknown service preset {name!r}; available: {service_preset_names()}"
        )
    return _SERVICE_PRESETS[name][1]


def service_preset_spec(name: str) -> ServiceSpec:
    """A fresh :class:`ServiceSpec` for a registered preset name."""
    if name not in _SERVICE_PRESETS:
        raise SpecError(
            f"unknown service preset {name!r}; available: {service_preset_names()}"
        )
    return _SERVICE_PRESETS[name][0]()


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


register_service_preset(
    "serve-steady",
    _serve_steady,
    "steady Poisson serving at 4 swaps/s for 20 s (AC3WN)",
)
register_service_preset(
    "serve-diurnal",
    _serve_diurnal,
    "compressed day/night cycle: peak 6 swaps/s, trough 20%",
)
register_service_preset(
    "serve-flash-crowd",
    _serve_flash_crowd,
    "fee-market world with periodic 4x flash-crowd bursts",
)
