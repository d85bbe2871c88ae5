"""Traffic-generator registry: pluggable workloads for experiment specs.

A traffic generator turns an :class:`~repro.experiment.spec.ExperimentSpec`
into the list of :class:`~repro.workloads.scenarios.TrafficItem` the
engine will execute.  Generators register by name; a spec selects one
via ``traffic.generator``, so new workloads plug in without editing the
spec schema or the runner:

    from repro.experiment import register_traffic

    def burst(spec):
        ...
        return items

    register_traffic("burst", burst)

The built-in generators are the two workload families: ``"poisson"``
(homogeneous open-loop arrivals, optional uniform fee budget) and
``"congestion"`` (heterogeneous LOW/HIGH fee-budget classes) — one call
of :func:`~repro.workloads.scenarios.swap_traffic` over the spec's
traffic section, under two budget samplers.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

from ..errors import SpecError
from ..workloads.scenarios import (
    HIGH_FEE_BUDGET,
    LOW_FEE_BUDGET,
    CrashPlan,
    TrafficItem,
    congestion_budgets,
    role_name,
    swap_traffic,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .spec import ExperimentSpec

TrafficGenerator = Callable[["ExperimentSpec"], list[TrafficItem]]

_TRAFFIC_REGISTRY: dict[str, TrafficGenerator] = {}


def register_traffic(
    name: str, generator: TrafficGenerator, replace: bool = False
) -> None:
    """Register a traffic generator under ``name``."""
    if name in _TRAFFIC_REGISTRY and not replace:
        raise SpecError(f"traffic generator {name!r} is already registered")
    _TRAFFIC_REGISTRY[name] = generator


def unregister_traffic(name: str) -> None:
    """Remove a plug-in generator from the registry."""
    _TRAFFIC_REGISTRY.pop(name, None)


def registered_traffic() -> tuple[str, ...]:
    """Every registered generator name, registration order."""
    return tuple(_TRAFFIC_REGISTRY)


def traffic_generator(name: str) -> TrafficGenerator:
    generator = _TRAFFIC_REGISTRY.get(name)
    if generator is None:
        raise SpecError(
            f"unknown traffic generator {name!r}; registered: "
            f"{', '.join(sorted(_TRAFFIC_REGISTRY))}"
        )
    return generator


# ---------------------------------------------------------------------------
# Built-in generators
# ---------------------------------------------------------------------------


def _explicit_crashes(spec: "ExperimentSpec", items: list[TrafficItem]) -> list[TrafficItem]:
    """Attach the spec's deterministic crash plan (if any) to every swap.

    A single-letter ``crash.participant`` is resolved per swap against
    that swap's namespaced roles (``swap0007.b``); longer names are used
    verbatim.
    """
    crash = spec.traffic.crash
    if crash.participant is None:
        return items
    out: list[TrafficItem] = []
    for item in items:
        names = item.graph.participant_names()
        victim = role_name(names, crash.participant)
        if victim is None:
            if len(crash.participant) == 1:
                raise SpecError(
                    f"traffic.crash.participant {crash.participant!r} matches "
                    f"no role of swap participants {names}"
                )
            victim = crash.participant
        out.append(
            dataclasses.replace(
                item,
                crash=CrashPlan(
                    participant=victim, delay=crash.delay, down_for=crash.down_for
                ),
            )
        )
    return out


def _spec_traffic(spec: "ExperimentSpec", budget_sampler) -> list[TrafficItem]:
    """:func:`swap_traffic` over the spec's traffic section."""
    t = spec.traffic
    items = swap_traffic(
        t.num_swaps,
        rate=t.rate,
        seed=spec.seed,
        chain_ids=list(spec.chains.asset_ids()),
        participants_per_swap=t.participants_per_swap,
        amount=t.amount,
        start=t.start,
        prefix=t.prefix,
        crash_rate=t.crash.rate,
        crash_window=t.crash.window,
        crash_down_for=t.crash.down_for,
        budget_sampler=budget_sampler,
    )
    return _explicit_crashes(spec, items)


def _poisson(spec: "ExperimentSpec") -> list[TrafficItem]:
    if spec.traffic.fee_budget is None:
        return _spec_traffic(spec, None)
    budget = spec.traffic.fee_budget.build()
    return _spec_traffic(spec, lambda _stream: budget)


def _congestion(spec: "ExperimentSpec") -> list[TrafficItem]:
    t = spec.traffic
    low = LOW_FEE_BUDGET if t.low_budget is None else t.low_budget.build()
    high = HIGH_FEE_BUDGET if t.high_budget is None else t.high_budget.build()
    return _spec_traffic(spec, congestion_budgets(t.low_fee_share, low, high))


register_traffic("poisson", _poisson)
register_traffic("congestion", _congestion)
