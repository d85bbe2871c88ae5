"""A closed world leaves no cyclic garbage.

A world's parts refer to each other: a driver's completion callback to
the engine that holds its request, every queued event to its queue, a
chain's listeners to what they watch, the monitor to the collector whose
sink it is, the engine to its adversary roster.  A driver that finishes,
and a world that closes, break each cycle, so a dropped world is freed
by reference counting, not left for a gen-2 collection.  The census: run
with the cyclic collector off, close and drop, then collect once under
``gc.DEBUG_SAVEALL`` and look for ``repro`` objects among the
unreachable ones.
"""

import dataclasses
import gc

import pytest

from repro.experiment import apply_overrides, preset_spec, run_experiment
from repro.service import SwapService
from repro.service.presets import service_preset_spec


def repro_garbage(build) -> list[str]:
    """Type names of the ``repro`` objects a collection frees once what
    ``build()`` made is dropped."""
    gc.collect()
    gc.disable()
    try:
        build()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    found = sorted(
        {type(o).__qualname__ for o in gc.garbage if type(o).__module__.startswith("repro")}
    )
    gc.garbage.clear()
    return found


def test_a_finished_run_leaves_no_cycle():
    spec = apply_overrides(
        preset_spec("engine-smoke"),
        {"obs.enabled": True, "obs.metrics.enabled": True, "obs.monitor.enabled": True},
    )

    def run():
        result = run_experiment(spec)
        # What a result reads after its world closed still reads.
        assert result.trace_collector.to_jsonl()
        assert result.alerts == []
        assert result.env.simulator.queue_stats()["max_pending"] > 0

    assert repro_garbage(run) == []


@pytest.mark.parametrize(
    "preset, overrides",
    [
        # Fee estimators listen to their chains; budgeted drivers track
        # their submissions with callbacks bound to themselves.
        ("fee-shock", {}),
        # The engine holds the roster; an actor listens to a chain or
        # hooks the engine.
        ("security", {}),
        (
            "engine-smoke",
            {
                "protocol": "ac3wn",
                "adversary.byzantine.enabled": True,
                "adversary.eclipse.enabled": True,
            },
        ),
    ],
)
def test_fee_market_and_adversarial_runs_leave_no_cycle(preset, overrides):
    spec = apply_overrides(preset_spec(preset), overrides)
    assert repro_garbage(lambda: run_experiment(spec)) == []


@pytest.mark.parametrize("end", ["drain", "close"])
def test_a_closed_session_leaves_no_cycle(end):
    """Drained, or closed with its swaps still in flight (a checkpoint
    handed off): a running driver is detached from the world it watched."""

    def serve():
        service = SwapService(service_preset_spec("serve-steady"))
        service.serve(max_swaps=8)
        getattr(service, end)()
        service.result().to_json()

    assert repro_garbage(serve) == []


@pytest.mark.parametrize("end", ["drain", "close"])
def test_a_closed_session_still_alerts_on_an_audited_violation(end):
    """The reorg audit runs in ``result()``, after the world closed, and
    is the first to emit a rewritten swap's ``swap/violation``: the
    monitor must still be the collector's sink then, and raise the
    atomicity alert for it."""
    spec = service_preset_spec("serve-steady")
    world = apply_overrides(
        spec.world,
        {
            "protocol": "nolan",
            "chains.confirmation_depth": 1,
            "obs.enabled": True,
            "obs.monitor.enabled": True,
            "adversary.reorg.enabled": True,
            "adversary.reorg.hashpower": 2.0,
            "adversary.reorg.value_at_risk": 175_000.0,
            "adversary.reorg.hourly_cost": 300_000.0,
            "adversary.reorg.blocks_per_hour": 6.0,
        },
    )
    spec = dataclasses.replace(spec, world=world)

    def serve():
        service = SwapService(spec)
        service.serve(max_swaps=40)
        getattr(service, end)()
        result = service.result()
        violated = {
            e.swap_id
            for e in service.collector.events()
            if (e.category, e.kind) == ("swap", "violation")
        }
        alerted = {a.swap_id for a in result.alerts if a.rule == "atomicity"}
        assert violated
        assert violated <= alerted

    assert repro_garbage(serve) == []
