"""The ledger's workloads: names, reasons, sizes, and seeded spec generation.

The load generator (``run.py``) calls :func:`generate` to turn a
``--seed`` into the serialized spec a timed child process receives; the
program under test never sees the seed argument, only the spec.  Every
preset seed gets ``seed`` added, so seed 0 is the stock preset world.

Sizes are the ISSUE's shapes cut to fit the driver's per-run budget
(about 35 s of wall per run, several repetitions inside it, 2 cores);
``FULL`` is what the committed baseline in README.md was measured at,
``SMOKE`` is what ``test_ledger.py`` runs.
"""

from __future__ import annotations

import dataclasses

from repro.experiment import ObsSpec, apply_overrides, preset_spec
from repro.service import SourceSpec, service_preset_spec
from repro.sweeps import SweepAxis
from repro.sweeps import sweep_spec as sweep_preset_spec

#: name -> why it exists (one line each; BENCHMARK.json repeats them).
WORKLOADS = {
    "engine_mixed": (
        "engine-smoke world, four protocols round-robin through the finite-run "
        "path; crypto-bound (about 70% ECDSA), so signing and encoding work shows "
        "here and UTXO work does not"
    ),
    "service_obs": (
        "serve-steady AC3WN session with trace, metrics and monitor all armed; "
        "the accept loop, windowed sampler and flight recorder only run here"
    ),
    "large_world": (
        "same session, obs off, over a genesis of 16k UTXOs per chain; "
        "chain-state-bound (owner scans), and its construction is the setup_s stress"
    ),
    "service_restore": (
        "restore of service_obs's pre-drain checkpoint, then drain; the only "
        "place restore cost (re-drive from t=0) is paid and gated"
    ),
    "sweep_congestion": (
        "congestion-rates fee-market sweep x 2 seeds over 2 workers into a fresh "
        "CampaignStore; the only use of economy/, sweeps/ fan-out and store/ appends"
    ),
}

#: Fault-free workloads: every accepted swap must commit.
FAULT_FREE = frozenset(WORKLOADS) - {"sweep_congestion"}


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Every size knob of the four worlds (one object so a resize is one edit)."""

    engine_swaps: int
    service_capacity: int
    service_rate: float
    service_swaps: int
    large_capacity: int
    large_funding_chunks: int
    large_swaps: int
    sweep_rates: tuple[float, ...]
    sweep_seeds: int
    sweep_swaps: int
    sweep_capacity_weight: int
    sweep_workers: int


#: ISSUE sizes scaled down (400 swaps -> 60; 192 -> 48; 12 x 60 -> 8 x 24).
#: ``large_world`` reaches the ISSUE's 16k-entry UTXO sets (capacity 2048 x
#: 4 chunks x 2 parties) as capacity 256 x 32 chunks: the owner scan sees
#: the same number of entries while key derivation stays at 1/8 of the cost.
FULL = Sizes(
    engine_swaps=60,
    service_capacity=64,
    service_rate=8.0,
    service_swaps=48,
    large_capacity=256,
    large_funding_chunks=32,
    large_swaps=32,
    sweep_rates=(6.0, 10.0, 12.0, 16.0),
    sweep_seeds=2,
    sweep_swaps=24,
    sweep_capacity_weight=32,
    sweep_workers=2,
)

SMOKE = Sizes(
    engine_swaps=20,
    service_capacity=32,
    service_rate=8.0,
    service_swaps=8,
    large_capacity=32,
    large_funding_chunks=8,
    large_swaps=8,
    sweep_rates=(12.0,),
    sweep_seeds=2,
    sweep_swaps=8,
    sweep_capacity_weight=16,
    sweep_workers=2,
)


def engine_spec(seed: int, sizes: Sizes):
    base = preset_spec("engine-smoke")
    return apply_overrides(
        base, {"seed": base.seed + seed, "traffic.num_swaps": sizes.engine_swaps}
    )


def _service_spec(seed: int, sizes: Sizes, *, obs: bool, large: bool):
    base = service_preset_spec("serve-steady")
    world = base.world
    if obs:
        overrides = {
            "obs.enabled": True,
            "obs.metrics.enabled": True,
            "obs.monitor.enabled": True,
        }
    else:
        world = dataclasses.replace(world, obs=ObsSpec())
        overrides = {}
    if large:
        overrides["chains.funding_chunks"] = sizes.large_funding_chunks
    overrides["seed"] = world.seed + seed
    return dataclasses.replace(
        base,
        name="ledger-large-world" if large else "ledger-service-obs",
        world=apply_overrides(world, overrides),
        sources=(SourceSpec(kind="poisson", name="steady", rate=sizes.service_rate),),
        capacity=sizes.large_capacity if large else sizes.service_capacity,
        # A swap count, not a horizon, ends the session: the Poisson schedule
        # still comes from the seed, but every seed does the same amount of work.
        duration=None,
        max_swaps=sizes.large_swaps if large else sizes.service_swaps,
    )


def sweep_spec(seed: int, sizes: Sizes):
    base = sweep_preset_spec("congestion-rates")
    # The preset's mempool (96 weight) is sized for 60 swaps a point; shrunk
    # with the traffic, or nothing would ever be evicted or priced out.
    world = apply_overrides(
        base.base,
        {
            "traffic.num_swaps": sizes.sweep_swaps,
            "fee_market.capacity_weight": sizes.sweep_capacity_weight,
        },
    )
    seeds = tuple(world.seed + seed + index for index in range(sizes.sweep_seeds))
    return dataclasses.replace(
        base,
        name="ledger-sweep-congestion",
        base=world,
        axes=(
            SweepAxis(name="rate", path="traffic.rate", values=sizes.sweep_rates),
            SweepAxis(name="seed", path="seed", values=seeds),
        ),
    )


def generate(workload: str, seed: int, sizes: Sizes = FULL) -> dict:
    """The job a worker process receives for one repetition of ``workload``."""
    if workload == "engine_mixed":
        spec, params = engine_spec(seed, sizes), {}
    elif workload in ("service_obs", "service_restore"):
        spec, params = _service_spec(seed, sizes, obs=True, large=False), {}
    elif workload == "large_world":
        spec, params = _service_spec(seed, sizes, obs=False, large=True), {}
    elif workload == "sweep_congestion":
        spec, params = sweep_spec(seed, sizes), {"workers": sizes.sweep_workers}
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    return {
        "workload": workload,
        "fault_free": workload in FAULT_FREE,
        "spec": spec.to_json(indent=None),
        **params,
    }
