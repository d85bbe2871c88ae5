"""The single entry point: ``run_experiment(spec) -> ExperimentResult``.

Opens the world the spec describes (:func:`open_world`: the traffic
stream from the generator registry, chains, mempools, miners, fee market
and shocks), runs the :class:`~repro.engine.SwapEngine`, and
distills everything into one unified, JSON-exportable artifact: the
spec echo, aggregate :class:`~repro.engine.EngineMetrics` (overall and
per protocol), per-swap outcomes, and the analysis reports (measured
throughput, and fee economics when a fee market is on).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass, field
from typing import Callable

from ..adversary import build_roster, decision_chain
from ..analysis.cost import CongestionCostRow, congestion_cost_report
from ..analysis.throughput import engine_throughput_report
from ..core.evidence import evidence_cache_info, reset_evidence_cache_info
from ..core.protocol import SwapOutcome
from ..crypto.keys import clear_verify_cache as clear_ecdsa_cache
from ..crypto.keys import verify_cache_info as ecdsa_cache_info
from ..crypto.keys import verifying
from ..crypto.signatures import clear_verify_cache as clear_multisig_cache
from ..crypto.signatures import verify_cache_info as multisig_cache_info
from ..engine import PROTOCOLS, EngineResult, SwapEngine
from ..engine.metrics import EngineMetrics
from ..obs import (
    Alert,
    AtomicityRule,
    InvariantMonitor,
    MempoolSaturationRule,
    MetricsRegistry,
    MetricsTap,
    PricedOutSpikeRule,
    ReorgDepthRule,
    StallRule,
    TimeSeriesSampler,
    TraceCollector,
    instrument,
)
from ..workloads.scenarios import (
    ScenarioEnvironment,
    build_multi_scenario,
    schedule_fee_shock,
)
from .registry import traffic_generator
from .spec import ExperimentSpec


def _outcome_to_dict(outcome: SwapOutcome, swap_id: int, arrival: float) -> dict:
    return {
        "swap_id": swap_id,
        "protocol": outcome.protocol,
        "decision": outcome.decision,
        "atomic": outcome.is_atomic,
        "arrival_time": arrival,
        "started_at": outcome.started_at,
        "finished_at": outcome.finished_at,
        "latency": outcome.latency,
        "fees_paid": outcome.fees_paid,
        "fee_cap": outcome.fee_cap,
        "priced_out": outcome.priced_out,
        "evictions": outcome.evictions,
        "fee_bumps": outcome.fee_bumps,
        "injected_crash": outcome.injected_crash,
        "attacked_by": list(outcome.attacked_by),
        "attacks_launched": outcome.attacks_launched,
        "reorgs_won": outcome.reorgs_won,
        "reorgs_lost": outcome.reorgs_lost,
        "attack_blocks": outcome.attack_blocks,
        "attack_cost": outcome.attack_cost,
        "final_states": outcome.final_states(),
        "notes": list(outcome.notes),
    }


def _artifact_dict(result, requests, chain_reorgs: dict, reports: dict) -> dict:
    """The keys an :class:`ExperimentResult` and a service session's
    artifact share: the spec echo, aggregate and per-protocol metrics,
    per-swap outcomes, the reorg counts, and ``reports`` — to which the
    observability keys are added only when their feature was armed, so
    disabled artifacts stay byte-identical to the goldens."""
    if result.metrics_registry is not None:
        reports["metrics"] = result.metrics_registry.to_dict()
    if result.alerts is not None:
        reports["alerts"] = [alert.to_dict() for alert in result.alerts]
    return {
        "spec": result.spec.to_dict(),
        "metrics": asdict(result.metrics),
        "by_protocol": {
            name: asdict(metrics) for name, metrics in result.by_protocol.items()
        },
        "outcomes": [
            _outcome_to_dict(r.outcome, r.swap_id, r.arrival_time)
            for r in requests
            if r.outcome is not None
        ],
        "chain_reorgs": dict(chain_reorgs),
        "reports": reports,
    }


@dataclass
class ExperimentResult:
    """Everything one experiment produced, as one serializable artifact.

    Attributes:
        spec: the exact spec that ran (echoed into every export, so an
            artifact is always reproducible from itself).
        metrics: aggregate engine metrics over the whole run.
        by_protocol: per-protocol metric slices.
        outcomes: per-swap terminal records, request order.
        throughput: the measured throughput report rows (overall first).
        congestion_cost: fee-economics rows, when a fee market was on.
        engine_result: the raw engine artifact (requests included).
        env: the simulated world, for post-hoc inspection (not exported).
        caches: per-run verify-cache deltas (ECDSA, multisig, evidence
            memo) — how much the PR 5/6 caches actually saved this run.
        trace_collector: the flight recorder, when ``spec.obs.enabled``
            (not exported into ``to_dict``; see ``to_jsonl``).
        metrics_registry: the live metrics registry, when
            ``spec.obs.metrics.enabled`` (exported as
            ``reports.metrics`` — only then, so disabled artifacts stay
            byte-identical to pre-metrics ones).
        alerts: the invariant monitor's ordered firings, when
            ``spec.obs.monitor.enabled`` (exported as ``reports.alerts``
            under the same only-when-enabled contract).
    """

    spec: ExperimentSpec
    metrics: EngineMetrics
    by_protocol: dict[str, EngineMetrics]
    outcomes: list[SwapOutcome]
    throughput: list[EngineMetrics]
    congestion_cost: list[CongestionCostRow] | None
    engine_result: EngineResult = field(repr=False)
    env: ScenarioEnvironment = field(repr=False)
    caches: dict | None = None
    trace_collector: TraceCollector | None = field(default=None, repr=False)
    metrics_registry: MetricsRegistry | None = field(default=None, repr=False)
    alerts: list[Alert] | None = field(default=None, repr=False)

    def trace(self) -> list[tuple[int, str, str, float, float]]:
        """A compact deterministic fingerprint of the run, for tests:
        ``(swap_id, protocol, decision, started_at, finished_at)``."""
        return [
            (r.swap_id, r.protocol, o.decision, o.started_at, o.finished_at)
            for r in self.engine_result.requests
            if (o := r.outcome) is not None
        ]

    def to_dict(self) -> dict:
        reports = {
            "adversary": self.engine_result.adversary,
            "caches": self.caches,
            "throughput": [asdict(row) for row in self.throughput],
            "congestion_cost": (
                None
                if self.congestion_cost is None
                else [
                    {
                        **asdict(row),
                        "congestion_premium": row.congestion_premium,
                        "priced_out_rate": row.priced_out_rate,
                    }
                    for row in self.congestion_cost
                ]
            ),
        }
        return _artifact_dict(
            self, self.engine_result.requests, self.engine_result.chain_reorgs, reports
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)



def build_environment(spec: ExperimentSpec, traffic: list) -> ScenarioEnvironment:
    """The world the spec describes, warmed up (two blocks on every
    chain) and mining."""
    whales = tuple(
        dict.fromkeys(
            [shock.whale for shock in spec.fee_shocks]
            # The reorg attacker needs a funded on-chain identity: fees
            # for its counter-decision and the exploit refund calls.
            + (
                [spec.adversary.reorg.attacker]
                if spec.adversary.reorg.enabled
                else []
            )
        )
    )
    env = build_multi_scenario(
        [item.graph for item in traffic],
        witness_chain_id=spec.chains.witness,
        chain_params=spec.chains.build_params() or None,
        seed=spec.seed,
        funding=spec.chains.funding,
        funding_chunks=spec.chains.funding_chunks,
        block_interval=spec.chains.block_interval,
        confirmation_depth=spec.chains.confirmation_depth,
        fee_policy=spec.fee_market.build(),
        extra_participants=list(whales) or None,
    )
    env.warm_up(2)
    return env


def _reset_caches() -> None:
    """Start every run with empty memos so the ``caches`` report is a
    pure function of the spec — a warm process-global memo would leak one
    run's state into the next artifact and break byte-identical
    re-execution.  The ECDSA per-key tables stay warm: they are pure
    functions of their keys and no artifact counts them."""
    clear_ecdsa_cache(tables=False)
    clear_multisig_cache()
    reset_evidence_cache_info()


def _caches_report() -> dict:
    """This run's cache activity (the process caches were reset at the
    start of the run), with a derived hit rate per cache."""
    report: dict = {}
    for cache, counters in (
        ("ecdsa_verify", ecdsa_cache_info()),
        ("multisig_verify", multisig_cache_info()),
        ("evidence_memo", evidence_cache_info()),
    ):
        row = {key: value for key, value in counters.items()}
        total = row.get("hits", 0) + row.get("misses", 0)
        row["hit_rate"] = (row.get("hits", 0) / total) if total else 0.0
        report[cache] = row
    return report


def _monitor_rules(spec: ExperimentSpec) -> list:
    """Materialize the monitor's rule set, resolving spec-relative
    defaults: the reorg policy depth falls back to the confirmation
    depth (an adopted fork at least that deep means the depth-d defense
    was breached), and the stall budget is the slowest chain's
    block interval × confirmation depth × the configured multiple."""
    rules = spec.obs.monitor.rules
    out: list = []
    if rules.atomicity:
        out.append(AtomicityRule())
    depth = rules.reorg_depth
    if depth is None:
        depth = spec.chains.confirmation_depth
    if depth:
        out.append(ReorgDepthRule(depth))
    if rules.stall_multiple is not None:
        intervals = [spec.chains.block_interval] + [
            o.block_interval
            for o in spec.chains.overrides.values()
            if o.block_interval is not None
        ]
        depths = [spec.chains.confirmation_depth] + [
            o.confirmation_depth
            for o in spec.chains.overrides.values()
            if o.confirmation_depth is not None
        ]
        base = max(intervals) * max(depths)
        out.append(StallRule(rules.stall_multiple * base))
    if rules.mempool_saturation is not None:
        out.append(MempoolSaturationRule(rules.mempool_saturation))
    if rules.priced_out_rate is not None:
        out.append(
            PricedOutSpikeRule(
                rules.priced_out_rate,
                rules.priced_out_window,
                rules.priced_out_min,
            )
        )
    return out


def build_observability(
    spec: ExperimentSpec, env: ScenarioEnvironment, engine: SwapEngine
) -> tuple[
    TraceCollector | None,
    MetricsRegistry | None,
    InvariantMonitor | None,
    TimeSeriesSampler | None,
]:
    """Wire the full observability stack the spec asks for.

    Attaches the flight recorder before anything can emit (a no-op when
    all of obs is off: no collector ⇒ every emit-site guard stays
    False).  Metrics and the monitor ride the same event stream as
    sinks; when only they are armed the collector retains nothing — it
    dispatches each event and lets it go.  :func:`open_world` calls it,
    so a run and a service session observe one identical wiring.
    """
    obs = spec.obs
    collector = None
    sampler = None
    registry = None
    monitor = None
    if obs.enabled or obs.metrics.enabled or obs.monitor.enabled:
        collector = TraceCollector(
            categories=obs.categories,
            ring_size=obs.ring_size,
            retain=obs.enabled,
        )
        if obs.metrics.enabled:
            registry = MetricsRegistry()
            collector.add_sink(MetricsTap(registry).observe)
        if obs.monitor.enabled:
            stream = None
            if obs.monitor.stderr:
                import sys

                def stream(line: str) -> None:
                    # One buffered write + flush per alert, so live
                    # alert lines never interleave mid-line with other
                    # stderr diagnostics (progress, profiles).
                    sys.stderr.write(line + "\n")
                    sys.stderr.flush()

            monitor = InvariantMonitor(
                collector, rules=_monitor_rules(spec), stream=stream
            )
            collector.add_sink(monitor.observe)
        instrument(collector, env, engine)
        if collector.wants("sample") and (obs.enabled or obs.metrics.enabled):
            sampler = TimeSeriesSampler(
                collector, env, engine, interval=obs.sample_interval
            ).start()
    return collector, registry, monitor, sampler


class World(contextlib.ExitStack):
    """One built world and its lifetime (see :func:`open_world`).

    Closing it (``close()``, or leaving ``with``) stops the time-series
    sampler, ends the simulation (no queued event fires after it),
    detaches the drivers still running and exits the world's
    signature-verifier scope
    (:func:`~repro.crypto.keys.verifying`); a second close is a no-op.
    What its parts hold (chains, trace, ``queue_stats()``) stays readable,
    and none of it is left on a reference cycle.
    """

    arrivals: list
    env: ScenarioEnvironment
    engine: SwapEngine
    collector: TraceCollector | None
    registry: MetricsRegistry | None
    monitor: InvariantMonitor | None
    sampler: TimeSeriesSampler | None


def open_world(spec: ExperimentSpec, arrivals: Callable[[], list]) -> World:
    """The one wiring behind :func:`run_experiment` and
    :class:`~repro.service.SwapService`: reset the memos, enter the
    verifier scope first, so its helper derives half the keys, then make
    the ``arrivals`` (a ``TrafficItem`` list, kept as
    ``world.arrivals``), build the environment that funds them, arm the
    fee shocks (one that names no chain floods the contended one), and
    wire the engine, observability and adversarial roster.  A build that
    raises closes what it opened."""
    _reset_caches()
    world = World()
    world.enter_context(verifying())
    try:
        world.arrivals = arrivals()
        world.env = env = build_environment(spec, world.arrivals)
        contended = decision_chain(spec.protocol, spec.chains.asset_ids(), spec.chains.witness)
        for shock in spec.fee_shocks:
            schedule_fee_shock(
                env,
                shock.chain_id or contended,
                at=env.simulator.now + shock.at,
                count=shock.count,
                fee_rate=shock.fee_rate,
                whale=shock.whale,
            )
        world.engine = engine = SwapEngine(
            env,
            default_protocol="ac3wn" if spec.protocol == "mixed" else spec.protocol,
            witness_chain_id=spec.chains.witness,
            eager=spec.engine.eager,
            jitter_span=spec.engine.jitter,
        )
        # Closed in reverse: the events are detached before the drivers
        # cancel their timers, so those cancels leave ``queue_stats()`` alone.
        world.callback(engine.close)
        world.callback(env.close)
        world.collector, world.registry, world.monitor, world.sampler = (
            build_observability(spec, env, engine)
        )
        if world.sampler is not None:
            world.callback(world.sampler.stop)
        build_roster(spec, env, engine)
    except BaseException:
        world.close()
        raise
    return world


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Validate and execute one spec end to end; never mutates ``spec``."""
    spec.validate()
    make_traffic = traffic_generator(spec.traffic.generator)
    with open_world(spec, lambda: make_traffic(spec)) as world:
        env, engine, traffic = world.env, world.engine, world.arrivals
        # Arrivals are generated from t=0; shift them past the warm-up so
        # the schedule stays genuinely open-loop (no clamped head batch).
        offset = env.simulator.now
        if spec.protocol == "mixed":
            for index, item in enumerate(traffic):
                engine.submit(
                    item.graph,
                    protocol=PROTOCOLS[index % len(PROTOCOLS)],
                    at=offset + item.at,
                    fee_budget=item.fee_budget,
                    crash=item.crash,
                )
        else:
            engine.submit_many(traffic, offset=offset)
        raw = engine.run(max_events=spec.engine.max_events)

    congestion_cost = None
    if spec.fee_market.enabled:
        fees = env.chains[spec.chains.asset_ids()[0]].params.fees
        congestion_cost = congestion_cost_report(
            raw.outcomes, fd=fees.deploy, ffc=fees.call
        )
    return ExperimentResult(
        spec=spec,
        metrics=raw.metrics,
        by_protocol=raw.by_protocol,
        outcomes=raw.outcomes,
        throughput=engine_throughput_report(raw),
        congestion_cost=congestion_cost,
        engine_result=raw,
        env=env,
        caches=_caches_report(),
        trace_collector=world.collector if spec.obs.enabled else None,
        metrics_registry=world.registry,
        alerts=world.monitor.alerts if world.monitor is not None else None,
    )
