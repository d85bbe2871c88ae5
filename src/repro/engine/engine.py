"""The SwapEngine: hundreds of concurrent AC2Ts over shared chains.

The paper's evaluation measures protocols under *many concurrent*
cross-chain transactions; the engine is the execution layer that makes
that possible in this reproduction.  It multiplexes N in-flight
:class:`~repro.core.driver.ProtocolDriver` state machines over one
shared simulation (chains, mempools, miners), with:

* **open-loop arrivals** — swaps are submitted at caller-chosen times
  (typically a Poisson schedule from
  :func:`repro.workloads.scenarios.poisson_arrivals`) and launched by
  simulator callbacks, independent of how fast earlier swaps finish;
* **per-swap isolation** — each swap gets its own driver and
  :class:`~repro.core.protocol.SwapOutcome`; contention is mediated
  entirely by the shared chains and mempools, exactly like real traffic;
* **aggregate metrics** — commit rate, latency percentiles, swaps/sec
  (:mod:`repro.engine.metrics`).

Protocols can be mixed freely within one engine run; the single-swap
``run_*`` helpers in :mod:`repro.core` are simply this engine with N=1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Callable

from .. import serde
from ..core.ac3tw import AC3TWConfig, AC3TWDriver, TrustedWitness
from ..core.ac3wn import AC3WNConfig, AC3WNDriver
from ..core.driver import ProtocolDriver
from ..core.graph import SwapGraph
from ..core.herlihy import HerlihyConfig, HerlihyDriver
from ..core.nolan import NolanDriver, validate_two_party
from ..core.protocol import SwapEnvironment, SwapOutcome
from ..crypto.keys import verifying
from ..economy import FeeBudget
from ..errors import ProtocolError, ReproError, SchedulingError
from ..workloads.scenarios import CrashPlan, TrafficItem
from .metrics import EngineMetrics, MetricsAccumulator


@dataclass(frozen=True)
class ProtocolEntry:
    """How the engine runs one protocol.

    ``factory(engine, request)`` returns a started-ready
    :class:`~repro.core.driver.ProtocolDriver`; ``validate(graph)``
    (optional) raises at submit time for graphs the protocol cannot
    execute, so failures surface at the call site instead of inside an
    arrival event.  ``phases`` names the rows of its driver's phase
    table (what an eclipse may key on).
    """

    factory: Callable[["SwapEngine", "SwapRequest"], ProtocolDriver]
    validate: Callable[[SwapGraph], None] | None = None
    phases: tuple[str, ...] = ()


def _nolan_factory(engine: SwapEngine, request: SwapRequest) -> ProtocolDriver:
    return NolanDriver(
        engine.env,
        request.graph,
        request.config or HerlihyConfig(),
        fee_budget=request.fee_budget,
        jitter_span=engine.jitter_span,
    )


def _herlihy_factory(engine: SwapEngine, request: SwapRequest) -> ProtocolDriver:
    return HerlihyDriver(
        engine.env,
        request.graph,
        request.config or HerlihyConfig(),
        fee_budget=request.fee_budget,
        jitter_span=engine.jitter_span,
    )


def _ac3tw_factory(engine: SwapEngine, request: SwapRequest) -> ProtocolDriver:
    return AC3TWDriver(
        engine.env,
        request.graph,
        engine.trusted_witness,
        request.config or AC3TWConfig(),
        fee_budget=request.fee_budget,
        jitter_span=engine.jitter_span,
    )


def _ac3wn_factory(engine: SwapEngine, request: SwapRequest) -> ProtocolDriver:
    return AC3WNDriver(
        engine.env,
        request.graph,
        request.config or AC3WNConfig(witness_chain_id=engine.witness_chain_id),
        fee_budget=request.fee_budget,
        jitter_span=engine.jitter_span,
    )


#: The protocol catalog: the paper's AC3WN and AC3TW and the two
#: hashlock/timelock swaps it is measured against.  A new protocol is an
#: entry here.
_PROTOCOL_ENTRIES = {
    "nolan": ProtocolEntry(_nolan_factory, validate_two_party, NolanDriver.phase_names()),
    "herlihy": ProtocolEntry(_herlihy_factory, phases=HerlihyDriver.phase_names()),
    "ac3tw": ProtocolEntry(_ac3tw_factory, phases=AC3TWDriver.phase_names()),
    "ac3wn": ProtocolEntry(_ac3wn_factory, phases=AC3WNDriver.phase_names()),
}

#: The four protocols, in the round-robin order of "mixed" workloads.
PROTOCOLS = tuple(_PROTOCOL_ENTRIES)


def registered_phases(protocol: str | None = None) -> tuple[str, ...]:
    """The phases ``protocol`` declares, or (None) every protocol's."""
    entries = [e for name, e in _PROTOCOL_ENTRIES.items() if protocol in (None, name)]
    return tuple(dict.fromkeys(phase for e in entries for phase in e.phases))


@dataclass
class SwapRequest:
    """One submitted AC2T: its graph, protocol, and lifecycle record."""

    swap_id: int
    graph: SwapGraph
    protocol: str
    arrival_time: float
    config: object | None = None
    fee_budget: FeeBudget | None = None
    crash: CrashPlan | None = None
    driver: ProtocolDriver | None = None
    outcome: SwapOutcome | None = None


@dataclass
class EngineResult:
    """Everything one engine run produced."""

    outcomes: list[SwapOutcome]
    metrics: EngineMetrics
    by_protocol: dict[str, EngineMetrics]
    requests: list[SwapRequest] = field(repr=False, default_factory=list)
    #: Simulator events executed by :meth:`SwapEngine.run` — the cadence
    #: observability hook behind the event-budget pins.
    events_processed: int = 0
    #: Reorgs per chain during the run (each ``Blockchain.reorgs`` delta).
    chain_reorgs: dict[str, int] = field(default_factory=dict)
    #: The adversary's self-report, when a roster was attached.
    adversary: dict | None = None


class SwapEngine:
    """Runs many AC2Ts concurrently over one shared simulation.

    Args:
        env: the shared world (typically built by
            :func:`repro.workloads.scenarios.build_multi_scenario`).
        default_protocol: protocol used when :meth:`submit` gets none.
        witness_chain_id: coordinating chain for AC3WN swaps (default:
            the environment's ``witness_chain_id``, else ``"witness"``).
        trusted_witness: shared Trent instance for AC3TW swaps (default:
            one Trent with full-node access to every chain — shared
            across swaps, like the real single-witness deployment).
        eager: must be True.  Drivers are event-driven only (the poll
            cadence is gone); the keyword stays because persisted specs
            and ``benchmarks/ledger`` still pass it.
        jitter_span: width (seconds) of the deterministic per-swap
            submission jitter applied to fee-budgeted swaps' block-hook
            reactions (None = a quarter of the fastest involved chain's
            block interval; 0 disables).
    """

    def __init__(
        self,
        env: SwapEnvironment,
        default_protocol: str = "ac3wn",
        witness_chain_id: str | None = None,
        trusted_witness: TrustedWitness | None = None,
        eager: bool = True,
        jitter_span: float | None = None,
    ) -> None:
        serde.lookup(_PROTOCOL_ENTRIES, default_protocol, "protocol")
        if not eager:
            raise ProtocolError(
                "SwapEngine(eager=False): the poll-tick driver cadence was "
                "removed; drivers are event-driven only"
            )
        self.env = env
        self.default_protocol = default_protocol
        self.witness_chain_id = witness_chain_id or getattr(
            env, "witness_chain_id", "witness"
        )
        self._trusted_witness = trusted_witness
        self.jitter_span = jitter_span
        self.requests: list[SwapRequest] = []
        self._completed = 0
        #: Streaming metrics: every terminal outcome is folded in as it
        #: finalizes (overall plus a per-protocol slice), so end-of-run
        #: aggregation is one snapshot per accumulator instead of a
        #: re-scan of all outcomes per protocol.  The overall
        #: accumulator also owns the in-flight / peak-concurrency
        #: counters, and :meth:`metrics_window` exposes its sliding
        #: streaming views mid-run.
        self._metrics = MetricsAccumulator()
        self._by_protocol: dict[str, MetricsAccumulator] = {}
        #: Hooks run at launch time, before the driver is built (may
        #: rewrite ``request.config`` — how Byzantine actors corrupt a
        #: swap) and after it is built but before it starts (phase
        #: listeners, eclipse windows).
        self.launch_hooks: list[Callable[[SwapRequest], None]] = []
        self.driver_hooks: list[Callable[[SwapRequest, ProtocolDriver], None]] = []
        self._reorgs_before = {cid: chain.reorgs for cid, chain in env.chains.items()}
        self._adversary = None
        #: Optional flight recorder (see :mod:`repro.obs`).  Every emit
        #: site below guards on ``is not None`` so unobserved runs stay
        #: byte- and time-identical.
        self.collector = None

    @property
    def chain_reorgs(self) -> dict[str, int]:
        """Reorgs per chain over this engine's lifetime (attack observability)."""
        return {
            chain_id: chain.reorgs - self._reorgs_before[chain_id]
            for chain_id, chain in self.env.chains.items()
        }

    def attach_adversary(self, roster) -> None:
        """Attach an :class:`~repro.adversary.AdversaryRoster`: its
        per-swap attack exposure is attributed into every result."""
        self._adversary = roster

    def attach_collector(self, collector) -> None:
        """Attach a :class:`~repro.obs.TraceCollector`: swap lifecycle
        events (arrival/launch, phase transitions, outcomes) are emitted
        for every subsequently launched driver."""
        self.collector = collector

    # -- witness services --------------------------------------------------

    @property
    def trusted_witness(self) -> TrustedWitness:
        """The shared Trent instance (created on first AC3TW swap)."""
        if self._trusted_witness is None:
            self._trusted_witness = TrustedWitness(self.env.chains)
        return self._trusted_witness

    # -- submission --------------------------------------------------------

    def submit(
        self,
        graph: SwapGraph,
        protocol: str | None = None,
        at: float | None = None,
        config: object | None = None,
        fee_budget: FeeBudget | None = None,
        crash: CrashPlan | None = None,
    ) -> SwapRequest:
        """Queue one AC2T for execution at simulation time ``at``.

        Open loop: the arrival fires regardless of how many earlier
        swaps are still in flight.  Returns the request record, whose
        ``outcome`` is populated once the swap reaches a terminal state.

        ``fee_budget`` caps what the swap may spend on fees and arms the
        driver's bump-or-abort rebroadcast policy.  ``crash`` schedules
        a failure injection against one of the swap's participants,
        ``crash.delay`` seconds after the arrival.
        """
        protocol = protocol or self.default_protocol
        entry = serde.lookup(_PROTOCOL_ENTRIES, protocol, "protocol")
        if entry.validate is not None:
            # Fail at the submit call site, not inside an arrival event.
            entry.validate(graph)
        sim = self.env.simulator
        arrival = max(sim.now, sim.now if at is None else at)
        request = SwapRequest(
            swap_id=len(self.requests),
            graph=graph,
            protocol=protocol,
            arrival_time=arrival,
            config=config,
            fee_budget=fee_budget,
            crash=crash,
        )
        self.requests.append(request)
        sim.schedule_at(
            arrival,
            lambda: self._launch(request),
            label=f"swap-{request.swap_id} arrival ({protocol})",
        )
        if crash is not None:
            victim = self.env.participant(crash.participant)  # fail fast
            sim.schedule_at(
                arrival + crash.delay,
                victim.crash,
                label=f"swap-{request.swap_id} crash {crash.participant}",
            )
            if crash.down_for is not None:
                sim.schedule_at(
                    arrival + crash.delay + crash.down_for,
                    victim.recover,
                    label=f"swap-{request.swap_id} recover {crash.participant}",
                )
        return request

    def submit_many(
        self,
        traffic: list,
        protocol: str | None = None,
        offset: float = 0.0,
    ) -> list[SwapRequest]:
        """Submit a traffic schedule in one call.

        Accepts :class:`~repro.workloads.scenarios.TrafficItem` entries
        (whose fee budgets and crash plans are honoured) or plain
        ``(arrival_time, graph)`` pairs.

        Pass ``offset=env.simulator.now`` for schedules generated from
        time 0 when the world has already warmed up — otherwise every
        arrival before ``now`` is clamped to ``now`` and the head of the
        schedule degenerates into one simultaneous batch.
        """
        requests = []
        for item in traffic:
            if isinstance(item, TrafficItem):
                requests.append(
                    self.submit(
                        item.graph,
                        protocol=protocol,
                        at=offset + item.at,
                        fee_budget=item.fee_budget,
                        crash=item.crash,
                    )
                )
            else:
                at, graph = item
                requests.append(self.submit(graph, protocol=protocol, at=offset + at))
        return requests

    # -- execution ---------------------------------------------------------

    def _make_driver(self, request: SwapRequest) -> ProtocolDriver:
        return _PROTOCOL_ENTRIES[request.protocol].factory(self, request)

    def _launch(self, request: SwapRequest) -> None:
        collector = self.collector
        if collector is not None:
            collector.emit(
                "swap",
                "launch",
                swap_id=request.swap_id,
                protocol=request.protocol,
                chains=sorted(request.graph.chains_used()),
                fee_cap=(
                    request.fee_budget.cap if request.fee_budget is not None else None
                ),
            )
        for hook in list(self.launch_hooks):
            hook(request)
        try:
            driver = self._make_driver(request)
        except ReproError as exc:
            # A swap the protocol cannot even start (e.g. an
            # unsequenceable Herlihy graph) must not take the other
            # in-flight swaps down with it: record a per-swap failure.
            outcome = SwapOutcome(protocol=request.protocol, graph=request.graph)
            outcome.started_at = outcome.finished_at = self.env.simulator.now
            outcome.decision = "undecided"
            outcome.notes.append(f"driver construction failed: {exc}")
            if request.crash is not None:
                outcome.injected_crash = request.crash.participant
            request.outcome = outcome
            self._completed += 1
            self._fold(request, outcome, completes_flight=False)  # never entered flight
            if collector is not None:
                self._emit_outcome(request, outcome)
            return
        if request.crash is not None:
            driver.outcome.injected_crash = request.crash.participant
        request.driver = driver
        if collector is not None:
            driver.collector = collector
            driver.trace_swap_id = request.swap_id
        self._metrics.launched()
        driver.on_complete.append(
            lambda outcome, request=request: self._on_complete(request, outcome)
        )
        for hook in list(self.driver_hooks):
            hook(request, driver)
        driver.start()

    def _on_complete(self, request: SwapRequest, outcome: SwapOutcome) -> None:
        request.outcome = outcome
        self._completed += 1
        self._fold(request, outcome, completes_flight=True)
        if self.collector is not None:
            self._emit_outcome(request, outcome)

    def _emit_outcome(self, request: SwapRequest, outcome: SwapOutcome) -> None:
        """Record a terminal outcome in the trace (collector is attached)."""
        self.collector.emit(
            "swap",
            "outcome",
            swap_id=request.swap_id,
            decision=outcome.decision,
            atomic=outcome.is_atomic,
            latency=outcome.latency,
            fees_paid=outcome.fees_paid,
            priced_out=outcome.priced_out,
            evictions=outcome.evictions,
            fee_bumps=outcome.fee_bumps,
            contracts={
                key: {
                    "chain": record.edge.chain_id,
                    "deployed_at": record.deployed_at,
                    "confirmed_at": record.confirmed_at,
                    "settled_at": record.settled_at,
                    "state": record.final_state,
                }
                for key, record in sorted(outcome.contracts.items())
            },
        )

    def request_owning(self, contract_id: bytes) -> SwapRequest | None:
        """The request whose swap deployed ``contract_id`` (as coordinator
        or asset contract), or None.  Linear over requests — its callers
        are the adversary's attack records, rare events off any hot path."""
        if not contract_id:
            return None
        for request in self.requests:
            outcome = (
                request.driver.outcome if request.driver is not None else request.outcome
            )
            if outcome is not None and (
                outcome.coordinator_contract_id == contract_id
                or any(r.contract_id == contract_id for r in outcome.contracts.values())
            ):
                return request
        return None

    def _fold(
        self, request: SwapRequest, outcome: SwapOutcome, completes_flight: bool
    ) -> None:
        """Fold one terminal outcome into the streaming accumulators."""
        self._metrics.fold(
            outcome, key=request.swap_id, completes_flight=completes_flight
        )
        per_protocol = self._by_protocol.get(request.protocol)
        if per_protocol is None:
            per_protocol = self._by_protocol[request.protocol] = MetricsAccumulator()
        per_protocol.fold(outcome, key=request.swap_id)

    @property
    def in_flight(self) -> int:
        return self._metrics.in_flight

    @property
    def completed(self) -> int:
        """Swaps that reached a terminal outcome so far."""
        return self._completed

    @property
    def max_in_flight(self) -> int:
        """Peak concurrency so far (tracked inside the accumulator)."""
        return self._metrics.max_in_flight

    def metrics_window(self, window: float, end: float | None = None):
        """Streaming service-mode view: commit rate / latency percentiles
        over the swaps that finished in the trailing ``window`` seconds
        (see :meth:`MetricsAccumulator.windowed`).  Callable mid-run."""
        return self._metrics.windowed(window, end=end)

    @verifying()
    def run(self, max_events: int = 50_000_000) -> EngineResult:
        """Drive the simulation until every submitted swap terminates.

        The engine never blocks inside a driver: it simply pumps the
        shared event queue; drivers, miners, failure injectors, and
        arrival callbacks all interleave on the simulator clock.  First-
        sight signature checks run beside it (:func:`verifying`).
        """
        sim = self.env.simulator
        processed = 0
        while self._completed < len(self.requests):
            if processed >= max_events:
                raise SchedulingError(f"engine exceeded {max_events} events")
            if not sim.step():
                break
            processed += 1
        # A drained queue with unfinished swaps means a world without miners.
        self.finish_unfinished()
        return self.result(events_processed=processed)

    def finish_unfinished(self) -> None:
        """Finalize every driver still running from whatever state exists
        (a finished driver ignores the call)."""
        for request in self.requests:
            if request.driver is not None:
                request.driver._finish()

    # -- results -----------------------------------------------------------

    def result(self, events_processed: int = 0) -> EngineResult:
        """Aggregate the completed swaps (callable mid-run as well).

        Every outcome was already folded into the streaming accumulators
        at completion time, so assembly is one snapshot per protocol —
        O(#protocols) snapshots over pre-folded state rather than a
        re-scan of all outcomes per protocol slice.  Snapshots read the
        outcomes by reference, which is what lets the adversary
        attribution pass just above re-stamp attack exposure (and
        re-audit reorged final states) without a re-fold.
        """
        if self._adversary is not None:
            self._adversary.attribute(self.requests)
        outcomes = [r.outcome for r in self.requests if r.outcome is not None]
        protocols = sorted(self._by_protocol)
        overall_name = protocols[0] if len(protocols) == 1 else "mixed"
        by_protocol = {
            protocol: self._by_protocol[protocol].snapshot(protocol=protocol)
            for protocol in protocols
        }
        return EngineResult(
            outcomes=outcomes,
            metrics=self._metrics.snapshot(protocol=overall_name),
            by_protocol=by_protocol,
            requests=list(self.requests),
            events_processed=events_processed,
            chain_reorgs=self.chain_reorgs,
            adversary=(
                self._adversary.report() if self._adversary is not None else None
            ),
        )
