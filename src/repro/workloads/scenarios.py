"""End-to-end scenario builders: chains + miners + participants + failures.

A scenario assembles everything a protocol driver needs into a
:class:`ScenarioEnvironment` (a :class:`~repro.core.protocol.SwapEnvironment`
plus the miners and failure injector).  Tests, benchmarks and
examples all build their worlds through this module so that setup is
uniform and reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..chain.chain import Blockchain, Genesis, build_genesis
from ..chain.mempool import Mempool
from ..chain.miner import MinerNode
from ..chain.params import ChainParams, fast_chain
from ..economy import FeeBudget, FeeEstimator, FeePolicy
from ..core.graph import AssetEdge, SwapGraph
from ..core.participant import ChainHandle, Participant
from ..core.protocol import SwapEnvironment
from ..crypto.keys import KeyPair
from ..errors import InsufficientFundsError, ProtocolError, ValidationError
from ..sim.failures import FailureInjector, FailureSchedule
from ..sim.rng import RngStream
from ..sim.simulator import Simulator
from .graphs import DEFAULT_AMOUNT, participant_pairs

DEFAULT_FUNDING = 100_000


@dataclass
class ScenarioEnvironment(SwapEnvironment):
    """A fully assembled world: environment plus operational machinery."""

    miners: dict[str, MinerNode] = field(default_factory=dict)
    injector: FailureInjector | None = None
    witness_chain_id: str = "witness"
    #: Fee-market configuration; None when mempools are unpriced.
    fee_policy: FeePolicy | None = None
    fee_estimators: dict[str, FeeEstimator] = field(default_factory=dict)

    def close(self) -> None:
        """End the simulation: no queued event fires and no chain calls a
        listener after this; what the world holds stays readable."""
        self.simulator.close()
        for chain in self.chains.values():
            chain.close()

    def start_mining(self) -> None:
        for miner in self.miners.values():
            miner.start()

    def apply_failures(self, schedule: FailureSchedule) -> None:
        """Schedule crash windows against this world's nodes."""
        if self.injector is None:
            self.injector = FailureInjector(self.simulator)
        nodes = dict(self.participants)
        nodes.update(self.miners)
        self.injector.apply(schedule, nodes)

    def warm_up(self, blocks: int = 1) -> None:
        """Advance the simulation until every chain has ``blocks`` blocks.

        Gives each chain a little history so that stable headers exist
        before a protocol starts (mirrors joining mature networks).
        """
        for chain_id, chain in self.chains.items():
            interval = chain.params.block_interval
            self.simulator.run_until_true(
                lambda c=chain: c.height >= blocks,
                timeout=(blocks + 2) * interval * 2,
            )


def _assemble_world(
    chains_of: dict[str, list[str]],
    piece_of: dict[str, int],
    ordered_chains: list[str],
    *,
    witness_chain_id: str,
    chain_params: dict[str, ChainParams] | None,
    seed: int,
    funding: int,
    block_interval: float,
    confirmation_depth: int,
    fee_policy: FeePolicy | None,
    keypairs: dict[str, KeyPair],
) -> ScenarioEnvironment:
    """The one world assembly behind both scenario builders.

    ``chains_of`` maps each participant (in creation and genesis order)
    to the chains it is funded on and joins; ``piece_of`` is the UTXO
    size its ``funding`` is split into; ``keypairs`` holds the key pairs
    the graphs were built from (a participant without one derives its
    own).  Genesis allocation order is part of every block id, so it
    follows ``chains_of`` exactly.  Chains with the same member list are
    funded alike, so they share one :class:`~repro.chain.chain.Genesis`:
    a world builds one per distinct member list, in ``ordered_chains``
    order.  The grouping lives in this call, so a second world or a
    restore builds its own.
    """
    simulator = Simulator(seed=seed)
    actors = {name: Participant(simulator, name, keypairs.get(name)) for name in chains_of}

    chains: dict[str, Blockchain] = {}
    mempools: dict[str, Mempool] = {}
    miners: dict[str, MinerNode] = {}
    estimators: dict[str, FeeEstimator] = {}
    genesis_of: dict[tuple[str, ...], Genesis] = {}
    for chain_id in ordered_chains:
        params = (chain_params or {}).get(chain_id) or fast_chain(
            chain_id,
            block_interval=block_interval,
            confirmation_depth=confirmation_depth,
        )
        members = tuple(name for name in chains_of if chain_id in chains_of[name])
        genesis = genesis_of.get(members)
        if genesis is None:
            # Split each participant's funding into several UTXOs so that
            # multiple in-flight messages never contend for one coin.
            allocations = []
            for name in members:
                address, remaining = actors[name].address, funding
                while remaining > 0:
                    value = min(piece_of[name], remaining)
                    allocations.append((address, value))
                    remaining -= value
            genesis = genesis_of[members] = build_genesis(allocations)
        chain = chains[chain_id] = Blockchain(params, genesis)
        mempool = mempools[chain_id] = Mempool(chain, fee_policy)
        miners[chain_id] = MinerNode(simulator, chain, mempool)
        if fee_policy is not None:
            estimators[chain_id] = FeeEstimator(chain, fee_policy)
        handle = ChainHandle(chain=chain, mempool=mempool)
        for name in members:
            actors[name].join_chain(handle)

    env = ScenarioEnvironment(
        simulator=simulator,
        chains=chains,
        mempools=mempools,
        participants=actors,
        miners=miners,
        injector=FailureInjector(simulator),
        witness_chain_id=witness_chain_id,
        fee_policy=fee_policy,
        fee_estimators=estimators,
    )
    env.start_mining()
    return env


def build_scenario(
    graph: SwapGraph | None = None,
    chain_ids: list[str] | None = None,
    chain_params: dict[str, ChainParams] | None = None,
    witness_chain_id: str = "witness",
    participants: list[str] | None = None,
    seed: int = 0,
    funding: int = DEFAULT_FUNDING,
    funding_chunks: int = 8,
    block_interval: float = 1.0,
    confirmation_depth: int = 2,
    fee_policy: FeePolicy | None = None,
) -> ScenarioEnvironment:
    """Build a complete simulation world.

    Args:
        graph: if given, chains and participants are derived from it.
        chain_ids: extra/explicit chain names (the witness chain is always
            added).
        chain_params: overrides per chain id; chains not listed get
            :func:`~repro.chain.params.fast_chain` with the supplied
            ``block_interval`` / ``confirmation_depth``.
        witness_chain_id: the coordinating chain's id.
        participants: explicit participant names (default: from graph).
        seed: master seed for all randomness.
        funding: genesis balance of every participant on every chain.
        funding_chunks: how many UTXOs the funding is split into (more
            chunks allow more concurrent in-flight messages).
        block_interval / confirmation_depth: defaults for fast chains.
        fee_policy: when set, every chain's mempool prices block space
            under this policy (plus a :class:`~repro.economy.FeeEstimator`);
            when None, mempools are unpriced and mine in submission order.

    Returns:
        A ready :class:`ScenarioEnvironment` with mining already started.
    """
    names: list[str] = list(participants or [])
    wanted_chains: list[str] = list(chain_ids or [])
    if graph is not None:
        names = names or graph.participant_names()
        wanted_chains.extend(sorted(graph.chains_used()))
    if witness_chain_id not in wanted_chains:
        wanted_chains.append(witness_chain_id)
    if not names:
        raise ProtocolError("scenario needs participants (or a graph)")
    ordered_chains = list(dict.fromkeys(wanted_chains))
    chunk = max(funding // max(funding_chunks, 1), 1)
    return _assemble_world(
        {name: ordered_chains for name in names},
        dict.fromkeys(names, chunk),
        ordered_chains,
        witness_chain_id=witness_chain_id,
        chain_params=chain_params,
        seed=seed,
        funding=funding,
        block_interval=block_interval,
        confirmation_depth=confirmation_depth,
        fee_policy=fee_policy,
        keypairs=graph.keypairs if graph is not None else {},
    )


# ---------------------------------------------------------------------------
# Multi-swap traffic: the workloads the SwapEngine multiplexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashPlan:
    """A per-swap failure injection: crash one participant mid-protocol.

    Attributes:
        participant: the (per-swap namespaced) participant to crash.
        delay: seconds after the swap's arrival at which the crash hits.
        down_for: recovery delay after the crash (None = never recovers).
    """

    participant: str
    delay: float
    down_for: float | None = None


@dataclass(frozen=True)
class TrafficItem:
    """One scheduled swap: arrival time, graph, and optional economics
    (the fee budget and crash plan
    :meth:`repro.engine.SwapEngine.submit_many` honours)."""

    at: float
    graph: SwapGraph
    fee_budget: FeeBudget | None = None
    crash: CrashPlan | None = None


def poisson_arrivals(num_swaps: int, rate: float, stream: RngStream) -> list[float]:
    """Open-loop Poisson arrival times: ``num_swaps`` events at ``rate``/s.

    Inter-arrival gaps are exponential with mean ``1/rate``, drawn from a
    named deterministic stream, so a traffic schedule is a pure function
    of (seed, stream name, num_swaps, rate).
    """
    if num_swaps < 0:
        raise ProtocolError("num_swaps must be non-negative")
    arrivals: list[float] = []
    now = 0.0
    for _ in range(num_swaps):
        now += stream.expovariate(rate)
        arrivals.append(now)
    return arrivals


def _swap_names(index: int, participants_per_swap: int, prefix: str) -> list[str]:
    return [f"{prefix}{index:04d}.{chr(ord('a') + j)}" for j in range(participants_per_swap)]


def swap_graph(
    index: int,
    chain_ids: list[str],
    participants_per_swap: int,
    amount: int,
    prefix: str,
    pairs: dict[str, KeyPair] | None = None,
) -> SwapGraph:
    """The ``index``-th traffic AC2T: a directed ring over its own
    namespaced participants (``swap0007.a`` …), chains assigned
    round-robin with a per-swap rotation, ``timestamp=index``.  Its
    key pairs come from ``pairs`` when given (a batch that derived
    them), else are derived here."""
    names = _swap_names(index, participants_per_swap, prefix)
    edges = [
        AssetEdge(
            source=names[j],
            recipient=names[(j + 1) % len(names)],
            chain_id=chain_ids[(index + j) % len(chain_ids)],
            amount=amount,
        )
        for j in range(len(names))
    ]
    keys = participant_pairs(names) if pairs is None else {name: pairs[name] for name in names}
    return SwapGraph.build(keys, edges, timestamp=index)


def is_traffic_name(name: str, prefix: str) -> bool:
    """Whether ``name`` has the ``<prefix>NNNN.<role>`` shape
    :func:`swap_graph` reserves for traffic participants."""
    return re.fullmatch(re.escape(prefix) + r"\d{4,}\..", name) is not None


def role_name(names, role: str) -> str | None:
    """The participant ``role`` denotes among ``names``: the literal name
    if present, else — for a one-letter role — the first
    ``<prefix>NNNN.<role>`` of :func:`swap_graph`'s naming, else None."""
    if role in names:
        return role
    if len(role) == 1:
        return next((name for name in names if name.endswith(f".{role}")), None)
    return None


def swap_traffic_graphs(
    num_swaps: int,
    chain_ids: list[str],
    participants_per_swap: int = 2,
    amount: int = DEFAULT_AMOUNT,
    prefix: str = "swap",
) -> list[SwapGraph]:
    """Independent AC2T graphs for engine traffic, one per user group.

    Every swap gets its own namespaced participants, mirroring distinct
    end-users, so concurrent swaps never contend for each other's keys
    or UTXOs — contention happens where it should, on the shared chains
    and mempools; the per-swap chain rotation spreads load across
    ``chain_ids`` (see :func:`swap_graph`).
    """
    if participants_per_swap < 2:
        raise ProtocolError("a swap needs at least two participants")
    if not chain_ids:
        raise ProtocolError("swap traffic needs at least one asset chain")
    pairs = participant_pairs(
        [
            name
            for index in range(num_swaps)
            for name in _swap_names(index, participants_per_swap, prefix)
        ]
    )
    return [
        swap_graph(index, chain_ids, participants_per_swap, amount, prefix, pairs)
        for index in range(num_swaps)
    ]


def swap_traffic(
    num_swaps: int,
    rate: float,
    seed: int = 0,
    chain_ids: list[str] | None = None,
    participants_per_swap: int = 2,
    amount: int = DEFAULT_AMOUNT,
    prefix: str = "swap",
    crash_rate: float = 0.0,
    crash_window: tuple[float, float] = (1.0, 12.0),
    crash_down_for: float | None = None,
    budget_sampler=None,
) -> list[TrafficItem]:
    """The traffic assembly: arrivals + graphs + crash plans (+ fee
    budgets).

    Both traffic generators (:mod:`repro.experiment.registry`) are this
    one function under a different ``budget_sampler``: a constant for
    "poisson", :func:`congestion_budgets` for "congestion".  Each
    concern draws from its own named RNG stream
    (``workload/poisson-arrivals``, ``workload/crash-injection``,
    ``workload/fee-budgets``) so a schedule is a pure function of its
    arguments and never perturbs the simulation's other randomness.

    ``crash_rate`` marks that fraction of swaps (from an independent
    stream) to crash mid-protocol: a uniformly chosen participant of the
    swap crashes ``uniform(*crash_window)`` seconds after the swap's
    arrival and recovers after ``crash_down_for`` seconds (None = never).
    The injection is surfaced per swap in
    :attr:`~repro.core.protocol.SwapOutcome.injected_crash` and counted
    by the engine's metrics.

    ``budget_sampler`` (optional) draws one
    :class:`~repro.economy.FeeBudget` (or None) per swap from the
    ``workload/fee-budgets`` stream — ``sampler(stream) -> FeeBudget | None``,
    called once per swap in arrival order.
    """
    if not 0.0 <= crash_rate <= 1.0:
        raise ProtocolError("crash_rate must be within [0, 1]")
    chain_ids = chain_ids or ["chain-a", "chain-b"]
    stream = RngStream(seed, "workload/poisson-arrivals")
    arrivals = poisson_arrivals(num_swaps, rate, stream)
    graphs = swap_traffic_graphs(
        num_swaps,
        chain_ids,
        participants_per_swap=participants_per_swap,
        amount=amount,
        prefix=prefix,
    )
    crashes: list[CrashPlan | None] = [None] * num_swaps
    if crash_rate > 0.0:
        crash_stream = RngStream(seed, "workload/crash-injection")
        for index, graph in enumerate(graphs):
            if crash_stream.random() >= crash_rate:
                continue
            names = graph.participant_names()
            crashes[index] = CrashPlan(
                participant=names[crash_stream.randint(0, len(names) - 1)],
                delay=crash_stream.uniform(*crash_window),
                down_for=crash_down_for,
            )
    budgets: list[FeeBudget | None] = [None] * num_swaps
    if budget_sampler is not None:
        budget_stream = RngStream(seed, "workload/fee-budgets")
        budgets = [budget_sampler(budget_stream) for _ in range(num_swaps)]
    return [
        TrafficItem(at=at, graph=graph, crash=crash, fee_budget=budget)
        for at, graph, crash, budget in zip(arrivals, graphs, crashes, budgets)
    ]


def build_multi_scenario(
    graphs: list[SwapGraph],
    witness_chain_id: str = "witness",
    chain_params: dict[str, ChainParams] | None = None,
    seed: int = 0,
    funding: int = DEFAULT_FUNDING,
    funding_chunks: int = 4,
    block_interval: float = 1.0,
    confirmation_depth: int = 2,
    fee_policy: FeePolicy | None = None,
    extra_participants: list[str] | None = None,
) -> ScenarioEnvironment:
    """Build one shared world serving *many* AC2T graphs at once.

    Unlike :func:`build_scenario` (one graph, every participant funded on
    every chain), this funds each swap's participants only on the chains
    their swap touches plus the witness chain — with hundreds of swaps,
    per-swap funding keeps the genesis blocks (and coin selection) small.

    ``fee_policy`` attaches a fee market to every chain's mempool (see
    :func:`build_scenario`).
    ``extra_participants`` are funded on *every* chain with 64 UTXOs
    each — whales for fee-shock bursts (:func:`schedule_fee_shock`) need
    many spendable coins at once.
    """
    if not graphs:
        raise ProtocolError("a multi-swap scenario needs at least one graph")
    ordered_chains = list(
        dict.fromkeys(
            chain_id for graph in graphs for chain_id in sorted(graph.chains_used())
        )
    )
    if witness_chain_id not in ordered_chains:
        ordered_chains.append(witness_chain_id)

    # Which chains each participant needs funds and access on.
    chains_of: dict[str, list[str]] = {}
    for graph in graphs:
        graph_chains = sorted(graph.chains_used() | {witness_chain_id})
        for name in graph.participant_names():
            if name in chains_of:
                raise ProtocolError(
                    f"participant {name!r} appears in more than one graph; "
                    f"namespace traffic participants per swap"
                )
            chains_of[name] = graph_chains
    chunk = max(funding // max(funding_chunks, 1), 1)
    piece_of = dict.fromkeys(chains_of, chunk)
    for name in extra_participants or []:
        if name in chains_of:
            raise ProtocolError(f"extra participant {name!r} collides with traffic")
        chains_of[name] = ordered_chains
        piece_of[name] = max(funding // 64, 1)
    return _assemble_world(
        {name: chains_of[name] for name in sorted(chains_of)},
        piece_of,
        ordered_chains,
        witness_chain_id=witness_chain_id,
        chain_params=chain_params,
        seed=seed,
        funding=funding,
        block_interval=block_interval,
        confirmation_depth=confirmation_depth,
        fee_policy=fee_policy,
        keypairs={name: pair for graph in graphs for name, pair in graph.keypairs.items()},
    )


# ---------------------------------------------------------------------------
# Congestion workloads: oversubscribed traffic under a fee market
# ---------------------------------------------------------------------------

#: A price-insensitive user: pays the floor rate, barely bumps, small cap.
LOW_FEE_BUDGET = FeeBudget(cap=60, fee_rate=1, bump_factor=2.0, max_bumps=1)

#: A price-following user: asks the estimator, bumps aggressively.
HIGH_FEE_BUDGET = FeeBudget(cap=4000, fee_rate=None, bump_factor=2.0, max_bumps=4)


def congestion_budgets(
    low_fee_share: float = 0.5,
    low: FeeBudget = LOW_FEE_BUDGET,
    high: FeeBudget = HIGH_FEE_BUDGET,
):
    """A :func:`swap_traffic` ``budget_sampler`` for heterogeneous fee
    budgets: each swap independently draws the price-insensitive ``low``
    class with probability ``low_fee_share``, otherwise the
    price-following ``high`` class.  Under an oversubscribed arrival
    rate the low class is what congestion prices out — the acceptance
    scenario of the fee-market subsystem."""
    return lambda stream: low if stream.random() < low_fee_share else high


def schedule_fee_shock(
    env: ScenarioEnvironment,
    chain_id: str,
    at: float,
    count: int = 32,
    fee_rate: int = 8,
    whale: str = "whale",
) -> None:
    """Schedule a fee-shock burst: ``count`` high-fee transfers at ``at``.

    The ``whale`` participant (fund it via ``build_multi_scenario``'s
    ``extra_participants``) floods ``chain_id`` with self-transfers
    paying ``fee_rate`` per weight unit, displacing cheaper pending
    messages — the demand spike that stress-tests bump-or-abort.
    """
    actor = env.participant(whale)
    policy = env.mempools[chain_id].policy
    weight = policy.transfer_weight if policy is not None else 1
    fee = max(env.chain(chain_id).params.fees.transfer, fee_rate * weight)

    def burst() -> None:
        for _ in range(count):
            try:
                actor.transfer(chain_id, actor.address, amount=1, fee=fee)
            except (InsufficientFundsError, ValidationError):
                break  # out of spendable coins or out-priced: stop early

    env.simulator.schedule_at(at, burst, label=f"fee shock on {chain_id}")

