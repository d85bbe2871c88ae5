"""The declarative experiment schema: one typed, serializable spec.

Every runnable scenario in this reproduction — single swaps, engine
traffic, congested fee markets, crash sweeps — is described by an
:class:`ExperimentSpec`: a nested tree of frozen dataclasses covering
chains, fee policy, traffic (including crash injection
and fee shocks), protocol mix, and engine options, all hanging off one
master seed.  A spec is *data*: it serializes to a plain dict/JSON and
back (`to_dict` / `from_dict` / `to_json` / `from_json`, all from
:class:`repro.serde.Serializable`) with strict unknown-key rejection, so
a run is shareable and reproducible from the spec alone.  Dotted-path
overrides (:func:`apply_overrides`) edit a spec non-destructively — the
mechanism behind the CLI's ``--set key=value``.

The spec layer deliberately contains no execution logic; see
:mod:`repro.experiment.runner` for :func:`~repro.experiment.runner.run_experiment`
and :mod:`repro.experiment.presets` for the named preset catalog.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, is_dataclass

from .. import serde
from ..adversary.spec import AdversarySpec
from ..chain.params import ChainParams, fast_chain
from ..economy import FeeBudget, FeePolicy
from ..errors import SpecError
from ..workloads.graphs import DEFAULT_AMOUNT
from ..workloads.scenarios import DEFAULT_FUNDING, is_traffic_name

# ---------------------------------------------------------------------------
# Registry-backed choice sets: read at every check, so a plug-in
# registered after import is a valid choice (the imports are lazy so
# the spec layer pulls in no execution code)
# ---------------------------------------------------------------------------


def protocol_choices() -> tuple[str, ...]:
    from ..engine.engine import registered_protocols

    return registered_protocols() + ("mixed",)


def _traffic_choices() -> tuple[str, ...]:
    from .registry import registered_traffic

    return registered_traffic()


def _category_choices() -> tuple[str, ...]:
    from ..obs.trace import CATEGORIES

    return CATEGORIES


# ---------------------------------------------------------------------------
# The spec tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainOverride:
    """Per-chain parameter overrides on top of the scenario defaults.

    Unset fields (None) inherit :class:`ChainsSpec`'s defaults / the
    ``fast_chain`` preset values.
    """

    block_interval: float | None = serde.field(None, gt=0)
    confirmation_depth: int | None = serde.field(None, ge=1)
    max_messages_per_block: int | None = serde.field(None, ge=1)
    deploy_fee: int | None = serde.field(None, ge=0)
    call_fee: int | None = serde.field(None, ge=0)
    transfer_fee: int | None = serde.field(None, ge=0)


@serde.retired("count", "name the asset chains in ids; empty ids is chain-0, chain-1", 2)
@serde.retired(
    "extra_participants",
    "fee_shocks[].whale and adversary.reorg.attacker fund themselves",
    (),
)
@serde.retired("extra_funding_chunks", "a funded extra holds 64 UTXOs", 64)
@serde.retired("validator_mode", "evidence is checked against relay anchors", "anchor")
@dataclass(frozen=True)
class ChainsSpec:
    """The world's chains: their names and their parameters."""

    ids: tuple[str, ...] = serde.field(
        (), nonempty=True, doc="asset-chain names ([] = chain-0, chain-1)"
    )
    witness: str = serde.field(
        "witness", nonempty=True, doc="the coordinating chain's id (always created)"
    )
    block_interval: float = serde.field(1.0, gt=0, doc="default for every chain")
    confirmation_depth: int = serde.field(2, ge=1, doc="default for every chain")
    overrides: dict[str, ChainOverride] = serde.field(
        default_factory=dict, doc="per-chain-id parameter overrides"
    )
    funding: int = serde.field(
        DEFAULT_FUNDING, ge=1, doc="per-participant genesis balance on each chain"
    )
    funding_chunks: int = serde.field(4, ge=1, doc="UTXOs that balance is split into")

    def asset_ids(self) -> tuple[str, ...]:
        return self.ids or ("chain-0", "chain-1")

    def build_params(self) -> dict[str, ChainParams]:
        """Materialize :class:`ChainParams` for every overridden chain."""
        params: dict[str, ChainParams] = {}
        for chain_id, o in self.overrides.items():
            base = fast_chain(
                chain_id,
                block_interval=(
                    self.block_interval
                    if o.block_interval is None
                    else o.block_interval
                ),
                confirmation_depth=(
                    self.confirmation_depth
                    if o.confirmation_depth is None
                    else o.confirmation_depth
                ),
            )
            changes: dict = {}
            if o.max_messages_per_block is not None:
                changes["max_messages_per_block"] = o.max_messages_per_block
            fee_changes = {
                key: value
                for key, value in (
                    ("deploy", o.deploy_fee),
                    ("call", o.call_fee),
                    ("transfer", o.transfer_fee),
                )
                if value is not None
            }
            if fee_changes:
                changes["fees"] = dataclasses.replace(base.fees, **fee_changes)
            params[chain_id] = base.with_overrides(**changes) if changes else base
        return params


@serde.retired(
    "fifo", "the FIFO mempool fork was removed; enabled=false is the unpriced pool", False
)
@serde.retired(
    "min_relay_fee_rate", "the relay floor is FeePolicy's", FeePolicy.min_relay_fee_rate
)
@serde.retired("rbf_bump", "the replacement bump is FeePolicy's", FeePolicy.rbf_bump)
@serde.retired("deploy_weight", "message weights are FeePolicy's", FeePolicy.deploy_weight)
@serde.retired("call_weight", "message weights are FeePolicy's", FeePolicy.call_weight)
@serde.retired(
    "transfer_weight", "message weights are FeePolicy's", FeePolicy.transfer_weight
)
@dataclass(frozen=True)
class FeeMarketSpec:
    """Fee-market economics (one :class:`~repro.economy.FeePolicy` for
    every chain, whose bounds the fields declare), or unpriced
    submission-order mempools when disabled."""

    enabled: bool = False
    block_weight_budget: int | None = serde.field(
        16,
        ge=FeePolicy.deploy_weight,
        doc="block space in weight units, room for a deploy (null = unlimited)",
    )
    capacity_weight: int | None = serde.field(
        96, ge=1, doc="mempool capacity in weight units (null = never evict)"
    )

    def build(self) -> FeePolicy | None:
        if not self.enabled:
            return None
        return FeePolicy(
            block_weight_budget=self.block_weight_budget,
            capacity_weight=self.capacity_weight,
        )


@dataclass(frozen=True)
class FeeBudgetSpec:
    """One swap class's fee envelope (see :class:`~repro.economy.FeeBudget`,
    whose bounds the fields declare)."""

    cap: int = serde.field(4000, ge=0, doc="most fees one swap may commit, all chains")
    fee_rate: int | None = serde.field(
        None, ge=0, doc="initial fee rate (null = ask the chain's estimator)"
    )
    bump_factor: float = serde.field(
        2.0, ge=1.0, doc="fee-rate multiplier per rebroadcast of an evicted message"
    )
    max_bumps: int = serde.field(3, ge=0, doc="rebroadcasts per message before giving up")

    def build(self) -> FeeBudget:
        return FeeBudget(
            cap=self.cap,
            fee_rate=self.fee_rate,
            bump_factor=self.bump_factor,
            max_bumps=self.max_bumps,
        )


@dataclass(frozen=True)
class CrashSpec:
    """Mid-protocol crash injection over the traffic stream.

    Two modes:

    * random — ``rate`` marks that fraction of swaps (independent RNG
      stream) to crash a uniformly chosen participant ``uniform(*window)``
      seconds after the swap's arrival;
    * deterministic — ``participant`` + ``delay`` crash that participant
      of *every* swap exactly ``delay`` seconds after its arrival.  A
      single-letter ``participant`` names the swap-local role (``"a"``,
      ``"b"`` …, resolved per swap against the traffic prefix); anything
      longer is taken as a literal participant name.
    """

    rate: float = serde.field(0.0, ge=0, le=1)
    window: tuple[float, float] = serde.field((1.0, 12.0), ge=0, doc="lo <= hi")
    down_for: float | None = serde.field(
        None, ge=0, doc="recovery delay, both modes (null = never)"
    )
    participant: str | None = serde.field(None, nonempty=True)
    delay: float | None = serde.field(None, ge=0, doc="set together with participant")


@dataclass(frozen=True)
class FeeShockSpec:
    """A whale demand burst: ``count`` high-fee transfers at one instant."""

    at: float = serde.field(5.0, ge=0, doc="seconds after warm-up")
    count: int = serde.field(32, ge=1)
    fee_rate: int = serde.field(8, ge=1)
    chain_id: str | None = serde.field(
        None, doc="null = the contended chain: witness for ac3wn/mixed, else the first asset chain"
    )
    whale: str = serde.field("whale", nonempty=True, doc="funded on every chain")


@serde.retired("start", "arrivals start at the end of the warm-up", 0.0)
@dataclass(frozen=True)
class TrafficSpec:
    """The workload: which generator produces the AC2T stream, and how.

    ``generator`` names an entry in the traffic registry
    (:mod:`repro.experiment.registry`): ``"poisson"`` (homogeneous
    open-loop arrivals) and ``"congestion"`` (heterogeneous LOW/HIGH fee
    budgets) ship built in; new workloads register without editing this
    file.  Generator-specific knobs (``low_fee_share`` and the budget
    classes) are ignored by generators that do not use them.
    """

    generator: str = serde.field(
        "poisson", choices=_traffic_choices, unknown="traffic generator"
    )
    num_swaps: int = serde.field(50, ge=1)
    rate: float = serde.field(10.0, gt=0, doc="mean open-loop arrivals per second")
    participants_per_swap: int = serde.field(
        2, ge=2, doc="ring size (= graph diameter over that many chains)"
    )
    amount: int = serde.field(DEFAULT_AMOUNT, ge=1, doc="per-edge asset amount")
    prefix: str = serde.field("swap", doc="participants are named <prefix>NNNN.<role>")
    crash: CrashSpec = field(default_factory=CrashSpec)
    fee_budget: FeeBudgetSpec | None = serde.field(
        None, doc="uniform per-swap budget, poisson generator (null = unbudgeted)"
    )
    low_fee_share: float = serde.field(
        0.5, ge=0, le=1, doc="congestion generator: share of LOW-class swaps"
    )
    low_budget: FeeBudgetSpec | None = serde.field(
        None, doc="null = the stock LOW budget of repro.workloads.scenarios"
    )
    high_budget: FeeBudgetSpec | None = serde.field(None, doc="null = the stock HIGH budget")


@serde.retired("warm_up_blocks", "every chain mines 2 blocks before the first arrival", 2)
@dataclass(frozen=True)
class EngineSpec:
    """Execution options for the :class:`~repro.engine.SwapEngine`."""

    eager: bool = serde.field(
        True, doc="must be true: drivers are event-driven only; stored echoes carry the key"
    )
    max_events: int = serde.field(50_000_000, ge=1)
    jitter: float | None = serde.field(
        None,
        ge=0,
        doc="submission-jitter span of fee-budgeted swaps "
        "(null = a quarter of the fastest involved block interval, 0 = off)",
    )


@serde.retired(
    "latency_buckets", "the swap-latency rails are the stock 1..320 s ladder", ()
)
@dataclass(frozen=True)
class MetricsSpec:
    """The live :class:`~repro.obs.MetricsRegistry` (off by default).

    Enabling it folds the trace event stream into a label-aware metrics
    registry, exported into ``reports.metrics`` and via ``repro run
    --metrics OUT``; it arms the event stream even when ``obs.enabled``
    is off (the collector then retains nothing — it only dispatches to
    the registry tap).  The buckets are fixed at registration so
    snapshots are a pure function of the spec.
    """

    enabled: bool = False


@dataclass(frozen=True)
class AlertRulesSpec:
    """Declarative thresholds for the invariant monitor's rules.

    Every rule is deterministic over the event stream; a ``None``
    threshold disables that rule.  Defaults are chosen so a clean,
    honest run fires nothing: alerts mean something broke or crossed a
    policy line, not that monitoring is on.
    """

    atomicity: bool = serde.field(True, doc="alert when a swap settles non-atomically")
    reorg_depth: int | None = serde.field(
        None,
        ge=0,
        doc="alert on a reorg this deep (null = chains.confirmation_depth, 0 = off)",
    )
    stall_multiple: float | None = serde.field(
        20.0,
        gt=0,
        doc="alert on no phase progress for this multiple of the base deadline "
        "(slowest interval x depth)",
    )
    mempool_saturation: int | None = serde.field(
        None, ge=1, doc="alert when a pool's pending depth reaches this (once per crossing)"
    )
    priced_out_rate: float | None = serde.field(
        None, gt=0, le=1, doc="alert when the priced-out share of recent outcomes reaches this"
    )
    priced_out_window: float = serde.field(30.0, gt=0, doc="sim-seconds 'recent' spans")
    priced_out_min: int = serde.field(5, ge=1, doc="casualties before the rate rule can fire")


@dataclass(frozen=True)
class MonitorSpec:
    """The online :class:`~repro.obs.InvariantMonitor` (off by default);
    firings land in ``reports.alerts`` and, when tracing, as ``alert``
    events."""

    enabled: bool = False
    rules: AlertRulesSpec = field(default_factory=AlertRulesSpec)
    stderr: bool = serde.field(
        False, doc="also print each alert to stderr the moment it fires"
    )


@serde.retired("sample_window", "the sampler's window is four sample intervals", None)
@dataclass(frozen=True)
class ObsSpec:
    """The flight recorder (see :mod:`repro.obs`): off by default, and
    disabled runs are byte- and time-identical to untraced ones."""

    enabled: bool = serde.field(False, doc="attach a TraceCollector to the run")
    categories: tuple[str, ...] = serde.field(
        (),
        choices=_category_choices,
        unknown="category",
        doc="[] = all; also scopes what metrics and the monitor see",
    )
    ring_size: int | None = serde.field(
        None, ge=1, doc="keep only the newest N events (null = unbounded)"
    )
    sample_interval: float = serde.field(
        10.0, gt=0, doc="sim-seconds between time-series gauge samples"
    )
    metrics: MetricsSpec = field(default_factory=MetricsSpec)
    monitor: MonitorSpec = field(default_factory=MonitorSpec)


@serde.retired(
    "latency", "no message was ever routed; delay is confirmation_depth x block_interval"
)
@dataclass(frozen=True)
class ExperimentSpec(serde.Serializable):
    """One complete, runnable, serializable experiment description."""

    name: str = serde.field("experiment", doc="label echoed into every artifact")
    seed: int = serde.field(0, doc="master seed for all randomness")
    protocol: str = serde.field(
        "ac3wn",
        choices=protocol_choices,
        unknown="protocol",
        doc="'mixed' round-robins the four built-ins",
    )
    chains: ChainsSpec = field(default_factory=ChainsSpec)
    fee_market: FeeMarketSpec = field(default_factory=FeeMarketSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    fee_shocks: tuple[FeeShockSpec, ...] = ()
    adversary: AdversarySpec = serde.field(
        default_factory=AdversarySpec, doc="every actor disabled by default"
    )
    obs: ObsSpec = field(default_factory=ObsSpec)

    # -- validation --------------------------------------------------------

    def validate(self) -> "ExperimentSpec":
        """Hold every field to its declared rule (:func:`repro.serde.check`),
        then check what relates two fields, or a field and the world;
        returns self for chaining."""

        def fail(message: str) -> None:
            raise SpecError(f"invalid spec {self.name!r}: {message}")

        serde.check(self, fail=fail)
        chains, traffic = self.chains, self.traffic
        asset_ids = chains.asset_ids()
        if len(set(asset_ids)) != len(asset_ids):
            fail("chains.ids contains duplicates")
        if chains.witness in asset_ids:
            fail("the witness chain must be distinct from the asset chains")
        known_chains = {*asset_ids, chains.witness}
        for chain_id in chains.overrides:
            if chain_id not in known_chains:
                fail(f"chains.overrides names unknown chain {chain_id!r}")
        # Every chain charges the fast_chain schedule unless overridden.
        fees = [fast_chain("").fees] + [p.fees for p in chains.build_params().values()]
        leg = traffic.amount + max(fee.deploy + fee.call for fee in fees)
        if chains.funding < leg:
            fail(
                f"chains.funding must be at least {leg} (traffic.amount plus a "
                f"deploy and a call fee): a participant could not fund its own leg"
            )
        crash = traffic.crash
        if crash.window[1] < crash.window[0]:
            fail("traffic.crash.window must satisfy lo <= hi")
        if (crash.participant is None) != (crash.delay is None):
            fail("traffic.crash.participant and .delay must be set together")
        if crash.participant is not None and crash.rate > 0.0:
            fail("traffic.crash: rate and participant/delay are exclusive")
        if self.protocol in ("nolan", "mixed") and traffic.participants_per_swap != 2:
            # "mixed" round-robins Nolan over part of the traffic.
            fail(
                f"protocol {self.protocol!r} includes Nolan, which is strictly "
                f"two-party: traffic.participants_per_swap must be 2"
            )
        if not self.engine.eager:
            fail(
                "engine.eager must be true: the poll-tick driver cadence "
                "was removed, drivers are event-driven only"
            )
        funded = [("adversary.reorg.attacker", self.adversary.reorg.attacker)]
        for index, shock in enumerate(self.fee_shocks):
            if shock.chain_id is not None and shock.chain_id not in known_chains:
                fail(f"fee_shocks[{index}] names unknown chain {shock.chain_id!r}")
            funded.append((f"fee_shocks[{index}].whale", shock.whale))
        for where, name in funded:
            if is_traffic_name(name, traffic.prefix):
                fail(
                    f"{where} {name!r} collides with the traffic participant "
                    f"names {traffic.prefix}NNNN.<role>"
                )
        self.adversary.validate(fail, known_chains)
        from ..engine.engine import registered_phases

        phases, phase = registered_phases(self.protocol), self.adversary.eclipse.phase
        if phases and phase not in phases:
            fail(
                f"adversary.eclipse.phase {phase!r} is never entered by protocol "
                f"{self.protocol!r} (phases: {', '.join(phases)})"
            )
        return self


# ---------------------------------------------------------------------------
# Dotted-path overrides: the CLI's --set key=value mechanism
# ---------------------------------------------------------------------------


def _parse_override_value(raw):
    """Interpret a ``--set`` value: JSON first, bare string as fallback."""
    if not isinstance(raw, str):
        return raw
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _override_one(obj, path: str, full_path: str, raw):
    head, _, rest = path.partition(".")
    if not is_dataclass(obj) or isinstance(obj, type):
        raise SpecError(
            f"override {full_path!r}: {full_path[: -len(path) - 1]!r} "
            f"has no nested fields"
        )
    known = serde.known_field(type(obj), head, f"override {full_path!r}")
    if rest:
        value = _override_one(getattr(obj, known.name), rest, full_path, raw)
    else:
        value = serde.load(known.type, _parse_override_value(raw), full_path)
    return dataclasses.replace(obj, **{known.name: value})


def apply_overrides(spec: ExperimentSpec, overrides: dict) -> ExperimentSpec:
    """Apply dotted-path overrides to a spec, returning a new spec.

    Keys are dotted field paths into the spec tree
    (``"traffic.rate"``, ``"fee_market.enabled"``); values may be
    already-typed Python values or ``--set``-style strings, which are
    parsed as JSON with a bare-string fallback (so ``--set
    chains.witness=hub`` and ``--set traffic.rate=12.5`` both work).
    Unknown paths and type mismatches raise
    :class:`~repro.errors.SpecError`.
    """
    for path, raw in overrides.items():
        spec = _override_one(spec, path, path, raw)
    return spec


def parse_set_args(pairs: list[str]) -> dict:
    """Parse CLI ``--set key=value`` strings into an overrides dict."""
    overrides: dict = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SpecError(
                f"--set expects key=value, got {pair!r} "
                f"(example: --set traffic.rate=12.0)"
            )
        overrides[key.strip()] = value
    return overrides
