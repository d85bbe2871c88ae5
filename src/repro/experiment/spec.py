"""The declarative experiment schema: one typed, serializable spec.

Every runnable scenario in this reproduction — single swaps, engine
traffic, congested fee markets, crash sweeps — is described by an
:class:`ExperimentSpec`: a nested tree of frozen dataclasses covering
chains, fee policy, network latency, traffic (including crash injection
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
from ..errors import FeeError, SpecError
from ..sim.network import LatencyModel
from ..workloads.graphs import DEFAULT_AMOUNT
from ..workloads.scenarios import DEFAULT_FUNDING, VALIDATOR_MODES

# ---------------------------------------------------------------------------
# The spec tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatencySpec:
    """Network latency distribution (see :class:`~repro.sim.network.LatencyModel`)."""

    base: float = 0.05
    jitter: float = 0.0

    def build(self) -> LatencyModel:
        return LatencyModel(base=self.base, jitter=self.jitter)


@dataclass(frozen=True)
class ChainOverride:
    """Per-chain parameter overrides on top of the scenario defaults.

    Unset fields (None) inherit :class:`ChainsSpec`'s defaults / the
    ``fast_chain`` preset values.
    """

    block_interval: float | None = None
    confirmation_depth: int | None = None
    max_messages_per_block: int | None = None
    deploy_fee: int | None = None
    call_fee: int | None = None
    transfer_fee: int | None = None


@dataclass(frozen=True)
class ChainsSpec:
    """The world's chains: how many, their names, and their parameters.

    Attributes:
        count: number of asset chains, auto-named ``chain-0`` … when
            ``ids`` is empty.
        ids: explicit asset-chain names (overrides ``count``).
        witness: the coordinating chain's id (always created).
        block_interval / confirmation_depth: defaults for every chain.
        overrides: per-chain-id parameter overrides.
        validator_mode: Section 4.3 evidence validation — "anchor",
            "full-replica", or "light-client".
        funding / funding_chunks: per-participant genesis balance and the
            number of UTXOs it is split into.
        extra_participants: names funded on *every* chain (whales for
            fee shocks) with ``extra_funding_chunks`` UTXOs each.
    """

    count: int = 2
    ids: tuple[str, ...] = ()
    witness: str = "witness"
    block_interval: float = 1.0
    confirmation_depth: int = 2
    overrides: dict[str, ChainOverride] = field(default_factory=dict)
    validator_mode: str = "anchor"
    funding: int = DEFAULT_FUNDING
    funding_chunks: int = 4
    extra_participants: tuple[str, ...] = ()
    extra_funding_chunks: int = 64

    def asset_ids(self) -> tuple[str, ...]:
        if self.ids:
            return self.ids
        return tuple(f"chain-{i}" for i in range(self.count))

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


@dataclass(frozen=True)
class FeeMarketSpec:
    """Fee-market economics (one :class:`~repro.economy.FeePolicy` for
    every chain), or unpriced submission-order mempools when disabled.

    ``fifo`` must be ``False``: the FIFO fork of the fee-market mempool
    was removed, but the field stays because every stored spec echo
    carries it."""

    enabled: bool = False
    block_weight_budget: int | None = 16
    capacity_weight: int | None = 96
    min_relay_fee_rate: int = 1
    rbf_bump: float = 1.25
    deploy_weight: int = 4
    call_weight: int = 2
    transfer_weight: int = 1
    fifo: bool = False

    def build(self) -> FeePolicy | None:
        if not self.enabled:
            return None
        return FeePolicy(
            block_weight_budget=self.block_weight_budget,
            capacity_weight=self.capacity_weight,
            min_relay_fee_rate=self.min_relay_fee_rate,
            rbf_bump=self.rbf_bump,
            deploy_weight=self.deploy_weight,
            call_weight=self.call_weight,
            transfer_weight=self.transfer_weight,
        )


@dataclass(frozen=True)
class FeeBudgetSpec:
    """One swap class's fee envelope (see :class:`~repro.economy.FeeBudget`)."""

    cap: int = 4000
    fee_rate: int | None = None
    bump_factor: float = 2.0
    max_bumps: int = 3

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

    ``down_for`` (both modes) is the recovery delay (None = never).
    """

    rate: float = 0.0
    window: tuple[float, float] = (1.0, 12.0)
    down_for: float | None = None
    participant: str | None = None
    delay: float | None = None


@dataclass(frozen=True)
class FeeShockSpec:
    """A whale demand burst: ``count`` high-fee transfers at one instant.

    ``chain_id=None`` floods the protocol's contended chain (the witness
    chain for AC3WN/mixed runs, else the first asset chain).  ``at`` is
    seconds after warm-up.  The ``whale`` participant is automatically
    funded on every chain.
    """

    at: float = 5.0
    count: int = 32
    fee_rate: int = 8
    chain_id: str | None = None
    whale: str = "whale"


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

    generator: str = "poisson"
    num_swaps: int = 50
    rate: float = 10.0
    participants_per_swap: int = 2
    amount: int = DEFAULT_AMOUNT
    start: float = 0.0
    prefix: str = "swap"
    crash: CrashSpec = field(default_factory=CrashSpec)
    #: Uniform per-swap budget for generators with one swap class
    #: (None = unbudgeted traffic, fees at chain defaults).
    fee_budget: FeeBudgetSpec | None = None
    #: Congestion-generator knobs: class mix and per-class budgets
    #: (None = the stock LOW/HIGH budgets from repro.workloads.scenarios).
    low_fee_share: float = 0.5
    low_budget: FeeBudgetSpec | None = None
    high_budget: FeeBudgetSpec | None = None


@dataclass(frozen=True)
class EngineSpec:
    """Execution options for the :class:`~repro.engine.SwapEngine`."""

    #: Must be true: drivers are event-driven only.  The field stays so
    #: persisted spec echoes, checkpoints and request logs still load.
    eager: bool = True
    warm_up_blocks: int = 2
    max_events: int = 50_000_000
    #: Width (seconds) of the deterministic per-swap submission jitter
    #: applied to fee-budgeted swaps' block-hook reactions.  None = a
    #: quarter of the fastest involved chain's block interval; 0
    #: disables jitter.
    jitter: float | None = None


@dataclass(frozen=True)
class MetricsSpec:
    """The live :class:`~repro.obs.MetricsRegistry` (off by default).

    Attributes:
        enabled: fold the trace event stream into a label-aware metrics
            registry, exported into ``reports.metrics`` and via
            ``repro run --metrics OUT``.  Arms the event stream even
            when ``obs.enabled`` is off (the collector then retains
            nothing — it only dispatches to the registry tap).
        latency_buckets: swap-latency histogram boundaries in
            sim-seconds, strictly increasing; empty = the stock
            :data:`~repro.obs.DEFAULT_LATENCY_BUCKETS`.  Fixed at
            registration so snapshots are a pure function of the spec.
    """

    enabled: bool = False
    latency_buckets: tuple[float, ...] = ()


@dataclass(frozen=True)
class AlertRulesSpec:
    """Declarative thresholds for the invariant monitor's rules.

    Every rule is deterministic over the event stream; a ``None``
    threshold disables that rule.  Defaults are chosen so a clean,
    honest run fires nothing: alerts mean something broke or crossed a
    policy line, not that monitoring is on.

    Attributes:
        atomicity: alert whenever a swap settles non-atomically.
        reorg_depth: alert when a reorg abandons at least this many
            blocks (None = the spec's ``chains.confirmation_depth`` —
            i.e. the depth-d defense was breached).  0 disables.
        stall_multiple: alert when a swap makes no phase progress for
            longer than this multiple of the base deadline (slowest
            block interval × confirmation depth).  None disables.
        mempool_saturation: alert when a mempool's pending depth
            reaches this many messages (None = off; fires once per
            crossing, re-arming when the pool drains).
        priced_out_rate: alert when the priced-out share of outcomes
            inside ``priced_out_window`` reaches this fraction with at
            least ``priced_out_min`` casualties (None = off).
    """

    atomicity: bool = True
    reorg_depth: int | None = None
    stall_multiple: float | None = 20.0
    mempool_saturation: int | None = None
    priced_out_rate: float | None = None
    priced_out_window: float = 30.0
    priced_out_min: int = 5


@dataclass(frozen=True)
class MonitorSpec:
    """The online :class:`~repro.obs.InvariantMonitor` (off by default).

    Attributes:
        enabled: evaluate the alert rules in-stream; firings land in
            ``reports.alerts`` and, when tracing, as ``alert`` events.
        rules: the rule thresholds (see :class:`AlertRulesSpec`).
        stderr: additionally print each alert to stderr the moment it
            fires (the live-operator view; off keeps runs quiet and
            output deterministic for tests).
    """

    enabled: bool = False
    rules: AlertRulesSpec = field(default_factory=AlertRulesSpec)
    stderr: bool = False


@dataclass(frozen=True)
class ObsSpec:
    """The flight recorder (see :mod:`repro.obs`): off by default.

    Attributes:
        enabled: attach a :class:`~repro.obs.TraceCollector` to the run
            (disabled runs are byte- and time-identical to untraced ones).
        categories: trace categories to record; empty means all of
            :data:`repro.obs.CATEGORIES`.  Also scopes what the metrics
            registry and monitor can see when they are enabled.
        ring_size: bounded flight-recorder mode — keep only the newest
            N events (None = unbounded).
        sample_interval: sim-seconds between :class:`TimeSeriesSampler`
            gauge emissions (only when the ``sample`` category is on).
        sample_window: trailing window for the sampler's windowed
            metrics view (None = four sample intervals).
        metrics: the live metrics registry (see :class:`MetricsSpec`).
        monitor: the online invariant monitor (see :class:`MonitorSpec`).
    """

    enabled: bool = False
    categories: tuple[str, ...] = ()
    ring_size: int | None = None
    sample_interval: float = 10.0
    sample_window: float | None = None
    metrics: MetricsSpec = field(default_factory=MetricsSpec)
    monitor: MonitorSpec = field(default_factory=MonitorSpec)


@dataclass(frozen=True)
class ExperimentSpec(serde.Serializable):
    """One complete, runnable, serializable experiment description."""

    name: str = "experiment"
    seed: int = 0
    #: A registered protocol name, or "mixed" to round-robin the four
    #: built-in protocols across the traffic stream.
    protocol: str = "ac3wn"
    chains: ChainsSpec = field(default_factory=ChainsSpec)
    latency: LatencySpec = field(default_factory=LatencySpec)
    fee_market: FeeMarketSpec = field(default_factory=FeeMarketSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    fee_shocks: tuple[FeeShockSpec, ...] = ()
    #: The adversarial roster (all actors disabled by default); see
    #: :mod:`repro.adversary.spec`.
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    #: The flight recorder (off by default); see :mod:`repro.obs`.
    obs: ObsSpec = field(default_factory=ObsSpec)

    # -- validation --------------------------------------------------------

    def validate(self) -> "ExperimentSpec":
        """Check semantic constraints; returns self for chaining."""
        from ..engine.engine import registered_protocols
        from .registry import registered_traffic

        def fail(message: str) -> None:
            raise SpecError(f"invalid spec {self.name!r}: {message}")

        if self.protocol != "mixed" and self.protocol not in registered_protocols():
            fail(
                f"unknown protocol {self.protocol!r}; expected 'mixed' or one "
                f"of {registered_protocols()}"
            )
        if self.traffic.generator not in registered_traffic():
            fail(
                f"unknown traffic generator {self.traffic.generator!r}; "
                f"registered: {registered_traffic()}"
            )
        if not self.chains.ids and self.chains.count < 1:
            fail("chains.count must be at least 1")
        if len(set(self.chains.asset_ids())) != len(self.chains.asset_ids()):
            fail("chains.ids contains duplicates")
        if self.chains.witness in self.chains.asset_ids():
            fail("the witness chain must be distinct from the asset chains")
        if self.chains.validator_mode not in VALIDATOR_MODES:
            fail(
                f"chains.validator_mode must be one of {VALIDATOR_MODES}, "
                f"got {self.chains.validator_mode!r}"
            )
        if self.chains.block_interval <= 0:
            fail("chains.block_interval must be positive")
        if self.chains.confirmation_depth < 1:
            fail("chains.confirmation_depth must be at least 1")
        if self.chains.funding < 1 or self.chains.funding_chunks < 1:
            fail("chains.funding and chains.funding_chunks must be at least 1")
        known_chains = set(self.chains.asset_ids()) | {self.chains.witness}
        for chain_id, o in self.chains.overrides.items():
            if chain_id not in known_chains:
                fail(f"chains.overrides names unknown chain {chain_id!r}")
            if o.block_interval is not None and o.block_interval <= 0:
                fail(f"chains.overrides.{chain_id}.block_interval must be positive")
            if o.confirmation_depth is not None and o.confirmation_depth < 1:
                fail(
                    f"chains.overrides.{chain_id}.confirmation_depth must be at least 1"
                )
            if o.max_messages_per_block is not None and o.max_messages_per_block < 1:
                fail(
                    f"chains.overrides.{chain_id}.max_messages_per_block "
                    f"must be at least 1"
                )
            for fee_name in ("deploy_fee", "call_fee", "transfer_fee"):
                fee = getattr(o, fee_name)
                if fee is not None and fee < 0:
                    fail(
                        f"chains.overrides.{chain_id}.{fee_name} must be non-negative"
                    )
        if self.latency.base < 0 or self.latency.jitter < 0:
            fail("latency.base and latency.jitter must be non-negative")
        if self.traffic.num_swaps < 1:
            fail("traffic.num_swaps must be at least 1")
        if self.traffic.rate <= 0:
            fail("traffic.rate must be positive")
        if self.traffic.participants_per_swap < 2:
            fail("traffic.participants_per_swap must be at least 2")
        if self.traffic.amount < 1:
            fail("traffic.amount must be at least 1")
        if not 0.0 <= self.traffic.crash.rate <= 1.0:
            fail("traffic.crash.rate must be within [0, 1]")
        lo, hi = self.traffic.crash.window
        if lo < 0 or hi < lo:
            fail("traffic.crash.window must satisfy 0 <= lo <= hi")
        crash = self.traffic.crash
        if (crash.participant is None) != (crash.delay is None):
            fail("traffic.crash.participant and .delay must be set together")
        if crash.participant is not None:
            if crash.rate > 0.0:
                fail("traffic.crash: rate and participant/delay are exclusive")
            if crash.delay < 0:
                fail("traffic.crash.delay must be non-negative")
        if not 0.0 <= self.traffic.low_fee_share <= 1.0:
            fail("traffic.low_fee_share must be within [0, 1]")
        if self.protocol in ("nolan", "mixed") and self.traffic.participants_per_swap != 2:
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
        if self.engine.warm_up_blocks < 0:
            fail("engine.warm_up_blocks must be non-negative")
        if self.engine.max_events < 1:
            fail("engine.max_events must be positive")
        if self.engine.jitter is not None and self.engine.jitter < 0:
            fail("engine.jitter must be non-negative")
        for index, shock in enumerate(self.fee_shocks):
            if shock.count < 1 or shock.fee_rate < 1:
                fail(f"fee_shocks[{index}]: count and fee_rate must be at least 1")
            if shock.at < 0:
                fail(f"fee_shocks[{index}]: at must be non-negative")
            if shock.chain_id is not None and shock.chain_id not in known_chains:
                fail(f"fee_shocks[{index}] names unknown chain {shock.chain_id!r}")
            if not shock.whale:
                fail(f"fee_shocks[{index}]: whale needs a name")
        self.adversary.validate(fail, known_chains)
        from ..obs.trace import CATEGORIES as TRACE_CATEGORIES

        for category in self.obs.categories:
            if category not in TRACE_CATEGORIES:
                fail(
                    f"obs.categories names unknown category {category!r}; "
                    f"expected a subset of {TRACE_CATEGORIES}"
                )
        if self.obs.ring_size is not None and self.obs.ring_size < 1:
            fail("obs.ring_size must be at least 1")
        if self.obs.sample_interval <= 0:
            fail("obs.sample_interval must be positive")
        if self.obs.sample_window is not None and self.obs.sample_window <= 0:
            fail("obs.sample_window must be positive")
        buckets = self.obs.metrics.latency_buckets
        if any(b <= 0 for b in buckets):
            fail("obs.metrics.latency_buckets must be positive")
        if any(b2 <= b1 for b1, b2 in zip(buckets, buckets[1:])):
            fail("obs.metrics.latency_buckets must be strictly increasing")
        rules = self.obs.monitor.rules
        if rules.reorg_depth is not None and rules.reorg_depth < 0:
            fail("obs.monitor.rules.reorg_depth must be non-negative")
        if rules.stall_multiple is not None and rules.stall_multiple <= 0:
            fail("obs.monitor.rules.stall_multiple must be positive")
        if rules.mempool_saturation is not None and rules.mempool_saturation < 1:
            fail("obs.monitor.rules.mempool_saturation must be at least 1")
        if rules.priced_out_rate is not None and not 0.0 < rules.priced_out_rate <= 1.0:
            fail("obs.monitor.rules.priced_out_rate must be within (0, 1]")
        if rules.priced_out_window <= 0:
            fail("obs.monitor.rules.priced_out_window must be positive")
        if rules.priced_out_min < 1:
            fail("obs.monitor.rules.priced_out_min must be at least 1")
        # Building the economy objects runs their own validation too;
        # surface their FeeError as a spec error so callers (and the
        # CLI's exit-2 path) only ever see SpecError for a bad spec.
        if self.fee_market.fifo:
            fail(
                "fee_market.fifo must be false: the FIFO fork of the "
                "fee-market mempool was removed; fee_market.enabled=false "
                "is the unpriced pool"
            )
        try:
            policy = self.fee_market.build()
            for budget in (
                self.traffic.fee_budget,
                self.traffic.low_budget,
                self.traffic.high_budget,
            ):
                if budget is not None:
                    budget.build()
        except FeeError as exc:
            fail(str(exc))
        if policy is not None and policy.block_weight_budget is not None:
            for kind in ("deploy", "call"):
                weight = policy.weight_of_kind(kind)
                if weight > policy.block_weight_budget:
                    fail(
                        f"fee_market.block_weight_budget="
                        f"{policy.block_weight_budget} cannot fit a {kind} "
                        f"(fee_market.{kind}_weight={weight}): no swap could "
                        f"ever be mined"
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
    known = serde.fields(type(obj))
    if head not in known:
        raise SpecError(
            f"override {full_path!r}: unknown field {head!r}; "
            f"expected one of {sorted(known)}"
        )
    if rest:
        value = _override_one(getattr(obj, head), rest, full_path, raw)
    else:
        value = serde.load(known[head].type, _parse_override_value(raw), full_path)
    return dataclasses.replace(obj, **{head: value})


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
