"""Herlihy's single-leader atomic cross-chain swap protocol (the paper's
state-of-the-art baseline, [16] in the references).

The protocol uses hashlocks and timelocks only — no witness:

* A leader creates a secret ``s`` and hashlock ``h = H(s)``.
* Contracts are published **sequentially** in waves: the leader first,
  then each participant once all of its incoming contracts are visible.
  Exactly ``Diam(D)`` waves are required.
* Redemption cascades in reverse: the leader redeems its incoming
  contracts (revealing ``s``), then the remaining contracts are redeemed
  wave by wave — ``Diam(D)`` more sequential steps.
* Timelocks protect each contract: a contract published at wave ``k``
  refunds after ``t0 + Δ·(2·P − k + 1)`` where ``P`` is the number of
  publish waves, giving every redeemer a Δ margin.

Total latency: ``2·Δ·Diam(D)`` (Section 6.1 / Figure 8), and crash
failures past a timelock forfeit the crashed participant's assets — the
two weaknesses AC3WN removes.

The driver refuses graphs the protocol cannot execute: if the publish
waves never stabilize (cyclic graphs that stay cyclic after removing the
leader — Figure 7a) or the graph is disconnected from the leader
(Figure 7b), a :class:`~repro.errors.GraphError` is raised, matching
Section 5.3's claims.

The driver is a non-blocking :class:`~repro.core.driver.ProtocolDriver`
state machine: every activation attempts publishes, redemptions, and
refunds that the wave discipline currently permits, then yields the
simulator until the next block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..chain.block import encode_time
from ..chain.messages import CallMessage
from ..crypto.hashing import hashlock
from ..errors import GraphError
from .driver import END, SETTLE, Phase, ProtocolDriver
from .graph import AssetEdge, SwapGraph
from .htlc import HTLCContract  # noqa: F401  (registers the contract class)
from .protocol import SwapEnvironment, SwapOutcome, edge_key

HTLC_CONTRACT_CLASS = "HTLC"


def compute_publish_waves(graph: SwapGraph, leader: str) -> dict[str, int]:
    """Publish wave per participant: leader 0; others after all inputs.

    ``wave(u) = 1 + max(wave(source(e)) for incoming edges e of u)``.
    Raises :class:`~repro.errors.GraphError` if the fixpoint never
    assigns a wave to some participant — the graph cannot be executed by
    the single-leader protocol (Section 5.3).
    """
    if leader not in dict(graph.participants):
        raise GraphError(f"leader {leader!r} is not a participant")
    waves: dict[str, int] = {leader: 0}
    names = graph.participant_names()
    for _ in range(len(names) + 1):
        changed = False
        for name in names:
            if name in waves:
                continue
            incoming = graph.edges_to(name)
            if not incoming:
                # No incoming contracts to wait for: cannot be safely
                # sequenced (nothing compels this participant to publish).
                continue
            sources = [edge.source for edge in incoming]
            if all(src in waves for src in sources):
                waves[name] = 1 + max(waves[src] for src in sources)
                changed = True
        if not changed:
            break
    missing = [name for name in names if name not in waves]
    if missing:
        raise GraphError(
            f"single-leader protocol cannot sequence participants {missing}: "
            f"the AC2T graph is cyclic without the leader or disconnected "
            f"(see Figure 7 of the paper)"
        )
    return waves


def publish_wave_of_edge(waves: dict[str, int], edge: AssetEdge) -> int:
    """A contract is published when its *source* participant acts."""
    return waves[edge.source]


@dataclass
class HerlihyConfig:
    """Tunables of one Herlihy-protocol execution.

    Attributes:
        leader: the swap leader (default: first participant by name).
        decliners: participants who never publish their contracts.
        delta_margin: extra fraction of Δ added to each timelock rung.
        settle_timeout: extra polling time after the last timelock.
    """

    leader: str | None = None
    decliners: frozenset[str] = frozenset()
    delta_margin: float = 0.5
    settle_timeout: float | None = None


class HerlihyDriver(ProtocolDriver):
    """Executes one AC2T with the single-leader HTLC protocol.

    Publishes, reveals, redeems and refunds are all enabled by chain
    growth, so both rows share the protocol's hard horizon as their
    deadline; *settle* (the redeem cascade, the HTLC analogue of the
    witness protocols' settle phase) starts once every contract is live.
    """

    protocol_name = "herlihy"
    PHASES = (
        Phase("publish", "_publish", "_horizon", progress=(SETTLE.name, END), from_entry=False),
        Phase(SETTLE.name, "_cascade", "_horizon", progress=(END,), from_entry=False),
    )

    def __init__(
        self,
        env: SwapEnvironment,
        graph: SwapGraph,
        config: HerlihyConfig | None = None,
        fee_budget=None,
        jitter_span: float | None = None,
    ) -> None:
        self.config = config or HerlihyConfig()
        super().__init__(
            env,
            graph,
            fee_budget=fee_budget,
            jitter_span=jitter_span,
        )
        self.leader = self.config.leader or graph.participant_names()[0]
        self.waves = compute_publish_waves(graph, self.leader)
        self.num_waves = max(self.waves.values()) + 1

        self.secret = b"herlihy-secret:" + graph.digest()[:16]
        self.lock = hashlock(self.secret)
        self._redeem_calls: dict[str, CallMessage] = {}
        self._refund_calls: dict[str, CallMessage] = {}
        self._secret_public = False
        self._t0 = 0.0
        self._delta = 0.0
        self._last_timelock = 0.0
        self._horizon = 0.0

    # -- timing ------------------------------------------------------------

    def delta(self) -> float:
        """Δ: enough time to publish/alter a contract on any used chain."""
        return self._max_delta()

    def timelock_for(self, edge: AssetEdge, t0: float, delta: float) -> float:
        """Refund time of the contract on ``edge``.

        Contracts published earlier (smaller wave) carry *longer*
        timelocks: the classic ``t2 < t1`` of the two-party swap,
        generalized to ``t0 + Δ·(2P − k + 1)`` (+ margin).
        """
        wave = publish_wave_of_edge(self.waves, edge)
        rungs = 2 * self.num_waves - wave + 1
        return t0 + delta * (rungs + self.config.delta_margin)

    # -- helpers -------------------------------------------------------------

    def _incoming_confirmed(self, name: str) -> bool:
        return all(self._edge_confirmed(edge) for edge in self.graph.edges_to(name))

    # -- publish phase ----------------------------------------------------------

    def _try_publish(self, t0: float, delta: float) -> None:
        """Publish contracts whose preconditions hold (wave discipline)."""
        for edge in self.graph.edges:
            key = edge_key(edge)
            if key in self._deploys or edge.source in self.config.decliners:
                continue
            participant = self.env.participant(edge.source)
            if participant.crashed:
                continue
            if edge.source != self.leader and not self._incoming_confirmed(edge.source):
                continue
            timelock = self.timelock_for(edge, t0, delta)
            if self.sim.now >= timelock:
                continue  # too late to publish meaningfully
            self._deploy_edge(
                edge,
                HTLC_CONTRACT_CLASS,
                args=(
                    self._address_of(edge.recipient).raw,
                    self.lock,
                    encode_time(timelock),
                ),
            )

    # -- redeem phase -------------------------------------------------------------

    def _knows_secret(self, name: str) -> bool:
        """The leader knows ``s``; everyone else learns it on first reveal."""
        return name == self.leader or self._secret_public

    def _redeem_wave_of(self, edge: AssetEdge) -> int:
        """Reverse of the publish wave: last published, first redeemed."""
        return self.num_waves - 1 - publish_wave_of_edge(self.waves, edge)

    def _redeem_wave_done(self, wave: int) -> bool:
        for edge in self.graph.edges:
            if self._redeem_wave_of(edge) == wave:
                if self._contract_state(edge) != "RD":
                    return False
        return True

    def _try_redeem(self, t0: float, delta: float) -> None:
        """Attempt redemptions respecting the protocol's wave schedule.

        Herlihy's protocol redeems contracts in reverse publish order —
        the sequential critical path the paper's Figure 8 depicts.  A
        contract's recipient redeems once every later-published contract
        is redeemed, it knows the secret, and the timelock is still open.
        """
        for edge in self.graph.edges:
            key = edge_key(edge)
            if key not in self._deploys or key in self._redeem_calls:
                continue
            if not self._edge_confirmed(edge):
                continue
            if self._contract_state(edge) != "P":
                continue
            wave = self._redeem_wave_of(edge)
            if wave > 0 and not self._redeem_wave_done(wave - 1):
                continue
            recipient = self.env.participant(edge.recipient)
            if recipient.crashed or not self._knows_secret(edge.recipient):
                continue
            timelock = self.timelock_for(edge, t0, delta)
            chain = self.env.chain(edge.chain_id)
            # Publishing a redeem that lands after the timelock is futile.
            if self.sim.now + chain.params.block_interval >= timelock:
                continue
            self._call_contract(
                edge.chain_id,
                edge.recipient,
                self._deploys[key].contract_id(),
                "redeem",
                args=(self.secret,),
                record=partial(self._redeem_calls.__setitem__, key),
            )

    def _observe_reveals(self) -> None:
        """The secret becomes public the moment any redemption lands."""
        if self._secret_public:
            return
        for edge in self.graph.edges:
            if self._contract_state(edge) == "RD":
                self._secret_public = True
                return

    # -- refund phase ----------------------------------------------------------------

    def _try_refund(self, t0: float, delta: float) -> None:
        """Senders reclaim expired, unredeemed contracts."""
        for edge in self.graph.edges:
            key = edge_key(edge)
            if key not in self._deploys or key in self._refund_calls:
                continue
            if self._contract_state(edge) != "P":
                continue
            timelock = self.timelock_for(edge, t0, delta)
            chain = self.env.chain(edge.chain_id)
            latest = chain.head.header.timestamp
            if latest < timelock:
                continue  # not expired on-chain yet
            sender = self.env.participant(edge.source)
            if sender.crashed:
                continue
            self._call_contract(
                edge.chain_id,
                edge.source,
                self._deploys[key].contract_id(),
                "refund",
                args=(b"",),
                record=partial(self._refund_calls.__setitem__, key),
            )

    # -- bookkeeping ------------------------------------------------------------------

    def _all_settled(self) -> bool:
        return all(
            self._contract_state(edge) in ("RD", "RF")
            for edge in self.graph.edges
            if edge_key(edge) in self._deploys
        ) and len(self._deploys) > 0

    # -- the protocol: setup, then the steps of PHASES ----------------------------------

    def _begin(self) -> bool:
        self._t0 = self.sim.now
        self._delta = self.delta()
        self.outcome.phase_times["start"] = self._t0
        # The protocol ends for sure once every timelock has expired and
        # the refunds have had time to land.
        self._last_timelock = max(
            self.timelock_for(edge, self._t0, self._delta)
            for edge in self.graph.edges
        )
        self._horizon = self._last_timelock + (
            self.config.settle_timeout or 2.0 * self._delta
        )
        return True

    def _publish(self, expired: bool) -> str | None:
        if expired:
            return END
        self._try_publish(self._t0, self._delta)
        if len(self._deploys) == len(self.graph.edges) and self._all_confirmed():
            self.outcome.phase_times["contracts_deployed"] = self.sim.now
            # The phase event fires before the first redeem is attempted,
            # so settle-keyed failure injections hit the whole cascade.
            return SETTLE.name
        # Expired timelocks refund (and early redeems land) while
        # publishing is still under way.
        return self._cascade(expired)

    def _cascade(self, expired: bool) -> str | None:
        if expired:
            return END
        self._observe_reveals()
        self._try_redeem(self._t0, self._delta)
        self._try_refund(self._t0, self._delta)
        if self._all_settled() and (
            len(self._deploys) == len(self.graph.edges)
            or self.sim.now > self._last_timelock
        ):
            return END
        return None

    def _finalize(self) -> None:
        self.outcome.phase_times["settled"] = self.sim.now
        redeemed = sum(
            1 for r in self.outcome.contracts.values() if r.final_state == "RD"
        )
        if redeemed == self.graph.num_contracts:
            self.outcome.decision = "commit"
        elif redeemed == 0:
            self.outcome.decision = "abort"
        else:
            # The failure mode the paper attacks: some contracts redeemed,
            # others refunded or stranded.
            self.outcome.decision = "mixed"
            self.outcome.notes.append(
                "HTLC timelocks produced a non-atomic settlement"
            )


def run_herlihy(
    env: SwapEnvironment, graph: SwapGraph, **config_kwargs
) -> SwapOutcome:
    """Convenience wrapper: configure and run one Herlihy execution."""
    config = HerlihyConfig(**config_kwargs)
    return HerlihyDriver(env, graph, config).run()
