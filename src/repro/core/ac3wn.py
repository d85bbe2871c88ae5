"""AC3WN: atomic cross-chain commitment with a permissionless witness
network (Section 4.2, Algorithms 3 and 4).

The witness network hosts one coordinator contract ``SCw`` per AC2T.
``SCw`` starts in state ``P`` and permits exactly two transitions —
``P → RDauth`` (commit) and ``P → RFauth`` (abort) — which makes the
redeem and refund secrets structurally mutually exclusive.  Asset-chain
contracts (:class:`PermissionlessSC`) condition their redeem/refund on
evidence about ``SCw``'s state buried at depth ≥ d on the witness chain.
Both contracts authenticate evidence through the one rule of
:mod:`repro.core.evidence`: ``validate`` against the relay anchors they
stored.

The protocol has four Δ-phases (Section 6.1 / Figure 9):

1. deploy ``SCw`` on the witness network;
2. deploy all asset contracts **in parallel**;
3. flip ``SCw`` to ``RDauth`` (or ``RFauth``) with evidence;
4. settle all asset contracts **in parallel**.

Total latency 4·Δ regardless of the AC2T graph's diameter — the paper's
headline improvement over Herlihy's 2·Δ·Diam(D).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Any

from ..chain.block import BlockHeader
from ..chain.contracts import (
    ExecutionContext,
    SmartContract,
    register_contract,
    requires,
)
from ..chain.messages import CallMessage, DeployMessage
from ..crypto.signatures import Multisignature
from ..errors import FeeTooLowError, ProtocolError
from .contract_template import AtomicSwapContract
from .driver import END, SETTLE, Phase, ProtocolDriver
from .evidence import (
    PublicationEvidence,
    StateEvidence,
    build_publication_evidence,
    build_state_evidence,
    validate,
)
from .graph import AssetEdge, SwapGraph
from .protocol import SwapEnvironment, SwapOutcome, edge_key

WITNESS_CONTRACT_CLASS = "AC3WN-Witness"
PERMISSIONLESS_CONTRACT_CLASS = "AC3-PermissionlessSC"


class WitnessState:
    """States of the coordinator contract (Algorithm 3, line 1)."""

    PUBLISHED = "P"
    REDEEM_AUTHORIZED = "RDauth"
    REFUND_AUTHORIZED = "RFauth"


@dataclass(frozen=True)
class EdgeSpec:
    """What ``SCw`` expects of one asset-chain contract.

    Derived from the multisigned graph at registration time; used by
    ``VerifyContracts`` to check each published contract against its
    edge's description (sender, recipient, asset, blockchain).
    """

    chain_id: str
    sender_raw: bytes
    recipient_raw: bytes
    amount: int
    min_depth: int

    def to_wire(self):
        return {
            "chain_id": self.chain_id,
            "sender": self.sender_raw,
            "recipient": self.recipient_raw,
            "amount": self.amount,
            "min_depth": self.min_depth,
        }


@register_contract
class WitnessContract(SmartContract):
    """Algorithm 3: the witness-network coordinator ``SCw``.

    Constructor args:
        participant_keys: compressed public keys of all AC2T participants.
        ms: the multisignature ``ms(D)`` over the graph.
        graph_digest: the digest ``ms`` must carry (binds ms to D).
        edge_specs: per-edge expectations for VerifyContracts.
        anchors: ``(chain_id, stable BlockHeader)`` pairs recorded at
            registration: the relay anchors publication evidence is
            validated against.
    """

    CLASS_NAME = WITNESS_CONTRACT_CLASS

    def constructor(
        self,
        ctx: ExecutionContext,
        participant_keys: tuple[bytes, ...],
        ms: Multisignature,
        graph_digest: bytes,
        edge_specs: tuple[EdgeSpec, ...],
        anchors: tuple[tuple[str, BlockHeader], ...] = (),
    ) -> None:
        # Registration validity: all participants signed this exact graph.
        requires(ms.digest == graph_digest, "multisignature covers a different graph")
        requires(ms.verify(participant_keys), "multisignature incomplete or invalid")
        requires(len(edge_specs) > 0, "an AC2T needs at least one edge")
        self.participant_keys = tuple(participant_keys)
        self.ms = ms
        self.graph_digest = graph_digest
        self.edge_specs = tuple(edge_specs)
        self.anchors = dict(anchors)
        self.state = WitnessState.PUBLISHED
        self.decided_at: float | None = None

    # -- Algorithm 3, lines 10-13 ------------------------------------------

    def authorize_redeem(
        self, ctx: ExecutionContext, evidences: tuple[PublicationEvidence, ...]
    ) -> None:
        """Commit the AC2T once every contract is proven published+correct."""
        requires(self.state == WitnessState.PUBLISHED, "SCw is not in state P")
        requires(self.verify_contracts(ctx, evidences), "contract verification failed")
        self.state = WitnessState.REDEEM_AUTHORIZED
        self.decided_at = ctx.block_time
        ctx.emit("redeem-authorized", graph=self.graph_digest)

    # -- Algorithm 3, lines 14-17 ------------------------------------------

    def authorize_refund(self, ctx: ExecutionContext) -> None:
        """Abort the AC2T; only requires that no decision exists yet."""
        requires(self.state == WitnessState.PUBLISHED, "SCw is not in state P")
        self.state = WitnessState.REFUND_AUTHORIZED
        self.decided_at = ctx.block_time
        ctx.emit("refund-authorized", graph=self.graph_digest)

    # -- Algorithm 3, lines 18-23 ------------------------------------------

    def verify_contracts(
        self, ctx: ExecutionContext, evidences: tuple[PublicationEvidence, ...]
    ) -> bool:
        """Validate that every edge has a matching published contract.

        For every edge spec we must find evidence of a deployed
        :class:`PermissionlessSC` whose sender, recipient, asset, and
        blockchain match the edge, and whose redeem/refund is conditioned
        on *this* witness contract.  Evidence is authenticated against
        the relay anchors stored at registration (Section 4.3).
        """
        return all(self._edge_satisfied(spec, evidences) for spec in self.edge_specs)

    def _edge_satisfied(self, spec: EdgeSpec, evidences: tuple) -> bool:
        for evidence in evidences:
            # Anyone may call: an entry that is no publication evidence
            # satisfies no edge.
            if not isinstance(evidence, PublicationEvidence):
                continue
            if evidence.chain_id != spec.chain_id:
                continue
            deploy = validate(evidence, self.anchors, spec.min_depth)
            if deploy is not None and self._deploy_matches_spec(deploy, spec):
                return True
        return False

    def _deploy_matches_spec(self, deploy: DeployMessage, spec: EdgeSpec) -> bool:
        if deploy.contract_class != PERMISSIONLESS_CONTRACT_CLASS:
            return False
        if deploy.value != spec.amount:
            return False
        if deploy.sender.address().raw != spec.sender_raw:
            return False
        args = deploy.args
        # PermissionlessSC constructor signature:
        # (recipient_raw, witness_chain_id, witness_contract_id, depth, anchor)
        if len(args) < 3:
            return False
        if args[0] != spec.recipient_raw:
            return False
        if args[2] != self.contract_id:
            return False
        return True


@register_contract
class PermissionlessSC(AtomicSwapContract):
    """Algorithm 4: an asset-chain contract conditioned on ``SCw``.

    Both the redemption and the refund commitment schemes are the pair
    ``(SCw, d)``: evidence that ``SCw``'s state is ``RDauth`` (redeem) or
    ``RFauth`` (refund) in a witness-chain block buried under at least
    ``d`` blocks.
    """

    CLASS_NAME = PERMISSIONLESS_CONTRACT_CLASS

    def constructor(
        self,
        ctx: ExecutionContext,
        recipient_raw: bytes,
        witness_chain_id: str,
        witness_contract_id: bytes,
        witness_min_depth: int,
        witness_anchor: BlockHeader,
    ) -> None:
        super().constructor(ctx, recipient_raw)
        requires(witness_min_depth >= 1, "witness depth must be at least 1")
        self.witness_chain_id = witness_chain_id
        self.witness_contract_id = witness_contract_id
        self.witness_min_depth = witness_min_depth
        self.witness_anchor = witness_anchor

    # -- Algorithm 4, lines 6-17 -----------------------------------------------

    def is_redeemable(self, ctx: ExecutionContext, secret: Any) -> bool:
        return self._witness_state_proven(ctx, secret, WitnessState.REDEEM_AUTHORIZED)

    def is_refundable(self, ctx: ExecutionContext, secret: Any) -> bool:
        return self._witness_state_proven(ctx, secret, WitnessState.REFUND_AUTHORIZED)

    def _witness_state_proven(
        self, ctx: ExecutionContext, evidence: Any, required_state: str
    ) -> bool:
        return (
            isinstance(evidence, StateEvidence)
            and evidence.chain_id == self.witness_chain_id
            and validate(
                evidence, {self.witness_chain_id: self.witness_anchor}, self.witness_min_depth
            )
            == (self.witness_contract_id, required_state)
        )


# ---------------------------------------------------------------------------
# Protocol driver
# ---------------------------------------------------------------------------


@dataclass
class AC3WNConfig:
    """Tunables of one AC3WN execution.

    Attributes:
        witness_chain_id: which chain coordinates this AC2T (Section 5.2:
            any permissionless chain can serve; pick per transaction).
        registrar: participant who registers ``SCw`` (default: first
            alive participant in name order).
        decliners: participants who refuse to publish their contracts
            (maliciousness / change of mind — triggers the abort path).
        omit_signers: participants who withhold their signature from
            ``ms(D)`` (Byzantine equivocation) — the witness contract's
            registration validity check rejects the incomplete
            multisignature on-chain, so the AC2T never starts.
        deploy_timeout: seconds after ``SCw`` confirmation before an
            alive participant gives up and requests ``RFauth``.
        settle_timeout: seconds to keep polling for settlements after the
            decision (recovered participants settle late here).
    """

    witness_chain_id: str
    registrar: str | None = None
    decliners: frozenset[str] = frozenset()
    omit_signers: frozenset[str] = frozenset()
    deploy_timeout: float | None = None
    settle_timeout: float | None = None


class AC3WNDriver(ProtocolDriver):
    """Executes one AC2T end-to-end with the AC3WN protocol.

    The driver plays every participant's honest strategy, respecting
    crash state (a crashed participant takes no action until recovery)
    and the configured decliners.  Its phase table is the paper's four
    Δ-phases: *scw-wait* (SCw confirmation), *deploy* (parallel asset
    contracts), *decision-wait* (the SCw flip confirming), and *settle*
    (parallel redemptions or refunds).
    """

    protocol_name = "ac3wn"
    PHASES = (
        Phase("scw-wait", "_await_scw", "_witness_timeout", progress=("deploy",)),
        Phase(
            "deploy",
            "_deploy",
            "_deploy_timeout",
            progress=("decision-wait",),
            expiry=("decision-wait",),
        ),
        Phase(
            "decision-wait",
            "_await_decision",
            "_witness_timeout",
            progress=(SETTLE.name, END),
        ),
        SETTLE,
    )

    def __init__(
        self,
        env: SwapEnvironment,
        graph: SwapGraph,
        config: AC3WNConfig,
        fee_budget=None,
        jitter_span: float | None = None,
    ) -> None:
        if config.witness_chain_id not in env.chains:
            raise ProtocolError(f"unknown witness chain {config.witness_chain_id!r}")
        self.config = config
        super().__init__(
            env,
            graph,
            extra_chain_ids=(config.witness_chain_id,),
            fee_budget=fee_budget,
            jitter_span=jitter_span,
        )
        self.witness_chain = env.chain(config.witness_chain_id)
        self._scw_deploy: DeployMessage | None = None
        self._scw_id: bytes = b""
        self._anchors: dict[str, BlockHeader] = {}
        self._witness_anchor: BlockHeader | None = None
        self._decision_call: CallMessage | None = None
        self._witness_timeout = 0.0
        self._deploy_timeout = 0.0
        self._settle_timeout = 0.0
        self._decided_state: str | None = None
        self._decision_retried = False
        #: Whether the pending flip is RDauth (None before the first).
        self._decision_intent: bool | None = None

    # -- small helpers -----------------------------------------------------

    def _first_alive(self) -> str | None:
        """First alive participant *of this AC2T* in name order.

        Scoped to the swap's graph (not the whole environment) so that
        engine runs with hundreds of co-hosted swaps stay isolated.
        """
        for name in self.graph.participant_names():
            if not self.env.participant(name).crashed:
                return name
        return None

    # -- phase 1: register SCw ------------------------------------------------

    def _register_witness_contract(self) -> bool:
        registrar_name = self.config.registrar or self._first_alive()
        if registrar_name is None or self.env.participant(registrar_name).crashed:
            self.outcome.notes.append("no alive registrar; AC2T never started")
            return False
        registrar = self.env.participant(registrar_name)

        # An incomplete ms(D) (omit_signers) fails the witness contract's
        # registration validity check when the deploy executes on-chain.
        ms = self._sign_graph(self.config.omit_signers)
        specs = tuple(
            EdgeSpec(
                chain_id=edge.chain_id,
                sender_raw=self._address_of(edge.source).raw,
                recipient_raw=self._address_of(edge.recipient).raw,
                amount=edge.amount,
                min_depth=self.env.chain(edge.chain_id).params.confirmation_depth,
            )
            for edge in self.graph.edges
        )
        # Record relay anchors: current stable headers of every asset chain.
        self._anchors = {
            chain_id: self.env.chain(chain_id).stable_header()
            for chain_id in self.graph.chains_used()
        }
        keys = tuple(key.to_bytes() for _, key in self.graph.participants)
        if not self._fee_ok(self.config.witness_chain_id, "deploy"):
            self.outcome.notes.append("fee budget cannot cover SCw registration")
            return False
        try:
            deploy = registrar.deploy_contract(
                self.config.witness_chain_id,
                WITNESS_CONTRACT_CLASS,
                args=(keys, ms, self.graph.digest(), specs, tuple(sorted(self._anchors.items()))),
                fee=self._fee_for(self.config.witness_chain_id, "deploy"),
            )
        except FeeTooLowError:
            # The congested witness chain refused the registration at
            # our price: this swap never starts (priced out at the door).
            self.outcome.priced_out = True
            self.outcome.notes.append("SCw registration outbid on the witness chain")
            return False
        self._scw_deploy = deploy
        self._scw_id = deploy.contract_id()
        self.outcome.coordinator_contract_id = self._scw_id
        self._track(
            self.config.witness_chain_id,
            deploy,
            sender=registrar_name,
            on_replace=self._replace_scw,
        )
        return True

    def _replace_scw(self, new: DeployMessage) -> None:
        """Repoint the swap at a fee-bumped SCw registration.

        Only reachable while SCw is unconfirmed (phase "scw-wait"), i.e.
        before any asset contract captured the old SCw id."""
        self._scw_deploy = new
        self._scw_id = new.contract_id()
        self.outcome.coordinator_contract_id = self._scw_id

    # -- phase 2: parallel asset-contract deployment ------------------------------

    def _contract_args(self, edge: AssetEdge) -> tuple:
        return (
            self._address_of(edge.recipient).raw,
            self.config.witness_chain_id,
            self._scw_id,
            self.witness_chain.params.confirmation_depth,
            self._witness_anchor,
        )

    # -- phase 3: decision -----------------------------------------------------

    def _authorize(self, redeem: bool) -> bool:
        """Flip SCw to RDauth (proving every publication) or RFauth; a
        refused call is retried by decision-wait."""
        self._decision_intent = redeem
        submitter_name = self._first_alive()
        if submitter_name is None:
            return False
        args = ()
        if redeem:
            args = (tuple(
                build_publication_evidence(
                    self.env.chain(edge.chain_id),
                    self._deploys[edge_key(edge)],
                    anchor=self._anchors[edge.chain_id],
                )
                for edge in self.graph.edges
            ),)
        return self._call_contract(
            self.config.witness_chain_id,
            submitter_name,
            self._scw_id,
            "authorize_redeem" if redeem else "authorize_refund",
            args=args,
            record=partial(setattr, self, "_decision_call"),
        )

    def _decision_confirmed(self) -> bool:
        call, chain = self._decision_call, self.witness_chain
        return (
            call is not None
            and chain.message_depth(call.message_id()) >= chain.params.confirmation_depth
            and chain.receipt(call.message_id()) is not None
        )

    # -- phase 4: settlement -------------------------------------------------------

    def _settle_secrets(self):
        """State evidence that ``SCw`` reached the decided state."""
        # Every edge proves the same witness-chain fact, and the witness
        # chain does not advance inside this step, so one evidence is
        # built lazily and shared across edges.
        @cache
        def evidence() -> StateEvidence:
            return build_state_evidence(
                self.witness_chain,
                self._scw_id,
                self._decision_call,
                self._decided_state,
                anchor=self._witness_anchor,
            )

        return lambda edge: evidence()

    # -- the protocol: setup, then the steps of PHASES -------------------------------

    def _begin(self) -> bool:
        self.outcome.phase_times["start"] = self.sim.now
        delta = self._max_delta()
        witness_delta = self._chain_delta(self.config.witness_chain_id)
        self._deploy_timeout = self.config.deploy_timeout or 4.0 * delta
        self._settle_timeout = self.config.settle_timeout or 4.0 * delta
        # Witness-chain waits honour the configured deploy timeout too:
        # a congested witness chain may take far longer than 4Δ to
        # include coordination messages (Section 5.2's bottleneck case).
        self._witness_timeout = max(4.0 * witness_delta, self._deploy_timeout)
        # Phase 1: register SCw on the witness network.
        return self._register_witness_contract()

    def _await_scw(self, expired: bool) -> str | None:
        scw_message = self._scw_deploy.message_id()
        if (
            self.witness_chain.message_depth(scw_message)
            >= self.witness_chain.params.confirmation_depth
        ):
            self.outcome.phase_times["scw_confirmed"] = self.sim.now
            # Asset contracts reference the witness anchor as of SCw
            # confirmation.
            self._witness_anchor = self.witness_chain.stable_header()
            return "deploy"
        if expired:
            self.outcome.notes.append("SCw never confirmed")
            return END
        return None

    # Phase 2: all participants deploy their contracts in parallel; then
    # flip SCw (commit if everything confirmed, abort otherwise).
    def _deploy(self, expired: bool) -> str | None:
        all_published = self._all_confirmed()
        if all_published or expired:
            self.outcome.phase_times["contracts_deployed"] = self.sim.now
            if not all_published:
                self.outcome.notes.append(
                    f"only {len(self._deploys)}/{self.graph.num_contracts} "
                    f"contracts confirmed before the deadline; aborting"
                )
            self._authorize(redeem=all_published)
            return "decision-wait"
        self._deploy_missing_edges(
            PERMISSIONLESS_CONTRACT_CLASS, self._contract_args, self.config.decliners
        )
        return None

    def _await_decision(self, expired: bool) -> str | None:
        if self._decision_call is None and self._decision_intent is not None:
            # An earlier authorization attempt was outbid at submission;
            # keep chasing the market until the deadline passes.
            self._authorize(self._decision_intent)
        if self._decision_confirmed():
            receipt = self.witness_chain.receipt(self._decision_call.message_id())
            if receipt.status != "ok" and not self._decision_retried:
                # The authorize_redeem was rejected (e.g. stale evidence);
                # fall back to the abort path.  The stale reverted call
                # must not be mistaken for a decision.
                self._decision_retried = True
                self._decision_call = None
                self.outcome.notes.append(f"authorization reverted: {receipt.error}")
                if not self._authorize(redeem=False) and self._first_alive() is None:
                    # No alive participant can ever flip SCw; anything
                    # else (a momentary fee-market rejection) is retried
                    # by the resubmit machinery above until the deadline.
                    return END
                # The retry gets a fresh deadline, without a transition.
                self._deadline = self.sim.now + self._witness_timeout
                return None
            committed = self._decision_call.function == "authorize_redeem"
            self._decided_state = (
                WitnessState.REDEEM_AUTHORIZED if committed else WitnessState.REFUND_AUTHORIZED
            )
            self._settle_function = "redeem" if committed else "refund"
            self.outcome.decision = "commit" if committed else "abort"
            self.outcome.phase_times["decision"] = self.sim.now
            return SETTLE.name
        if expired:
            if not self._decision_retried:
                self.outcome.notes.append("decision call never confirmed")
            return END
        return None


def run_ac3wn(
    env: SwapEnvironment, graph: SwapGraph, witness_chain_id: str, **config_kwargs
) -> SwapOutcome:
    """Convenience wrapper: configure and run one AC3WN execution."""
    config = AC3WNConfig(witness_chain_id=witness_chain_id, **config_kwargs)
    return AC3WNDriver(env, graph, config).run()
