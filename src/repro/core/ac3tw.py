"""AC3TW: atomic cross-chain commitment with a centralized trusted
witness (Section 4.1, Algorithm 2).

Trent, the trusted witness, keeps a key/value store from registered
multisignatures ``ms(D)`` to either ``⊥``, his redemption signature
``T(ms(D), RD)``, or his refund signature ``T(ms(D), RF)``.  The store
makes the two signatures mutually exclusive: once one is issued for an
AC2T, the other never will be.  Asset-chain contracts
(:class:`CentralizedSC`) verify Trent's signature as the commitment
secret.

AC3TW achieves atomicity but reintroduces a trusted intermediary — a
single point of failure and DoS target — which is exactly what AC3WN
removes.  It is implemented here both as the paper presents it (a
stepping stone) and as an experimental baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..chain.contracts import ExecutionContext, register_contract
from ..crypto.commitment import (
    CommitmentPurpose,
    SignatureCommitment,
    witness_statement_digest,
)
from ..crypto.ecdsa import EcdsaSignature
from ..crypto.keys import KeyPair, PublicKey
from ..crypto.signatures import Multisignature
from ..errors import WitnessError
from .contract_template import AtomicSwapContract
from .driver import END, SETTLE, Phase, ProtocolDriver
from .graph import SwapGraph
from .protocol import SwapEnvironment, edge_key

CENTRALIZED_CONTRACT_CLASS = "AC3-CentralizedSC"


@register_contract
class CentralizedSC(AtomicSwapContract):
    """Algorithm 2: redeem/refund against Trent's signatures.

    Both commitment-scheme instances are the pair ``(ms(D), PK_T)``;
    the secrets are Trent's signatures over ``(ms(D), RD)`` and
    ``(ms(D), RF)`` respectively.
    """

    CLASS_NAME = CENTRALIZED_CONTRACT_CLASS

    def constructor(
        self,
        ctx: ExecutionContext,
        recipient_raw: bytes,
        ms_id: bytes,
        witness_key_raw: bytes,
    ) -> None:
        super().constructor(ctx, recipient_raw)
        self.ms_id = ms_id
        self.witness_key_raw = witness_key_raw

    def _commitment(self, purpose: CommitmentPurpose) -> SignatureCommitment:
        return SignatureCommitment(
            ms_id=self.ms_id,
            witness_key=PublicKey.from_bytes(self.witness_key_raw),
            purpose=purpose,
        )

    # Algorithm 2, lines 5-7: SigVerify((ms(D), RD), PK_T, s_rd)
    def is_redeemable(self, ctx: ExecutionContext, secret: Any) -> bool:
        if not isinstance(secret, EcdsaSignature):
            return False
        return self._commitment(CommitmentPurpose.REDEEM).verify(secret)

    # Algorithm 2, lines 8-10: SigVerify((ms(D), RF), PK_T, s_rf)
    def is_refundable(self, ctx: ExecutionContext, secret: Any) -> bool:
        if not isinstance(secret, EcdsaSignature):
            return False
        return self._commitment(CommitmentPurpose.REFUND).verify(secret)


@dataclass
class _Registration:
    """One entry of Trent's key/value store."""

    graph: SwapGraph
    value: EcdsaSignature | None = None  # ⊥ until a decision is made
    decision: str | None = None  # "RD" or "RF"


class TrustedWitness:
    """Trent: the centralized witness service.

    Trent is trusted, so he may consult full nodes of every chain
    directly (``chains``) to verify contract deployment before issuing a
    redemption signature.  He can also be crashed (``available=False``)
    to demonstrate the availability weakness of AC3TW.
    """

    def __init__(self, chains: dict[str, Any], seed: str = "trent") -> None:
        self.keypair = KeyPair.from_seed(seed)
        self.chains = chains
        self.store: dict[bytes, _Registration] = {}
        self.available = True

    @property
    def public_key(self) -> PublicKey:
        return self.keypair.public_key

    def _require_available(self) -> None:
        if not self.available:
            raise WitnessError("Trent is unavailable (crashed or DoS'd)")

    # -- registration -----------------------------------------------------

    def register(self, graph: SwapGraph, ms: Multisignature) -> bytes:
        """Register ``ms(D)``; rejects duplicates and bad signatures."""
        self._require_available()
        if not graph.verify_multisignature(ms):
            raise WitnessError("multisignature invalid for the submitted graph")
        ms_id = ms.id()
        if ms_id in self.store:
            raise WitnessError("ms(D) already registered")
        self.store[ms_id] = _Registration(graph=graph)
        return ms_id

    # -- decision requests ----------------------------------------------------

    def request_redemption(
        self, ms_id: bytes, contract_ids: dict[str, bytes]
    ) -> EcdsaSignature:
        """Issue ``T(ms(D), RD)`` iff all AC2T contracts are deployed.

        ``contract_ids`` maps edge keys to the deployed contract ids;
        Trent verifies each contract exists on its chain, is in state P,
        matches its edge, and is conditioned on ``(ms(D), PK_T)``.
        """
        self._require_available()
        registration = self._entry(ms_id)
        if registration.value is not None:
            if registration.decision == "RD":
                return registration.value
            raise WitnessError("AC2T already aborted; redemption refused")
        self._verify_contracts(registration.graph, ms_id, contract_ids)
        signature = self.keypair.sign(
            witness_statement_digest(ms_id, CommitmentPurpose.REDEEM)
        )
        registration.value = signature
        registration.decision = "RD"
        return signature

    def request_refund(self, ms_id: bytes) -> EcdsaSignature:
        """Issue ``T(ms(D), RF)`` iff no decision exists yet."""
        self._require_available()
        registration = self._entry(ms_id)
        if registration.value is not None:
            if registration.decision == "RF":
                return registration.value
            raise WitnessError("AC2T already committed; refund refused")
        signature = self.keypair.sign(
            witness_statement_digest(ms_id, CommitmentPurpose.REFUND)
        )
        registration.value = signature
        registration.decision = "RF"
        return signature

    # -- internals ----------------------------------------------------------------

    def _entry(self, ms_id: bytes) -> _Registration:
        if ms_id not in self.store:
            raise WitnessError("ms(D) is not registered")
        return self.store[ms_id]

    def _verify_contracts(
        self, graph: SwapGraph, ms_id: bytes, contract_ids: dict[str, bytes]
    ) -> None:
        keys = graph.participant_keys()
        for edge in graph.edges:
            key = edge_key(edge)
            if key not in contract_ids:
                raise WitnessError(f"no contract reported for edge {key}")
            chain = self.chains.get(edge.chain_id)
            if chain is None:
                raise WitnessError(f"Trent runs no node for chain {edge.chain_id!r}")
            contract_id = contract_ids[key]
            if not chain.has_contract(contract_id):
                raise WitnessError(f"contract for edge {key} is not deployed")
            contract = chain.contract(contract_id)
            if type(contract).CLASS_NAME != CENTRALIZED_CONTRACT_CLASS:
                raise WitnessError(f"contract for edge {key} has the wrong class")
            if contract.state != "P":
                raise WitnessError(f"contract for edge {key} is not in state P")
            if contract.ms_id != ms_id:
                raise WitnessError(f"contract for edge {key} references a different ms(D)")
            if contract.witness_key_raw != self.public_key.to_bytes():
                raise WitnessError(f"contract for edge {key} trusts a different witness")
            if contract.sender != keys[edge.source].address():
                raise WitnessError(f"contract for edge {key} has the wrong sender")
            if contract.recipient != keys[edge.recipient].address():
                raise WitnessError(f"contract for edge {key} has the wrong recipient")
            if contract.asset != edge.amount:
                raise WitnessError(f"contract for edge {key} locks the wrong amount")


# ---------------------------------------------------------------------------
# Protocol driver
# ---------------------------------------------------------------------------


@dataclass
class AC3TWConfig:
    """Tunables of one AC3TW execution (see :class:`AC3WNConfig`)."""

    decliners: frozenset[str] = frozenset()
    omit_signers: frozenset[str] = frozenset()
    deploy_timeout: float | None = None
    settle_timeout: float | None = None


class AC3TWDriver(ProtocolDriver):
    """Executes one AC2T with the centralized-witness protocol.

    Two phases: *deploy* (all asset contracts concurrently, ending in a
    synchronous decision at Trent) and *settle* (redeem or refund every
    published contract).
    """

    protocol_name = "ac3tw"
    PHASES = (
        Phase(
            "deploy",
            "_deploy",
            "_deploy_timeout",
            progress=(SETTLE.name, END),
            expiry=(SETTLE.name, END),
        ),
        SETTLE,
    )

    def __init__(
        self,
        env: SwapEnvironment,
        graph: SwapGraph,
        witness: TrustedWitness,
        config: AC3TWConfig | None = None,
        fee_budget=None,
        jitter_span: float | None = None,
    ) -> None:
        self.config = config or AC3TWConfig()
        super().__init__(
            env,
            graph,
            fee_budget=fee_budget,
            jitter_span=jitter_span,
        )
        self.witness = witness
        self._ms_id: bytes = b""
        self._deploy_timeout = 0.0
        self._settle_timeout = 0.0
        self._signature: EcdsaSignature | None = None

    def _settle_secrets(self):
        """Trent's decision signature opens every contract."""
        return lambda edge: self._signature

    # -- the protocol: setup, then the steps of PHASES -------------------------------

    def _begin(self) -> bool:
        delta = self._max_delta()
        self._deploy_timeout = self.config.deploy_timeout or 4.0 * delta
        self._settle_timeout = self.config.settle_timeout or 4.0 * delta

        # Step 1-2: multisign the graph and register it at Trent.
        try:
            self._ms_id = self.witness.register(
                self.graph, self._sign_graph(self.config.omit_signers)
            )
        except WitnessError as exc:
            self.outcome.notes.append(f"registration failed: {exc}")
            return False
        self.outcome.phase_times["registered"] = self.sim.now
        return True

    # Step 3-4: concurrent contract deployment, then the decision.
    def _deploy(self, expired: bool) -> str | None:
        all_published = self._all_confirmed()
        if all_published or expired:
            self.outcome.phase_times["contracts_deployed"] = self.sim.now
            return self._decide(all_published)
        self._deploy_missing_edges(
            CENTRALIZED_CONTRACT_CLASS,
            lambda edge: (
                self._address_of(edge.recipient).raw,
                self._ms_id,
                self.witness.public_key.to_bytes(),
            ),
            self.config.decliners,
        )
        return None

    # Step 5-6: request the decision signature from Trent (synchronous —
    # Trent is an off-chain service, not a chain).
    def _decide(self, all_published: bool) -> str:
        try:
            if all_published:
                contract_ids = {
                    key: deploy.contract_id() for key, deploy in self._deploys.items()
                }
                self._signature = self.witness.request_redemption(
                    self._ms_id, contract_ids
                )
                self._settle_function = "redeem"
                self.outcome.decision = "commit"
            else:
                self.outcome.notes.append(
                    "not all contracts confirmed before the deadline; aborting"
                )
                self._signature = self.witness.request_refund(self._ms_id)
                self._settle_function = "refund"
                self.outcome.decision = "abort"
        except WitnessError as exc:
            self.outcome.notes.append(f"witness refused: {exc}")
            return END
        self.outcome.phase_times["decision"] = self.sim.now
        return SETTLE.name
