"""Cross-chain evidence validation (Section 4.3).

Miners of one blockchain (the *validator*) must be able to validate the
publishing and verify the state of a smart contract deployed in another
blockchain (the *validated*).  AC3WN needs this in both directions:

* ``VerifyContracts`` (Algorithm 3): witness-network miners validate
  that every asset-chain contract of the AC2T is published and correct.
* ``IsRedeemable`` / ``IsRefundable`` (Algorithm 4): asset-chain miners
  verify that the witness contract's state is ``RDauth`` / ``RFauth``.

The paper discusses three mechanisms, all implemented here:

1. **Full replication** (:class:`FullReplicaValidator`): the validator's
   miners maintain a full copy of the validated chain and consult it
   directly.  Impractical at scale but the simplest baseline.
2. **Light nodes** (:class:`LightClientValidator`): the validator's
   miners run header-only light nodes of the validated chain and check
   Merkle inclusion proofs (SPV).
3. **Relay contracts — the paper's proposal**
   (:func:`verify_publication_evidence` / :func:`verify_state_evidence`
   as pure functions plus :class:`AnchorValidator` and the on-chain
   :class:`HeaderRelayContract`): a smart contract on the validator
   chain stores a *stable header* of the validated chain; evidence is a
   run of subsequent headers (each with valid PoW, each linking to its
   predecessor) plus Merkle proofs of the message of interest and of its
   execution receipt, and a depth requirement.

Every mechanism authenticates the same two claims about a foreign chain:
"this deploy/call message is included at depth ≥ d" and "its execution
succeeded" (the receipt commitment is what distinguishes a successful
``AuthorizeRedeem`` from a reverted one).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..chain.block import BlockHeader, receipt_leaf
from ..chain.chain import Blockchain
from ..chain.contracts import ExecutionContext, SmartContract, register_contract, requires
from ..chain.lightclient import LightClient, verify_header_linkage
from ..chain.messages import CallMessage, DeployMessage
from ..crypto.merkle import MerkleProof
from ..errors import EvidenceError

#: Map from witness-contract function names to the state a *successful*
#: call leaves the contract in (used when validating state evidence).
AUTHORIZING_FUNCTIONS = {
    "authorize_redeem": "RDauth",
    "authorize_refund": "RFauth",
}


# ---------------------------------------------------------------------------
# Evidence payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PublicationEvidence:
    """Proof that a deploy message is included and executed on a chain.

    Attributes:
        chain_id: the validated chain.
        deploy: the full deployment message (authenticated by hashing it
            and checking the hash against the proven Merkle leaf).
        height: height of the including block.
        message_proof: Merkle proof of the message id in the block's
            message tree.
        receipt_proof: Merkle proof of the ``(message_id, "ok")`` receipt
            leaf in the block's receipt tree.
        headers: contiguous main-chain headers, starting at the verifier's
            trusted anchor (inclusive) and ending at a tip that buries the
            inclusion block to the required depth.  Full-replica and
            light-client validators ignore this field.
    """

    chain_id: str
    deploy: DeployMessage
    height: int
    message_proof: MerkleProof
    receipt_proof: MerkleProof
    headers: tuple[BlockHeader, ...] = ()

    def to_wire(self):
        return {
            "type": "publication-evidence",
            "chain_id": self.chain_id,
            "deploy": self.deploy,
            "height": self.height,
            "message_proof": self.message_proof,
            "receipt_proof": self.receipt_proof,
            "headers": list(self.headers),
        }

    @property
    def claims(self) -> dict:
        return {
            "chain_id": self.chain_id,
            "contract_id": self.deploy.contract_id(),
            "state": "P",
        }


@dataclass(frozen=True)
class StateEvidence:
    """Proof that a witness contract reached a state on its chain.

    The state transition is proven via the *authorizing call*: the
    witness contract only permits ``P → RDauth`` (``authorize_redeem``)
    and ``P → RFauth`` (``authorize_refund``), so a successful call of
    one of those functions pins the contract's final state.
    """

    chain_id: str
    contract_id: bytes
    state: str  # claimed: "RDauth" or "RFauth"
    call: CallMessage
    height: int
    message_proof: MerkleProof
    receipt_proof: MerkleProof
    headers: tuple[BlockHeader, ...] = ()

    def to_wire(self):
        return {
            "type": "state-evidence",
            "chain_id": self.chain_id,
            "contract_id": self.contract_id,
            "state": self.state,
            "call": self.call,
            "height": self.height,
            "message_proof": self.message_proof,
            "receipt_proof": self.receipt_proof,
            "headers": list(self.headers),
        }

    @property
    def claims(self) -> dict:
        return {
            "chain_id": self.chain_id,
            "contract_id": self.contract_id,
            "state": self.state,
        }


# ---------------------------------------------------------------------------
# Evidence construction (run by participants against a full node)
# ---------------------------------------------------------------------------


def _anchor_height_default(anchor: BlockHeader | None) -> int:
    return 0 if anchor is None else anchor.height


def headers_required(validators) -> bool:
    """Whether evidence destined for a chain with this validator registry
    must carry the header segment.

    Relay/anchor verification replays the headers; full-replica and
    light-client validators consult their own copy of the validated chain
    and ignore the field entirely, so builders may skip the (long) header
    run for them.  Unknown validator types get headers — the safe default.
    """
    return not isinstance(validators, (FullReplicaValidator, LightClientValidator))


def build_publication_evidence(
    chain: Blockchain,
    deploy: DeployMessage,
    anchor: BlockHeader | None = None,
    include_headers: bool = True,
) -> PublicationEvidence:
    """Assemble publication evidence for a deploy included in ``chain``.

    ``anchor`` is the stable header the verifier trusts; the evidence
    carries all main-chain headers from the anchor to the current tip.
    Pass ``include_headers=False`` when the verifier is known to ignore
    the header segment (see :func:`headers_required`).
    """
    message_id = deploy.message_id()
    location = chain.find_message(message_id)
    if location is None:
        raise EvidenceError("deploy message is not on the main chain")
    block = chain.block(location.block_hash)
    message_proof = block.merkle_tree().proof(location.index)
    receipt_proof = _receipt_proof_for(chain, location.block_hash, message_id)
    headers: tuple[BlockHeader, ...] = ()
    if include_headers:
        headers = tuple(chain.header_chain(_anchor_height_default(anchor)))
    return PublicationEvidence(
        chain_id=chain.params.chain_id,
        deploy=deploy,
        height=location.height,
        message_proof=message_proof,
        receipt_proof=receipt_proof,
        headers=headers,
    )


def build_state_evidence(
    chain: Blockchain,
    contract_id: bytes,
    call: CallMessage,
    claimed_state: str,
    anchor: BlockHeader | None = None,
    include_headers: bool = True,
) -> StateEvidence:
    """Assemble state evidence from the authorizing call's inclusion."""
    message_id = call.message_id()
    location = chain.find_message(message_id)
    if location is None:
        raise EvidenceError("authorizing call is not on the main chain")
    block = chain.block(location.block_hash)
    message_proof = block.merkle_tree().proof(location.index)
    receipt_proof = _receipt_proof_for(chain, location.block_hash, message_id)
    headers: tuple[BlockHeader, ...] = ()
    if include_headers:
        headers = tuple(chain.header_chain(_anchor_height_default(anchor)))
    return StateEvidence(
        chain_id=chain.params.chain_id,
        contract_id=contract_id,
        state=claimed_state,
        call=call,
        height=location.height,
        message_proof=message_proof,
        receipt_proof=receipt_proof,
        headers=headers,
    )


def _receipt_proof_for(chain: Blockchain, block_hash: bytes, message_id: bytes) -> MerkleProof:
    """Build the Merkle proof of a message's receipt within its block.

    The per-block receipt list and tree are cached by the chain at
    connect time, so this costs one index scan plus one proof walk.
    """
    statuses, tree = chain.receipts_data(block_hash)
    for i, (mid, _status) in enumerate(statuses):
        if mid == message_id:
            return tree.proof(i)
    raise EvidenceError("message not found in its claimed block")


# ---------------------------------------------------------------------------
# Pure verification against a trusted anchor (the paper's relay proposal)
# ---------------------------------------------------------------------------


#: Process-wide hit/miss counters for the evidence verdict memo, the
#: cache-introspection twin of ``crypto.keys.verify_cache_info()``.
#: The memo itself is per-evidence-instance, so "size" has no global
#: meaning and is reported as the instance count observed via misses.
_memo_hits = 0
_memo_misses = 0


def evidence_cache_info() -> dict:
    """Hit/miss counters for the per-instance evidence verdict memo."""
    return {"hits": _memo_hits, "misses": _memo_misses}


def reset_evidence_cache_info() -> None:
    """Zero the counters (test isolation)."""
    global _memo_hits, _memo_misses
    _memo_hits = 0
    _memo_misses = 0


def _memoized_verify(evidence, anchor: BlockHeader, min_depth: int, compute):
    """Per-instance verdict cache for the pure verifiers.

    The same frozen evidence object is re-verified several times on its
    way into a block (miner template trial, block connect, driver
    re-validation), always against the same ``(anchor, min_depth)``; the
    verdict is a pure function of the three, so it is cached on the
    evidence instance.  Tampered copies made via ``dataclasses.replace``
    are new instances and start with an empty cache.
    """
    global _memo_hits, _memo_misses
    cache = evidence.__dict__.get("_verdicts")
    if cache is None:
        cache = {}
        object.__setattr__(evidence, "_verdicts", cache)
    key = (anchor.block_id(), min_depth)
    verdict = cache.get(key)
    if verdict is None:
        _memo_misses += 1
        try:
            verdict = (True, compute())
        except EvidenceError as exc:
            verdict = (False, str(exc))
        cache[key] = verdict
    else:
        _memo_hits += 1
    ok, payload = verdict
    if not ok:
        raise EvidenceError(payload)
    return payload


def _verify_segment(
    evidence_headers: tuple[BlockHeader, ...],
    anchor: BlockHeader,
    chain_id: str,
) -> list[BlockHeader]:
    """Authenticate a header segment: anchored, linked, PoW-valid."""
    if not evidence_headers:
        raise EvidenceError("evidence carries no headers")
    headers = list(evidence_headers)
    if headers[0].block_id() != anchor.block_id():
        raise EvidenceError("evidence is not anchored at the trusted stable header")
    if any(h.chain_id != chain_id for h in headers):
        raise EvidenceError("evidence headers belong to the wrong chain")
    verify_header_linkage(headers)
    return headers


def _verify_inclusion_in_segment(
    headers: list[BlockHeader],
    height: int,
    message_id: bytes,
    message_proof: MerkleProof,
    receipt_proof: MerkleProof,
    min_depth: int,
) -> None:
    """Check message + ok-receipt inclusion at ``height``, buried ≥ depth."""
    base = headers[0].height
    tip = headers[-1].height
    if not base <= height <= tip:
        raise EvidenceError(
            f"inclusion height {height} outside evidence segment [{base}, {tip}]"
        )
    depth = tip - height + 1
    if depth < min_depth:
        raise EvidenceError(f"inclusion depth {depth} below required {min_depth}")
    header = headers[height - base]
    if message_proof.leaf != message_id:
        raise EvidenceError("message proof does not cover the claimed message")
    if not message_proof.verify(header.merkle_root):
        raise EvidenceError("message inclusion proof failed")
    if receipt_proof.leaf != receipt_leaf(message_id, "ok"):
        raise EvidenceError("receipt proof does not show successful execution")
    if not receipt_proof.verify(header.receipts_root):
        raise EvidenceError("receipt inclusion proof failed")


def verify_publication_evidence(
    evidence: PublicationEvidence,
    anchor: BlockHeader,
    min_depth: int,
) -> DeployMessage:
    """Pure relay-style verification; returns the authenticated deploy.

    Raises :class:`~repro.errors.EvidenceError` on any failure.  On
    success the returned deploy message is *trusted data*: its hash is
    committed in a PoW-buried block of the validated chain.
    """

    def compute() -> DeployMessage:
        headers = _verify_segment(evidence.headers, anchor, evidence.chain_id)
        _verify_inclusion_in_segment(
            headers,
            evidence.height,
            evidence.deploy.message_id(),
            evidence.message_proof,
            evidence.receipt_proof,
            min_depth,
        )
        return evidence.deploy

    return _memoized_verify(evidence, anchor, min_depth, compute)


def verify_state_evidence(
    evidence: StateEvidence,
    anchor: BlockHeader,
    min_depth: int,
) -> tuple[bytes, str]:
    """Pure relay-style verification; returns (contract_id, state).

    The claimed state must match the authorizing function of the proven
    call, the call must target the claimed contract, and its success
    receipt must be included at depth ≥ ``min_depth``.
    """

    def compute() -> tuple[bytes, str]:
        headers = _verify_segment(evidence.headers, anchor, evidence.chain_id)
        expected_state = AUTHORIZING_FUNCTIONS.get(evidence.call.function)
        if expected_state is None:
            raise EvidenceError(
                f"call {evidence.call.function!r} is not an authorizing function"
            )
        if expected_state != evidence.state:
            raise EvidenceError("claimed state does not match the authorizing function")
        if evidence.call.contract_id != evidence.contract_id:
            raise EvidenceError("authorizing call targets a different contract")
        _verify_inclusion_in_segment(
            headers,
            evidence.height,
            evidence.call.message_id(),
            evidence.message_proof,
            evidence.receipt_proof,
            min_depth,
        )
        return evidence.contract_id, evidence.state

    return _memoized_verify(evidence, anchor, min_depth, compute)


# ---------------------------------------------------------------------------
# Validator strategies (pluggable per chain)
# ---------------------------------------------------------------------------


class EvidenceValidator(ABC):
    """Interface miners use to validate foreign-chain evidence."""

    @abstractmethod
    def validate_publication(
        self, evidence: PublicationEvidence, min_depth: int
    ) -> DeployMessage | None:
        """Return the authenticated deploy message, or None if invalid."""

    @abstractmethod
    def validate_state(
        self, evidence: StateEvidence, min_depth: int
    ) -> tuple[bytes, str] | None:
        """Return the authenticated (contract_id, state), or None."""


class FullReplicaValidator(EvidenceValidator):
    """Miners keep full copies of every validated chain (Section 4.3's
    "simple but impractical" baseline) and consult them directly."""

    def __init__(self, chains: dict[str, Blockchain] | None = None) -> None:
        self.chains: dict[str, Blockchain] = dict(chains or {})

    def add_chain(self, chain: Blockchain) -> None:
        self.chains[chain.params.chain_id] = chain

    def _chain(self, chain_id: str) -> Blockchain | None:
        return self.chains.get(chain_id)

    def validate_publication(
        self, evidence: PublicationEvidence, min_depth: int
    ) -> DeployMessage | None:
        chain = self._chain(evidence.chain_id)
        if chain is None:
            return None
        message_id = evidence.deploy.message_id()
        if chain.message_depth(message_id) < min_depth:
            return None
        receipt = chain.receipt(message_id)
        if receipt is None or receipt.status != "ok":
            return None
        return evidence.deploy

    def validate_state(
        self, evidence: StateEvidence, min_depth: int
    ) -> tuple[bytes, str] | None:
        chain = self._chain(evidence.chain_id)
        if chain is None:
            return None
        expected_state = AUTHORIZING_FUNCTIONS.get(evidence.call.function)
        if expected_state != evidence.state:
            return None
        if evidence.call.contract_id != evidence.contract_id:
            return None
        message_id = evidence.call.message_id()
        if chain.message_depth(message_id) < min_depth:
            return None
        receipt = chain.receipt(message_id)
        if receipt is None or receipt.status != "ok":
            return None
        return evidence.contract_id, evidence.state


class LightClientValidator(EvidenceValidator):
    """Miners run light nodes of validated chains and check SPV proofs.

    ``sources`` (optional) model the light nodes' ongoing header
    download: before each validation the client syncs new headers from
    the registered full node.  Proof verification itself uses only the
    locally validated headers.
    """

    def __init__(self) -> None:
        self.clients: dict[str, LightClient] = {}
        self.sources: dict[str, Blockchain] = {}

    def track(self, chain: Blockchain) -> LightClient:
        """Start tracking ``chain`` with a fresh genesis-anchored client."""
        client = LightClient(chain.params, chain.block_at_height(0).header)
        client.sync_from(chain)
        self.clients[chain.params.chain_id] = client
        self.sources[chain.params.chain_id] = chain
        return client

    def _client(self, chain_id: str) -> LightClient | None:
        client = self.clients.get(chain_id)
        if client is not None and chain_id in self.sources:
            client.sync_from(self.sources[chain_id])
        return client

    def _validate_inclusion(
        self,
        client: LightClient,
        height: int,
        message_id: bytes,
        message_proof: MerkleProof,
        receipt_proof: MerkleProof,
        min_depth: int,
    ) -> bool:
        if height > client.height:
            return False
        if client.depth_of_height(height) < min_depth:
            return False
        header = client.header_at(height)
        if message_proof.leaf != message_id or not message_proof.verify(header.merkle_root):
            return False
        if receipt_proof.leaf != receipt_leaf(message_id, "ok"):
            return False
        return receipt_proof.verify(header.receipts_root)

    def validate_publication(
        self, evidence: PublicationEvidence, min_depth: int
    ) -> DeployMessage | None:
        client = self._client(evidence.chain_id)
        if client is None:
            return None
        ok = self._validate_inclusion(
            client,
            evidence.height,
            evidence.deploy.message_id(),
            evidence.message_proof,
            evidence.receipt_proof,
            min_depth,
        )
        return evidence.deploy if ok else None

    def validate_state(
        self, evidence: StateEvidence, min_depth: int
    ) -> tuple[bytes, str] | None:
        client = self._client(evidence.chain_id)
        if client is None:
            return None
        expected_state = AUTHORIZING_FUNCTIONS.get(evidence.call.function)
        if expected_state != evidence.state:
            return None
        if evidence.call.contract_id != evidence.contract_id:
            return None
        ok = self._validate_inclusion(
            client,
            evidence.height,
            evidence.call.message_id(),
            evidence.message_proof,
            evidence.receipt_proof,
            min_depth,
        )
        return (evidence.contract_id, evidence.state) if ok else None


class AnchorValidator(EvidenceValidator):
    """Relay-style validation from stored stable anchors (the proposal).

    This is the validator equivalent of pushing the logic into a smart
    contract: no foreign chain access at all, only the anchors recorded
    at setup time plus the self-contained evidence.
    """

    def __init__(self, anchors: dict[str, BlockHeader] | None = None) -> None:
        self.anchors: dict[str, BlockHeader] = dict(anchors or {})

    def set_anchor(self, chain_id: str, header: BlockHeader) -> None:
        self.anchors[chain_id] = header

    def validate_publication(
        self, evidence: PublicationEvidence, min_depth: int
    ) -> DeployMessage | None:
        anchor = self.anchors.get(evidence.chain_id)
        if anchor is None:
            return None
        try:
            return verify_publication_evidence(evidence, anchor, min_depth)
        except EvidenceError:
            return None

    def validate_state(
        self, evidence: StateEvidence, min_depth: int
    ) -> tuple[bytes, str] | None:
        anchor = self.anchors.get(evidence.chain_id)
        if anchor is None:
            return None
        try:
            return verify_state_evidence(evidence, anchor, min_depth)
        except EvidenceError:
            return None


# ---------------------------------------------------------------------------
# The general-purpose relay contract of Figure 6
# ---------------------------------------------------------------------------


@register_contract
class HeaderRelayContract(SmartContract):
    """Figure 6's validator contract ``SC``: stores a stable header of the
    validated chain and flips ``S1 → S2`` when evidence proves that the
    transaction of interest took place after the stored stable block.

    Constructor args:
        validated_chain_id: the chain being watched.
        stable_header: a stable (depth ≥ d) header of that chain.
        watched_message_id: the message id whose inclusion is awaited.
        min_depth: required burial depth of the inclusion block.
    """

    CLASS_NAME = "HeaderRelay"

    def constructor(
        self,
        ctx: ExecutionContext,
        validated_chain_id: str,
        stable_header: BlockHeader,
        watched_message_id: bytes,
        min_depth: int,
    ) -> None:
        self.validated_chain_id = validated_chain_id
        self.stable_header = stable_header
        self.watched_message_id = watched_message_id
        self.min_depth = min_depth
        self.state = "S1"
        self.observed_height: int | None = None

    def submit_evidence(
        self,
        ctx: ExecutionContext,
        headers: tuple[BlockHeader, ...],
        height: int,
        message_proof: MerkleProof,
        receipt_proof: MerkleProof,
    ) -> None:
        """Verify the header run + proofs; on success move to S2."""
        requires(self.state == "S1", "relay already satisfied")
        try:
            verified = _verify_segment(
                tuple(headers), self.stable_header, self.validated_chain_id
            )
            _verify_inclusion_in_segment(
                verified,
                height,
                self.watched_message_id,
                message_proof,
                receipt_proof,
                self.min_depth,
            )
        except EvidenceError as exc:
            requires(False, f"evidence rejected: {exc}")
        self.state = "S2"
        self.observed_height = height
        ctx.emit("relay-satisfied", height=height)
