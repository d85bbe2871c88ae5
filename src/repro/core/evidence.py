"""Cross-chain evidence validation (Section 4.3) — one rule.

Miners of one blockchain (the *validator*) must be able to validate the
publishing and verify the state of a smart contract deployed in another
blockchain (the *validated*).  AC3WN needs this in both directions:

* ``VerifyContracts`` (Algorithm 3): witness-network miners validate
  that every asset-chain contract of the AC2T is published and correct.
* ``IsRedeemable`` / ``IsRefundable`` (Algorithm 4): asset-chain miners
  verify that the witness contract's state is ``RDauth`` / ``RFauth``.

An *evidence* is a chain message plus the proof that it is included,
executed ``ok`` and buried; each decision about one is written once:

* ``evidence.message`` is the proven deploy or call, and
  ``evidence.claim()`` is what a proven inclusion authenticates — the
  deploy itself (:class:`PublicationEvidence`) or ``(contract_id,
  state)`` after the function ↔ state ↔ contract checks
  (:class:`StateEvidence`).  A new evidence kind is one ``claim()``.
* A validator strategy answers one question,
  ``included(evidence, min_depth)``, by one of the paper's three
  mechanisms: **full replication** (:class:`FullReplicaValidator`, the
  miners' own copy of the validated chain), **light nodes**
  (:class:`LightClientValidator`, synced headers + the SPV proofs) or
  **relay anchors — the paper's proposal** (:class:`AnchorValidator`
  over the pure :func:`verify_evidence`, mirrored on-chain by
  :class:`HeaderRelayContract`): a stored *stable header*, a run of
  subsequent PoW-valid linked headers, and the two Merkle proofs.  A new
  mechanism is one ``included()``.
* :meth:`EvidenceValidator.validate` combines the two for every caller.

``docs/protocols.md`` ("The evidence rule") is the long form.
"""

from __future__ import annotations

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
    def message(self) -> DeployMessage:
        """The chain message whose inclusion is proven."""
        return self.deploy

    def claim(self) -> DeployMessage:
        """A proven inclusion authenticates the deploy itself: its hash
        is committed in a PoW-buried block of the validated chain."""
        return self.deploy


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
    def message(self) -> CallMessage:
        """The chain message whose inclusion is proven."""
        return self.call

    def claim(self) -> tuple[bytes, str]:
        """``(contract_id, state)``: the claimed state must be the one
        the proven call's function leaves behind, and the call must
        target the claimed contract."""
        expected_state = AUTHORIZING_FUNCTIONS.get(self.call.function)
        if expected_state is None:
            raise EvidenceError(f"call {self.call.function!r} is not an authorizing function")
        if expected_state != self.state:
            raise EvidenceError("claimed state does not match the authorizing function")
        if self.call.contract_id != self.contract_id:
            raise EvidenceError("authorizing call targets a different contract")
        return self.contract_id, self.state


Evidence = PublicationEvidence | StateEvidence


# ---------------------------------------------------------------------------
# Evidence construction (run by participants against a full node)
# ---------------------------------------------------------------------------


def headers_required(validators) -> bool:
    """Whether evidence destined for a chain with this validator registry
    must carry the header segment.

    Relay/anchor verification replays the headers; full-replica and
    light-client validators consult their own copy of the validated chain
    and say so (``reads_headers = False``), so builders may skip the
    (long) header run for them.  No registry, or an unknown validator
    type, gets headers — the safe default.
    """
    return getattr(validators, "reads_headers", True)


def _inclusion(
    chain: Blockchain,
    message: DeployMessage | CallMessage,
    anchor: BlockHeader | None,
    include_headers: bool,
) -> dict:
    """The proof half of an evidence for ``message`` as mined on
    ``chain``: its height, the Merkle proofs of the message and of its
    receipt (same index: receipts are kept in block order), and all
    main-chain headers from ``anchor`` (default genesis) to the tip."""
    found = chain.inclusion_proof(message.message_id())
    if found is None:
        raise EvidenceError(f"{message.kind} message is not on the main chain")
    message_proof, header = found
    _statuses, receipts = chain.receipts_data(header.block_id())
    headers: tuple[BlockHeader, ...] = ()
    if include_headers:
        headers = tuple(chain.header_chain(0 if anchor is None else anchor.height))
    return {
        "chain_id": chain.params.chain_id,
        "height": header.height,
        "message_proof": message_proof,
        "receipt_proof": receipts.proof(message_proof.index),
        "headers": headers,
    }


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
    return PublicationEvidence(
        deploy=deploy, **_inclusion(chain, deploy, anchor, include_headers)
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
    return StateEvidence(
        contract_id=contract_id,
        state=claimed_state,
        call=call,
        **_inclusion(chain, call, anchor, include_headers),
    )


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


def _verify_proofs(
    header: BlockHeader,
    message_id: bytes,
    message_proof: MerkleProof,
    receipt_proof: MerkleProof,
) -> None:
    """The one inclusion check: ``header`` commits to the message and to
    its ``ok`` receipt (a reverted call must not count as a decision)."""
    if message_proof.leaf != message_id:
        raise EvidenceError("message proof does not cover the claimed message")
    if not message_proof.verify(header.merkle_root):
        raise EvidenceError("message inclusion proof failed")
    if receipt_proof.leaf != receipt_leaf(message_id, "ok"):
        raise EvidenceError("receipt proof does not show successful execution")
    if not receipt_proof.verify(header.receipts_root):
        raise EvidenceError("receipt inclusion proof failed")


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
    _verify_proofs(headers[height - base], message_id, message_proof, receipt_proof)


def verify_evidence(evidence: Evidence, anchor: BlockHeader, min_depth: int):
    """Pure relay-style verification; returns ``evidence.claim()``.

    Raises :class:`~repro.errors.EvidenceError` on any failure.  On
    success the claim is *trusted data*: the message behind it is
    committed, with an ``ok`` receipt, in a block of the validated chain
    buried under ``min_depth`` PoW-valid headers that link back to
    ``anchor``.

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
            headers = _verify_segment(evidence.headers, anchor, evidence.chain_id)
            claim = evidence.claim()
            _verify_inclusion_in_segment(
                headers,
                evidence.height,
                evidence.message.message_id(),
                evidence.message_proof,
                evidence.receipt_proof,
                min_depth,
            )
            verdict = (True, claim)
        except EvidenceError as exc:
            verdict = (False, str(exc))
        cache[key] = verdict
    else:
        _memo_hits += 1
    ok, payload = verdict
    if not ok:
        raise EvidenceError(payload)
    return payload


# ---------------------------------------------------------------------------
# Validator strategies (pluggable per chain)
# ---------------------------------------------------------------------------


class EvidenceValidator:
    """How one chain's miners validate foreign-chain evidence.

    A strategy supplies :meth:`included`; every caller — both AC3WN
    contracts, tests, adversaries — goes through :meth:`validate`.
    """

    #: Whether :meth:`included` replays ``evidence.headers`` (see
    #: :func:`headers_required`).
    reads_headers = True

    def included(self, evidence: Evidence, min_depth: int) -> bool:
        """Is ``evidence.message`` on ``evidence.chain_id``, executed
        ``ok`` and buried at depth ≥ ``min_depth``?  May raise
        :class:`~repro.errors.EvidenceError` in place of ``False``."""
        raise NotImplementedError

    def validate(self, evidence, min_depth: int):
        """The authenticated ``evidence.claim()``, or None — never an
        exception — when ``evidence`` is not an evidence, its message is
        not provably included, or the claim does not follow from it."""
        if not isinstance(evidence, Evidence):
            return None
        try:
            return evidence.claim() if self.included(evidence, min_depth) else None
        except EvidenceError:
            return None


class FullReplicaValidator(EvidenceValidator):
    """Miners keep full copies of every validated chain (Section 4.3's
    "simple but impractical" baseline) and consult them directly; the
    evidence's height, proofs and headers are never read."""

    reads_headers = False

    def __init__(self, chains: dict[str, Blockchain] | None = None) -> None:
        self.chains: dict[str, Blockchain] = dict(chains or {})

    def watch(self, chain: Blockchain) -> None:
        self.chains[chain.params.chain_id] = chain

    def included(self, evidence: Evidence, min_depth: int) -> bool:
        chain = self.chains.get(evidence.chain_id)
        if chain is None:
            return False
        message_id = evidence.message.message_id()
        if chain.message_depth(message_id) < min_depth:
            return False
        receipt = chain.receipt(message_id)
        return receipt is not None and receipt.status == "ok"


class LightClientValidator(EvidenceValidator):
    """Miners run light nodes of validated chains and check SPV proofs.

    ``sources`` model the light nodes' ongoing header download: before
    each validation the client syncs new headers from the registered
    full node.  Proof verification itself uses only the locally
    validated headers.
    """

    reads_headers = False

    def __init__(self) -> None:
        self.clients: dict[str, LightClient] = {}
        self.sources: dict[str, Blockchain] = {}

    def watch(self, chain: Blockchain) -> None:
        """Start tracking ``chain`` with a fresh genesis-anchored client."""
        client = LightClient(chain.params, chain.block_at_height(0).header)
        client.sync_from(chain)
        self.clients[chain.params.chain_id] = client
        self.sources[chain.params.chain_id] = chain

    def included(self, evidence: Evidence, min_depth: int) -> bool:
        client = self.clients.get(evidence.chain_id)
        if client is None:
            return False
        client.sync_from(self.sources[evidence.chain_id])
        if client.depth_of_height(evidence.height) < min_depth:
            return False
        _verify_proofs(
            client.header_at(evidence.height),
            evidence.message.message_id(),
            evidence.message_proof,
            evidence.receipt_proof,
        )
        return True


class AnchorValidator(EvidenceValidator):
    """Relay-style validation from stored stable anchors (the proposal).

    This is the validator equivalent of pushing the logic into a smart
    contract: no foreign chain access at all, only the anchors recorded
    at setup time plus the self-contained evidence.  It is what both
    AC3WN contracts fall back to, over the anchors they stored, on a
    chain whose miners run no validator registry.
    """

    def __init__(self, anchors: dict[str, BlockHeader] | None = None) -> None:
        self.anchors: dict[str, BlockHeader] = dict(anchors or {})

    def set_anchor(self, chain_id: str, header: BlockHeader) -> None:
        self.anchors[chain_id] = header

    def included(self, evidence: Evidence, min_depth: int) -> bool:
        anchor = self.anchors.get(evidence.chain_id)
        if anchor is None:
            return False
        verify_evidence(evidence, anchor, min_depth)
        return True


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
