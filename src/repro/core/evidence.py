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
* Inclusion is proven the paper's way, by Figure 6's relay: a stored
  *stable header*, a run of subsequent PoW-valid linked headers, and the
  two Merkle proofs (:func:`verify_evidence`, run on-chain by
  :class:`HeaderRelayContract`).  No check ever reads another chain.
* :func:`validate` is the one entry point both AC3WN contracts call.

``docs/protocols.md`` ("The evidence rule") is the long form.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.block import BlockHeader, receipt_leaf
from ..chain.chain import Blockchain
from ..chain.contracts import ExecutionContext, SmartContract, register_contract, requires
from ..chain.messages import CallMessage, DeployMessage
from ..chain.pow import check_pow
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
            inclusion block to the required depth.
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


def _inclusion(
    chain: Blockchain,
    message: DeployMessage | CallMessage,
    anchor: BlockHeader | None,
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
    return {
        "chain_id": chain.params.chain_id,
        "height": header.height,
        "message_proof": message_proof,
        "receipt_proof": receipts.proof(message_proof.index),
        "headers": tuple(chain.header_chain(0 if anchor is None else anchor.height)),
    }


def build_publication_evidence(
    chain: Blockchain,
    deploy: DeployMessage,
    anchor: BlockHeader | None = None,
) -> PublicationEvidence:
    """Assemble publication evidence for a deploy included in ``chain``.

    ``anchor`` is the stable header the verifier trusts; the evidence
    carries all main-chain headers from the anchor to the current tip.
    """
    return PublicationEvidence(deploy=deploy, **_inclusion(chain, deploy, anchor))


def build_state_evidence(
    chain: Blockchain,
    contract_id: bytes,
    call: CallMessage,
    claimed_state: str,
    anchor: BlockHeader | None = None,
) -> StateEvidence:
    """Assemble state evidence from the authorizing call's inclusion."""
    return StateEvidence(
        contract_id=contract_id,
        state=claimed_state,
        call=call,
        **_inclusion(chain, call, anchor),
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


def verify_header_linkage(headers: list[BlockHeader]) -> None:
    """Check that ``headers`` form a contiguous, PoW-valid chain segment.

    Raises :class:`~repro.errors.EvidenceError` on the first violation.
    """
    for i, header in enumerate(headers):
        if header.height > 0 and not check_pow(header):
            raise EvidenceError(f"header at height {header.height} fails proof of work")
        if i == 0:
            continue
        prev = headers[i - 1]
        if header.prev_hash != prev.block_id():
            raise EvidenceError(
                f"header at height {header.height} does not link to its predecessor"
            )
        if header.height != prev.height + 1:
            raise EvidenceError("header heights are not consecutive")
        if header.time_ticks < prev.time_ticks:
            raise EvidenceError("header timestamps decrease")
        if header.chain_id != prev.chain_id:
            raise EvidenceError("header chain ids differ within one segment")


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
    """Check inclusion at ``height``, buried ≥ depth: the header there
    commits to the message and to its ``ok`` receipt (a reverted call
    must not count as a decision)."""
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


def validate(evidence, anchors: dict[str, BlockHeader], min_depth: int):
    """The authenticated ``evidence.claim()``, or None — never an
    exception — when ``evidence`` is not an evidence, no anchor is stored
    for its chain, or :func:`verify_evidence` rejects it."""
    if not isinstance(evidence, Evidence):
        return None
    anchor = anchors.get(evidence.chain_id)
    if anchor is None:
        return None
    try:
        return verify_evidence(evidence, anchor, min_depth)
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
