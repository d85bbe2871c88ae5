"""Tests for Section 4.3 evidence construction and validation."""

import functools
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.chain.chain import Blockchain
from repro.chain.messages import CallMessage, DeployMessage, sign_message
from repro.chain.params import fast_chain
from repro.core.evidence import (
    AnchorValidator,
    FullReplicaValidator,
    LightClientValidator,
    PublicationEvidence,
    StateEvidence,
    build_publication_evidence,
    build_state_evidence,
    verify_evidence,
)
from repro.errors import EvidenceError
from tests.conftest import ALICE, BOB, CAROL, MINER
from tests.test_contracts_runtime import funding_for


def deploy_counter_like_witness(chain, timestamp=1.0):
    """Deploy a WitnessContract-shaped target via the AC3WN class.

    We reuse the real witness contract so that the authorizing functions
    exist; a minimal two-party graph provides the multisignature.
    """
    from repro.core.ac3wn import EdgeSpec
    from repro.workloads.graphs import two_party_swap
    from repro.crypto.keys import KeyPair

    graph = two_party_swap()
    keypairs = {
        name: KeyPair.from_seed(f"participant/{name}")
        for name in graph.participant_names()
    }
    ms = graph.multisign(keypairs)
    keys = tuple(key.to_bytes() for _, key in graph.participants)
    specs = tuple(
        EdgeSpec(e.chain_id, b"\x00" * 20, b"\x01" * 20, e.amount, 1)
        for e in graph.edges
    )
    inputs, change = funding_for(chain, ALICE, 10)
    msg = sign_message(
        DeployMessage(
            sender=ALICE.public_key,
            contract_class="AC3WN-Witness",
            args=(keys, ms, graph.digest(), specs, ()),
            value=0,
            fee=10,
            inputs=inputs,
            change=change,
        ),
        ALICE,
    )
    chain.add_block(chain.make_block([msg], MINER.address, timestamp))
    return msg


def signed_call(chain, sender, contract_id, function, args=()):
    """A signed, funded, not yet mined call of a witness-contract function."""
    inputs, change = funding_for(chain, sender, 5)
    return sign_message(
        CallMessage(
            sender=sender.public_key,
            contract_id=contract_id,
            function=function,
            args=args,
            fee=5,
            inputs=inputs,
            change=change,
        ),
        sender,
    )


def authorize_refund(chain, contract_id, timestamp=2.0, sender=BOB):
    msg = signed_call(chain, sender, contract_id, "authorize_refund")
    chain.add_block(chain.make_block([msg], MINER.address, timestamp))
    return msg


def grow(chain, blocks, start=10.0):
    for i in range(blocks):
        chain.add_block(chain.make_block([], MINER.address, start + i))


class TestPublicationEvidence:
    def test_build_and_verify_against_genesis_anchor(self, chain):
        deploy = deploy_counter_like_witness(chain)
        grow(chain, 3)
        anchor = chain.block_at_height(0).header
        evidence = build_publication_evidence(chain, deploy, anchor=anchor)
        verified = verify_evidence(evidence, anchor, min_depth=2)
        assert verified.contract_id() == deploy.contract_id()

    def test_depth_requirement_enforced(self, chain):
        deploy = deploy_counter_like_witness(chain)
        anchor = chain.block_at_height(0).header
        evidence = build_publication_evidence(chain, deploy, anchor=anchor)
        with pytest.raises(EvidenceError):
            verify_evidence(evidence, anchor, min_depth=5)

    def test_wrong_anchor_rejected(self, chain):
        deploy = deploy_counter_like_witness(chain)
        grow(chain, 3)
        genesis = chain.block_at_height(0).header
        other_anchor = chain.block_at_height(2).header
        evidence = build_publication_evidence(chain, deploy, anchor=genesis)
        with pytest.raises(EvidenceError):
            verify_evidence(evidence, other_anchor, min_depth=1)

    def test_tampered_deploy_rejected(self, chain):
        deploy = deploy_counter_like_witness(chain)
        grow(chain, 3)
        anchor = chain.block_at_height(0).header
        evidence = build_publication_evidence(chain, deploy, anchor=anchor)
        tampered = replace(evidence, deploy=replace(deploy, nonce=deploy.nonce + 1))
        with pytest.raises(EvidenceError):
            verify_evidence(tampered, anchor, min_depth=1)

    def test_wrong_height_rejected(self, chain):
        deploy = deploy_counter_like_witness(chain)
        grow(chain, 3)
        anchor = chain.block_at_height(0).header
        evidence = build_publication_evidence(chain, deploy, anchor=anchor)
        with pytest.raises(EvidenceError):
            verify_evidence(
                replace(evidence, height=evidence.height + 1), anchor, min_depth=1
            )

    def test_unincluded_message_cannot_build(self, chain):
        inputs, change = funding_for(chain, ALICE, 10)
        msg = sign_message(
            DeployMessage(
                sender=ALICE.public_key,
                contract_class="HTLC",
                args=(BOB.address.raw, b"\x00" * 32, 10_000_000),
                value=0,
                fee=10,
                inputs=inputs,
                change=change,
            ),
            ALICE,
        )
        with pytest.raises(EvidenceError):
            build_publication_evidence(chain, msg)


class TestStateEvidence:
    def test_refund_authorization_proven(self, chain):
        deploy = deploy_counter_like_witness(chain)
        call = authorize_refund(chain, deploy.contract_id())
        grow(chain, 3)
        anchor = chain.block_at_height(0).header
        evidence = build_state_evidence(
            chain, deploy.contract_id(), call, "RFauth", anchor=anchor
        )
        assert verify_evidence(evidence, anchor, min_depth=2) == (
            deploy.contract_id(),
            "RFauth",
        )

    def test_claimed_state_must_match_function(self, chain):
        deploy = deploy_counter_like_witness(chain)
        call = authorize_refund(chain, deploy.contract_id())
        grow(chain, 3)
        anchor = chain.block_at_height(0).header
        evidence = build_state_evidence(
            chain, deploy.contract_id(), call, "RDauth", anchor=anchor
        )
        with pytest.raises(EvidenceError):
            verify_evidence(evidence, anchor, min_depth=1)

    def test_reverted_call_not_provable(self, chain):
        deploy = deploy_counter_like_witness(chain)
        authorize_refund(chain, deploy.contract_id(), timestamp=2.0)
        # Second authorize_refund reverts (state is no longer P).
        second = authorize_refund(chain, deploy.contract_id(), timestamp=3.0, sender=ALICE)
        grow(chain, 3)
        anchor = chain.block_at_height(0).header
        assert chain.receipt(second.message_id()).status == "reverted"
        evidence = build_state_evidence(
            chain, deploy.contract_id(), second, "RFauth", anchor=anchor
        )
        with pytest.raises(EvidenceError):
            verify_evidence(evidence, anchor, min_depth=1)

    def test_call_must_target_claimed_contract(self, chain):
        deploy = deploy_counter_like_witness(chain)
        call = authorize_refund(chain, deploy.contract_id())
        grow(chain, 3)
        anchor = chain.block_at_height(0).header
        evidence = build_state_evidence(
            chain, deploy.contract_id(), call, "RFauth", anchor=anchor
        )
        forged = replace(evidence, contract_id=b"\x99" * 32)
        with pytest.raises(EvidenceError):
            verify_evidence(forged, anchor, min_depth=1)


class TestValidatorStrategies:
    def _setup(self, chain):
        deploy = deploy_counter_like_witness(chain)
        call = authorize_refund(chain, deploy.contract_id())
        grow(chain, 3)
        anchor = chain.block_at_height(0).header
        pub = build_publication_evidence(chain, deploy, anchor=anchor)
        state = build_state_evidence(
            chain, deploy.contract_id(), call, "RFauth", anchor=anchor
        )
        return deploy, pub, state, anchor

    def test_full_replica_validator(self, chain):
        deploy, pub, state, _ = self._setup(chain)
        validator = FullReplicaValidator({chain.params.chain_id: chain})
        assert validator.validate(pub, 2) is not None
        assert validator.validate(state, 2) == (deploy.contract_id(), "RFauth")

    def test_full_replica_unknown_chain(self, chain):
        _, pub, state, _ = self._setup(chain)
        validator = FullReplicaValidator({})
        assert validator.validate(pub, 1) is None
        assert validator.validate(state, 1) is None

    def test_full_replica_depth(self, chain):
        _, pub, _, _ = self._setup(chain)
        validator = FullReplicaValidator({chain.params.chain_id: chain})
        assert validator.validate(pub, 100) is None

    def test_light_client_validator(self, chain):
        deploy, pub, state, _ = self._setup(chain)
        validator = LightClientValidator()
        validator.watch(chain)
        assert validator.validate(pub, 2) is not None
        assert validator.validate(state, 2) == (deploy.contract_id(), "RFauth")

    def test_light_client_untracked_chain(self, chain):
        _, pub, _, _ = self._setup(chain)
        validator = LightClientValidator()
        assert validator.validate(pub, 1) is None

    def test_anchor_validator(self, chain):
        deploy, pub, state, anchor = self._setup(chain)
        validator = AnchorValidator({chain.params.chain_id: anchor})
        assert validator.validate(pub, 2) is not None
        assert validator.validate(state, 2) == (deploy.contract_id(), "RFauth")

    def test_anchor_validator_missing_anchor(self, chain):
        _, pub, _, _ = self._setup(chain)
        validator = AnchorValidator({})
        assert validator.validate(pub, 1) is None

    def test_anchor_validator_returns_none_not_raises(self, chain):
        _, pub, _, anchor = self._setup(chain)
        validator = AnchorValidator({chain.params.chain_id: anchor})
        bad = replace(pub, height=pub.height + 1)
        assert validator.validate(bad, 1) is None


class TestHeaderRelayContract:
    def test_relay_flips_on_valid_evidence(self, chain):
        """Figure 6's end-to-end flow on a second chain."""
        from repro.chain.chain import Blockchain
        from repro.chain.params import fast_chain

        validated = chain
        deploy = deploy_counter_like_witness(validated)
        grow(validated, 3)
        anchor = validated.block_at_height(0).header

        validator_chain = Blockchain(
            fast_chain("validator"),
            [(ALICE.address, 100_000), (BOB.address, 100_000)],
        )
        inputs, change = funding_for(validator_chain, ALICE, 10)
        relay_deploy = sign_message(
            DeployMessage(
                sender=ALICE.public_key,
                contract_class="HeaderRelay",
                args=(
                    validated.params.chain_id,
                    anchor,
                    deploy.message_id(),
                    2,
                ),
                fee=10,
                inputs=inputs,
                change=change,
            ),
            ALICE,
        )
        validator_chain.add_block(
            validator_chain.make_block([relay_deploy], MINER.address, 1.0)
        )
        evidence = build_publication_evidence(validated, deploy, anchor=anchor)
        inputs, change = funding_for(validator_chain, BOB, 5)
        submit = sign_message(
            CallMessage(
                sender=BOB.public_key,
                contract_id=relay_deploy.contract_id(),
                function="submit_evidence",
                args=(
                    evidence.headers,
                    evidence.height,
                    evidence.message_proof,
                    evidence.receipt_proof,
                ),
                fee=5,
                inputs=inputs,
                change=change,
            ),
            BOB,
        )
        validator_chain.add_block(
            validator_chain.make_block([submit], MINER.address, 2.0)
        )
        relay = validator_chain.contract(relay_deploy.contract_id())
        assert relay.state == "S2"
        assert relay.observed_height == evidence.height


# ---------------------------------------------------------------------------
# The rule, generated: one verdict from four implementations
# ---------------------------------------------------------------------------

#: Mutations of an honest evidence.  Unmutated evidence is accepted iff
#: it is deep enough; every mutation must be rejected by every
#: implementation that can see it.
MUTATIONS = (
    "none",
    "height-plus",
    "height-minus",
    "negative-height",
    "aliased-negative-height",
    "swapped-proofs",
    "tampered-message",
    "wrong-chain",
    "wrong-contract",
    "wrong-state",
    "non-authorizing-function",
    "reverted-call",
    "too-shallow",
    "truncated-headers",
    "unanchored-headers",
    "reordered-headers",
    "foreign-headers",
    "not-an-evidence",
)
#: Where the message is: height and proofs.  A full replica looks the
#: message up in its own copy of the chain by id and never reads them,
#: so to it these leave a true claim true — it accepts iff deep enough.
LOCATOR = {
    "height-plus",
    "height-minus",
    "negative-height",
    "aliased-negative-height",
    "swapped-proofs",
}
#: The header run is read by the anchor strategy (and the pure verifier)
#: only; full-replica and light-client validators consult their own
#: headers (``reads_headers = False``) and accept iff deep enough.
HEADER_RUN = {
    "truncated-headers",
    "unanchored-headers",
    "reordered-headers",
    "foreign-headers",
}
STATE_ONLY = {"wrong-contract", "wrong-state", "non-authorizing-function", "reverted-call"}


@functools.lru_cache(maxsize=None)
def _world(pre: int, post: int):
    """A chain with ``pre`` empty blocks, an ``SCw`` deploy, its
    ``authorize_refund`` (ok), then one block holding a second
    ``authorize_refund`` (reverted) and a ``verify_contracts`` (ok, not
    authorizing), then ``post`` empty blocks — plus a foreign chain of
    the same height and validators that watch both."""
    allocations = [(k.address, 100_000) for k in (ALICE, BOB, CAROL)]
    chain = Blockchain(fast_chain("testnet"), allocations)
    other = Blockchain(fast_chain("othernet"), allocations)
    grow(chain, pre, start=1.0)
    deploy = deploy_counter_like_witness(chain, timestamp=10.0)
    scw = deploy.contract_id()
    refund = authorize_refund(chain, scw, timestamp=11.0)
    reverted = signed_call(chain, ALICE, scw, "authorize_refund")
    plain = signed_call(chain, CAROL, scw, "verify_contracts", ((),))
    chain.add_block(chain.make_block([reverted, plain], MINER.address, 12.0))
    assert chain.receipt(reverted.message_id()).status == "reverted"
    assert chain.receipt(plain.message_id()).status == "ok"
    grow(chain, post, start=20.0)
    grow(other, chain.height, start=1.0)
    light = LightClientValidator()
    light.watch(chain)
    light.watch(other)
    full = FullReplicaValidator({"testnet": chain, "othernet": other})
    return SimpleNamespace(
        chain=chain, other=other, deploy=deploy, scw=scw, refund=refund,
        reverted=reverted, plain=plain, light=light, full=full,
    )


@st.composite
def evidence_cases(draw, mutation):
    world = _world(draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    chain = world.chain
    kinds = ["state"] if mutation in STATE_ONLY else ["publication", "state"]
    kind = draw(st.sampled_from(kinds))
    message = world.deploy if kind == "publication" else world.refund
    height = chain.find_message(message.message_id()).height
    depth = chain.height - height + 1
    anchor = chain.block_at_height(draw(st.integers(0, height))).header
    min_depth = draw(st.integers(1, depth + 1))
    if kind == "publication":
        honest = build_publication_evidence(chain, message, anchor=anchor)
        claim = message
    else:
        honest = build_state_evidence(chain, world.scw, message, "RFauth", anchor=anchor)
        claim = (world.scw, "RFauth")
    run = honest.headers
    evidence = honest
    if mutation == "height-plus":
        evidence = replace(honest, height=height + draw(st.integers(1, 3)))
    elif mutation == "height-minus":
        evidence = replace(honest, height=height - draw(st.integers(1, 3)))
    elif mutation == "negative-height":
        evidence = replace(honest, height=-draw(st.integers(1, 9)))
    elif mutation == "aliased-negative-height":
        # ``headers[height - base]`` with this height is, to a Python
        # list, the very header the message is in — at a huge "depth".
        evidence = replace(honest, height=height - (chain.height + 1))
    elif mutation == "swapped-proofs":
        evidence = replace(
            honest, message_proof=honest.receipt_proof, receipt_proof=honest.message_proof
        )
    elif mutation == "tampered-message":
        forged = replace(message, nonce=message.nonce + 1)
        field = "deploy" if kind == "publication" else "call"
        evidence = replace(honest, **{field: forged})
    elif mutation == "wrong-chain":
        evidence = replace(honest, chain_id="othernet")
    elif mutation == "wrong-contract":
        evidence = replace(honest, contract_id=b"\x99" * 32)
    elif mutation == "wrong-state":
        evidence = replace(honest, state="RDauth")
    elif mutation == "non-authorizing-function":
        evidence = build_state_evidence(chain, world.scw, world.plain, "RFauth", anchor=anchor)
    elif mutation == "reverted-call":
        evidence = build_state_evidence(chain, world.scw, world.reverted, "RFauth", anchor=anchor)
    elif mutation == "too-shallow":
        min_depth = depth + 1
    elif mutation == "truncated-headers":
        # End the run one header short of burying the message min_depth deep.
        evidence = replace(honest, headers=run[: height - anchor.height + min_depth - 1])
    elif mutation == "unanchored-headers":
        evidence = replace(honest, headers=run[1:])
    elif mutation == "reordered-headers":
        assume(len(run) >= 2)
        i = draw(st.integers(0, len(run) - 2))
        evidence = replace(honest, headers=run[:i] + (run[i + 1], run[i]) + run[i + 2 :])
    elif mutation == "foreign-headers":
        assume(len(run) >= 2)
        foreign = tuple(world.other.header_chain(anchor.height))
        evidence = replace(honest, headers=run[:1] + foreign[1:])
    elif mutation == "not-an-evidence":
        evidence = draw(st.sampled_from([None, 7, b"evidence", (1, 2), message, honest.to_wire()]))
    return SimpleNamespace(
        world=world, mutation=mutation, evidence=evidence, honest=honest, anchor=anchor,
        min_depth=min_depth, deep=min_depth <= depth, depth=depth, claim=claim,
    )


class TestEvidenceRuleGenerated:
    """``verify_evidence`` and the three strategies' ``validate`` are
    four routes to one verdict (Section 4.3): same accept/reject, same
    claim, and no exception out of ``validate``, whatever is submitted."""

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_four_implementations_one_verdict(self, mutation, data):
        case = data.draw(evidence_cases(mutation))
        world, evidence, min_depth = case.world, case.evidence, case.min_depth
        anchors = {"testnet": case.anchor, "othernet": world.other.block_at_height(0).header}
        verdicts = {
            "full-replica": world.full.validate(evidence, min_depth),
            "light-client": world.light.validate(evidence, min_depth),
            "anchor": AnchorValidator(anchors).validate(evidence, min_depth),
        }
        if case.mutation != "not-an-evidence":
            try:
                verdicts["pure"] = verify_evidence(evidence, case.anchor, min_depth)
            except EvidenceError:
                verdicts["pure"] = None
        visible = case.mutation != "none"
        expected = {
            "pure": case.deep and not visible,
            "anchor": case.deep and not visible,
            "light-client": case.deep and (not visible or case.mutation in HEADER_RUN),
            "full-replica": case.deep
            and (not visible or case.mutation in HEADER_RUN | LOCATOR),
        }
        for name, verdict in verdicts.items():
            assert verdict == (case.claim if expected[name] else None), (name, case.mutation)

    @given(case=evidence_cases("none"))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_verdict_memo_is_per_anchor_and_depth(self, case):
        """One evidence instance, asked under two depths and two anchors:
        the verdict memo must not answer one question with another's."""
        validator = AnchorValidator({"testnet": case.anchor})
        stranger = AnchorValidator({"testnet": case.world.other.block_at_height(0).header})
        assert validator.validate(case.honest, case.depth) == case.claim
        assert validator.validate(case.honest, case.depth + 1) is None
        assert stranger.validate(case.honest, case.depth) is None
        assert validator.validate(case.honest, case.depth) == case.claim


def test_each_decision_is_written_once():
    """Structural: the copies this module used to keep apart are gone."""
    source = "".join(
        path.read_text()
        for path in sorted((Path(repro.__file__).parent / "core").glob("*.py"))
    )
    assert source.count('receipt_leaf(message_id, "ok")') == 1
    assert source.count("AUTHORIZING_FUNCTIONS.get(") == 1
    assert "ctx.validators is not None" not in source
