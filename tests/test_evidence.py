"""Tests for Section 4.3 evidence construction and validation."""

import ast
import functools
import tokenize
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
from repro.chain.pow import check_pow, mine_header
from repro.core.evidence import (
    PublicationEvidence,
    StateEvidence,
    build_publication_evidence,
    build_state_evidence,
    validate,
    verify_evidence,
    verify_header_linkage,
)
from repro.errors import EvidenceError
from tests.conftest import ALICE, BOB, CAROL, MINER
from tests.test_chain import transfer_message
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


class TestHeaderLinkage:
    def test_valid_run(self, chain):
        grow(chain, 4)
        verify_header_linkage(chain.header_chain(0))

    def test_broken_link_detected(self, chain):
        grow(chain, 3)
        headers = chain.header_chain(0)
        with pytest.raises(EvidenceError):
            verify_header_linkage([headers[0], headers[2]])

    def test_cross_chain_mix_detected(self, chain):
        other = Blockchain(fast_chain("other"), [(ALICE.address, 10)])
        grow(chain, 1)
        grow(other, 1)
        with pytest.raises(EvidenceError):
            verify_header_linkage([chain.header_chain(0)[0], other.header_chain(0)[1]])

    def test_competing_header_detected(self, chain):
        """A block mined at height 1 on the same parent, spliced into the
        main chain's run: the header above it does not link to it."""
        grow(chain, 2)
        headers = chain.header_chain(0)
        fork = chain.make_block(
            [transfer_message(chain, ALICE, BOB, 1)],
            MINER.address,
            1.0,
            parent_hash=headers[0].block_id(),
        )
        assert fork.header.block_id() != headers[1].block_id()
        verify_header_linkage([headers[0], fork.header])
        with pytest.raises(EvidenceError, match="does not link"):
            verify_header_linkage([headers[0], fork.header, headers[2]])

    def test_failed_proof_of_work_detected(self, chain):
        grow(chain, 1)
        genesis, mined = chain.header_chain(0)
        unmined = next(
            header
            for nonce in range(mined.nonce + 1, mined.nonce + 1000)
            if not check_pow(header := replace(mined, nonce=nonce))
        )
        with pytest.raises(EvidenceError, match="proof of work"):
            verify_header_linkage([genesis, unmined])

    def test_skipped_height_detected(self, chain):
        grow(chain, 1)
        genesis, mined = chain.header_chain(0)
        skipped = mine_header(replace(mined, height=2))
        with pytest.raises(EvidenceError, match="consecutive"):
            verify_header_linkage([genesis, skipped])

    def test_decreasing_timestamp_detected(self, chain):
        grow(chain, 2)
        genesis, first, second = chain.header_chain(0)
        early = mine_header(replace(second, time_ticks=first.time_ticks - 1))
        with pytest.raises(EvidenceError, match="timestamps"):
            verify_header_linkage([genesis, first, early])


class TestValidate:
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

    def test_anchored_evidence_yields_its_claim(self, chain):
        deploy, pub, state, anchor = self._setup(chain)
        anchors = {chain.params.chain_id: anchor}
        assert validate(pub, anchors, 2) == deploy
        assert validate(state, anchors, 2) == (deploy.contract_id(), "RFauth")

    def test_missing_anchor(self, chain):
        _, pub, state, _ = self._setup(chain)
        assert validate(pub, {}, 1) is None
        assert validate(state, {"othernet": chain.block_at_height(0).header}, 1) is None

    def test_returns_none_not_raises(self, chain):
        _, pub, _, anchor = self._setup(chain)
        bad = replace(pub, height=pub.height + 1)
        assert validate(bad, {chain.params.chain_id: anchor}, 1) is None
        assert validate(pub, {chain.params.chain_id: anchor}, 100) is None


class TestHeaderRelayContract:
    """Figure 6's relay as an on-chain inclusion check: the stored stable
    header, a linked run of headers from it, and the Merkle proofs of the
    watched message and of its ``ok`` receipt in a block ``min_depth``
    deep."""

    @staticmethod
    def _relay(validated, watched_id, min_depth=2, anchor=None):
        """Deploy a relay for ``validated`` on a fresh chain; return the
        chain, the relay's id and ``submit(evidence, timestamp)``, which
        mines one ``submit_evidence`` call and returns its receipt."""
        anchor = validated.block_at_height(0).header if anchor is None else anchor
        validator_chain = Blockchain(
            fast_chain("validator"),
            [(ALICE.address, 100_000), (BOB.address, 100_000)],
        )
        inputs, change = funding_for(validator_chain, ALICE, 10)
        relay_deploy = sign_message(
            DeployMessage(
                sender=ALICE.public_key,
                contract_class="HeaderRelay",
                args=(validated.params.chain_id, anchor, watched_id, min_depth),
                fee=10,
                inputs=inputs,
                change=change,
            ),
            ALICE,
        )
        validator_chain.add_block(
            validator_chain.make_block([relay_deploy], MINER.address, 1.0)
        )

        def submit(evidence, timestamp=2.0):
            inputs, change = funding_for(validator_chain, BOB, 5)
            call = sign_message(
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
                validator_chain.make_block([call], MINER.address, timestamp)
            )
            return validator_chain.receipt(call.message_id())

        return validator_chain, relay_deploy.contract_id(), submit

    def test_relay_flips_on_valid_evidence(self, chain):
        """Figure 6's end-to-end flow on a second chain."""
        deploy = deploy_counter_like_witness(chain)
        grow(chain, 3)
        validator_chain, relay_id, submit = self._relay(chain, deploy.message_id())
        evidence = build_publication_evidence(chain, deploy)
        assert submit(evidence).status == "ok"
        relay = validator_chain.contract(relay_id)
        assert relay.state == "S2"
        assert relay.observed_height == evidence.height

    def test_inclusion_verifies_at_exact_depth(self, chain):
        deploy = deploy_counter_like_witness(chain)
        grow(chain, 1)  # the deploy's block is now two deep
        validator_chain, relay_id, submit = self._relay(chain, deploy.message_id())
        assert submit(build_publication_evidence(chain, deploy)).status == "ok"
        assert validator_chain.contract(relay_id).state == "S2"

    def test_insufficient_depth_reverts(self, chain):
        deploy = deploy_counter_like_witness(chain)
        validator_chain, relay_id, submit = self._relay(chain, deploy.message_id())
        receipt = submit(build_publication_evidence(chain, deploy))
        assert receipt.status == "reverted" and "depth 1 below required 2" in receipt.error
        assert validator_chain.contract(relay_id).state == "S1"

    def test_other_message_reverts(self, chain):
        """Well-proven inclusion of a message the relay does not watch."""
        deploy = deploy_counter_like_witness(chain)
        grow(chain, 3)
        validator_chain, relay_id, submit = self._relay(chain, b"\xff" * 32)
        receipt = submit(build_publication_evidence(chain, deploy))
        assert receipt.status == "reverted" and "does not cover" in receipt.error
        assert validator_chain.contract(relay_id).state == "S1"

    def test_height_beyond_the_run_reverts(self, chain):
        deploy = deploy_counter_like_witness(chain)
        grow(chain, 3)
        validator_chain, relay_id, submit = self._relay(chain, deploy.message_id())
        evidence = build_publication_evidence(chain, deploy)
        short = replace(evidence, headers=evidence.headers[: evidence.height])
        receipt = submit(short)
        assert receipt.status == "reverted" and "outside evidence segment" in receipt.error
        assert validator_chain.contract(relay_id).state == "S1"

    def test_non_genesis_stable_header(self, chain):
        """The stored header may be any stable header below the message:
        the run then starts there, not at genesis."""
        grow(chain, 2, start=1.0)
        anchor = chain.block_at_height(2).header
        deploy = deploy_counter_like_witness(chain, timestamp=3.0)
        grow(chain, 2)
        validator_chain, relay_id, submit = self._relay(
            chain, deploy.message_id(), anchor=anchor
        )
        evidence = build_publication_evidence(chain, deploy, anchor=anchor)
        assert evidence.headers[0] == anchor
        assert submit(evidence).status == "ok"
        assert validator_chain.contract(relay_id).observed_height == 3

    def test_run_from_another_header_reverts(self, chain):
        grow(chain, 2, start=1.0)
        deploy = deploy_counter_like_witness(chain, timestamp=3.0)
        grow(chain, 2)
        validator_chain, relay_id, submit = self._relay(
            chain, deploy.message_id(), anchor=chain.block_at_height(2).header
        )
        receipt = submit(build_publication_evidence(chain, deploy))
        assert receipt.status == "reverted" and "not anchored" in receipt.error
        assert validator_chain.contract(relay_id).state == "S1"

    def test_satisfied_relay_refuses_more_evidence(self, chain):
        deploy = deploy_counter_like_witness(chain)
        grow(chain, 3)
        validator_chain, relay_id, submit = self._relay(chain, deploy.message_id())
        evidence = build_publication_evidence(chain, deploy)
        assert submit(evidence).status == "ok"
        receipt = submit(evidence, timestamp=3.0)
        assert receipt.status == "reverted" and "already satisfied" in receipt.error
        assert validator_chain.contract(relay_id).observed_height == evidence.height


# ---------------------------------------------------------------------------
# The rule, generated: one verdict from both entry points
# ---------------------------------------------------------------------------

#: Mutations of an honest evidence.  Unmutated evidence is accepted iff
#: it is deep enough; every mutation must be rejected.
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
STATE_ONLY = {"wrong-contract", "wrong-state", "non-authorizing-function", "reverted-call"}


@functools.lru_cache(maxsize=None)
def _world(pre: int, post: int):
    """A chain with ``pre`` empty blocks, an ``SCw`` deploy, its
    ``authorize_refund`` (ok), then one block holding a second
    ``authorize_refund`` (reverted) and a ``verify_contracts`` (ok, not
    authorizing), then ``post`` empty blocks — plus a foreign chain of
    the same height."""
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
    return SimpleNamespace(
        chain=chain, other=other, deploy=deploy, scw=scw, refund=refund,
        reverted=reverted, plain=plain,
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
    """``verify_evidence`` and ``validate`` are two routes to one verdict
    (Section 4.3): same accept/reject, same claim, and no exception out
    of ``validate``, whatever is submitted."""

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_both_entry_points_one_verdict(self, mutation, data):
        case = data.draw(evidence_cases(mutation))
        world, evidence, min_depth = case.world, case.evidence, case.min_depth
        anchors = {"testnet": case.anchor, "othernet": world.other.block_at_height(0).header}
        verdicts = {"anchor": validate(evidence, anchors, min_depth)}
        if case.mutation != "not-an-evidence":
            try:
                verdicts["pure"] = verify_evidence(evidence, case.anchor, min_depth)
            except EvidenceError:
                verdicts["pure"] = None
        expected = case.claim if case.deep and case.mutation == "none" else None
        for name, verdict in verdicts.items():
            assert verdict == expected, (name, case.mutation)

    @given(case=evidence_cases("none"))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_verdict_memo_is_per_anchor_and_depth(self, case):
        """One evidence instance, asked under two depths and two anchors:
        the verdict memo must not answer one question with another's."""
        anchors = {"testnet": case.anchor}
        stranger = {"testnet": case.world.other.block_at_height(0).header}
        assert validate(case.honest, anchors, case.depth) == case.claim
        assert validate(case.honest, anchors, case.depth + 1) is None
        assert validate(case.honest, stranger, case.depth) is None
        assert validate(case.honest, anchors, case.depth) == case.claim


def _identifiers(path: Path) -> set[str]:
    with path.open("rb") as handle:
        return {t.string for t in tokenize.tokenize(handle.readline) if t.type == tokenize.NAME}


def test_each_decision_is_written_once():
    """Structural: the copies this module used to keep apart are gone,
    one function validates an evidence, and no chain carries a validator
    registry for it."""
    package = Path(repro.__file__).parent
    source = "".join(path.read_text() for path in sorted((package / "core").glob("*.py")))
    assert source.count('receipt_leaf(message_id, "ok")') == 1
    assert source.count("AUTHORIZING_FUNCTIONS.get(") == 1
    assert "ctx.validators is not None" not in source
    tree = ast.parse((package / "core" / "evidence.py").read_text())
    entry_points = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("validate", "included")
    ]
    assert entry_points == ["validate"]
    assert validate.__module__ == "repro.core.evidence" and "." not in validate.__qualname__
    for path in sorted((package / "chain").glob("*.py")):
        assert "validators" not in _identifiers(path), path.name
