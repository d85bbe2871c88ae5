"""Unit tests for the AC3WN contracts (Algorithms 3 and 4)."""

import pytest
from dataclasses import replace

from repro.chain.chain import Blockchain
from repro.chain.messages import CallMessage, DeployMessage, sign_message
from repro.chain.params import fast_chain
from repro.core.ac3wn import EdgeSpec, WitnessState
from repro.core.evidence import build_publication_evidence, build_state_evidence, validate
from repro.crypto import ecdsa
from repro.crypto.keys import KeyPair
from repro.errors import ContractRequireError, ValidationError
from repro.workloads.graphs import two_party_swap
from tests.conftest import ALICE, BOB, MINER
from tests.test_contracts_runtime import funding_for

GRAPH = two_party_swap(chain_a="testnet", chain_b="testnet")
KEYPAIRS = {
    name: KeyPair.from_seed(f"participant/{name}")
    for name in GRAPH.participant_names()
}
ALICE_P = KEYPAIRS["alice"]
BOB_P = KEYPAIRS["bob"]


def graph_keys():
    return tuple(key.to_bytes() for _, key in GRAPH.participants)


def edge_specs(min_depth=1):
    keys = GRAPH.participant_keys()
    return tuple(
        EdgeSpec(
            chain_id=e.chain_id,
            sender_raw=keys[e.source].address().raw,
            recipient_raw=keys[e.recipient].address().raw,
            amount=e.amount,
            min_depth=min_depth,
        )
        for e in GRAPH.edges
    )


def deploy_witness(chain, anchors=(), ms=None, digest=None, timestamp=1.0, keys=None):
    ms = ms if ms is not None else GRAPH.multisign(KEYPAIRS)
    digest = digest if digest is not None else GRAPH.digest()
    inputs, change = funding_for(chain, ALICE, 10)
    msg = sign_message(
        DeployMessage(
            sender=ALICE.public_key,
            contract_class="AC3WN-Witness",
            args=(keys or graph_keys(), ms, digest, edge_specs(), tuple(anchors)),
            fee=10,
            inputs=inputs,
            change=change,
        ),
        ALICE,
    )
    chain.add_block(chain.make_block([msg], MINER.address, timestamp))
    return msg


def call_contract(chain, contract_id, function, args, sender, timestamp, fee=5):
    inputs, change = funding_for(chain, sender, fee)
    msg = sign_message(
        CallMessage(
            sender=sender.public_key,
            contract_id=contract_id,
            function=function,
            args=args,
            fee=fee,
            inputs=inputs,
            change=change,
            nonce=int(timestamp * 1000),
        ),
        sender,
    )
    chain.add_block(chain.make_block([msg], MINER.address, timestamp))
    return msg


def grow(chain, blocks, start=10.0):
    for i in range(blocks):
        chain.add_block(chain.make_block([], MINER.address, start + i))


class TestWitnessConstructor:
    def test_valid_registration(self, chain):
        deploy = deploy_witness(chain)
        scw = chain.contract(deploy.contract_id())
        assert scw.state == WitnessState.PUBLISHED

    def test_incomplete_multisig_rejected(self, chain):
        from repro.crypto.signatures import Multisignature

        full = GRAPH.multisign(KEYPAIRS)
        partial = Multisignature(full.digest, full.signatures[:1])
        with pytest.raises(Exception):
            deploy_witness(chain, ms=partial)

    def test_digest_mismatch_rejected(self, chain):
        with pytest.raises(Exception):
            deploy_witness(chain, digest=b"\x00" * 32)

    def test_participant_keys_are_compared_as_bytes_never_decoded(self, chain, monkeypatch):
        decoded = []
        monkeypatch.setattr(ecdsa, "decompress_point", lambda data: decoded.append(data))
        deploy = deploy_witness(chain)
        assert chain.contract(deploy.contract_id()).participant_keys == graph_keys()
        assert decoded == []

    @pytest.mark.parametrize(
        "extra",
        [b"\x02" + b"\xff" * 32, b"\x05" + b"\x01" * 32, b"xx", b""],
        ids=["x-beyond-p", "bad-prefix", "two-bytes", "empty"],
    )
    def test_a_key_that_is_no_curve_point_fails(self, chain, extra):
        # ms(D) is complete for the graph's keys; the extra name is no
        # verified signer's compression, so registration fails.
        with pytest.raises(ValidationError, match="multisignature incomplete or invalid"):
            deploy_witness(chain, keys=graph_keys() + (extra,))
        assert chain.height == 0


class TestWitnessStateMachine:
    def test_refund_authorization(self, chain):
        deploy = deploy_witness(chain)
        call_contract(chain, deploy.contract_id(), "authorize_refund", (), BOB, 2.0)
        assert chain.contract(deploy.contract_id()).state == WitnessState.REFUND_AUTHORIZED

    def test_refund_then_redeem_impossible(self, chain):
        deploy = deploy_witness(chain)
        call_contract(chain, deploy.contract_id(), "authorize_refund", (), BOB, 2.0)
        msg = call_contract(
            chain, deploy.contract_id(), "authorize_redeem", ((),), BOB, 3.0
        )
        assert chain.receipt(msg.message_id()).status == "reverted"
        assert chain.contract(deploy.contract_id()).state == WitnessState.REFUND_AUTHORIZED

    def test_double_refund_reverts(self, chain):
        deploy = deploy_witness(chain)
        call_contract(chain, deploy.contract_id(), "authorize_refund", (), BOB, 2.0)
        msg = call_contract(chain, deploy.contract_id(), "authorize_refund", (), ALICE, 3.0)
        assert chain.receipt(msg.message_id()).status == "reverted"

    def test_redeem_requires_evidence(self, chain):
        deploy = deploy_witness(chain)
        msg = call_contract(
            chain, deploy.contract_id(), "authorize_redeem", ((),), BOB, 2.0
        )
        # No evidence for any edge: VerifyContracts fails, call reverts.
        assert chain.receipt(msg.message_id()).status == "reverted"
        assert chain.contract(deploy.contract_id()).state == WitnessState.PUBLISHED


class TestVerifyContractsEndToEnd:
    """Full in-chain flow on a single test chain serving as both the
    witness chain and the (sole) asset chain."""

    def _full_flow(self, chain, assets_on=None):
        """``assets_on``: publish the asset contracts on that chain
        instead (``SCw`` stores its genesis as a relay anchor too)."""
        anchor = chain.block_at_height(0).header
        anchors = [(chain.params.chain_id, anchor)]
        if assets_on is not None:
            anchors.append((assets_on.params.chain_id, assets_on.block_at_height(0).header))
        scw_deploy = deploy_witness(chain, anchors=anchors)
        witness_chain_id = chain.params.chain_id
        chain = assets_on or chain
        scw_id = scw_deploy.contract_id()
        keys = GRAPH.participant_keys()

        # Fund graph identities from the fixture accounts.
        from repro.chain.transaction import TxOutput, TxInput, Transaction, sign_transaction
        from repro.chain.messages import TransferMessage

        state = chain.state_at()
        op = state.utxos.outpoints_of(ALICE.address)[0]
        value = state.utxos.get(op).value
        tx = sign_transaction(
            Transaction(
                inputs=(TxInput(op),),
                outputs=(
                    TxOutput(ALICE_P.address, 5000),
                    TxOutput(BOB_P.address, 5000),
                    TxOutput(ALICE.address, value - 10_001),
                ),
            ),
            ALICE,
        )
        chain.add_block(chain.make_block([TransferMessage(tx)], MINER.address, 1.5))

        deploys = {}
        t = 2.0
        for edge in GRAPH.edges:
            kp = KEYPAIRS[edge.source]
            inputs, change = funding_for(chain, kp, edge.amount + 10)
            msg = sign_message(
                DeployMessage(
                    sender=kp.public_key,
                    contract_class="AC3-PermissionlessSC",
                    args=(
                        keys[edge.recipient].address().raw,
                        witness_chain_id,
                        scw_id,
                        1,
                        anchor,
                    ),
                    value=edge.amount,
                    fee=10,
                    inputs=inputs,
                    change=change,
                ),
                kp,
            )
            chain.add_block(chain.make_block([msg], MINER.address, t))
            deploys[edge] = msg
            t += 1.0
        grow(chain, 2, start=t)
        return scw_deploy, deploys, anchor

    def test_commit_flow(self, chain):
        scw_deploy, deploys, anchor = self._full_flow(chain)
        scw_id = scw_deploy.contract_id()
        evidences = tuple(
            build_publication_evidence(chain, d, anchor=anchor) for d in deploys.values()
        )
        auth = call_contract(
            chain, scw_id, "authorize_redeem", (evidences,), BOB, 20.0
        )
        assert chain.receipt(auth.message_id()).status == "ok"
        assert chain.contract(scw_id).state == WitnessState.REDEEM_AUTHORIZED
        grow(chain, 2, start=21.0)

        # Now redeem each asset contract with state evidence.
        state_ev = build_state_evidence(chain, scw_id, auth, "RDauth", anchor=anchor)
        for edge, deploy in deploys.items():
            redeem = call_contract(
                chain,
                deploy.contract_id(),
                "redeem",
                (state_ev,),
                BOB,
                25.0 + hash(edge.chain_id + edge.source) % 5 + 1,
            )
            assert chain.receipt(redeem.message_id()).status == "ok"
            assert chain.contract(deploy.contract_id()).state == "RD"

    def test_wrong_value_evidence_rejected(self, chain):
        """A contract locking the wrong amount must fail VerifyContracts."""
        scw_deploy, deploys, anchor = self._full_flow(chain)
        scw_id = scw_deploy.contract_id()
        evidences = list(
            build_publication_evidence(chain, d, anchor=anchor) for d in deploys.values()
        )
        # Drop one evidence: not all edges proven.
        auth = call_contract(
            chain, scw_id, "authorize_redeem", (tuple(evidences[:1]),), BOB, 20.0
        )
        assert chain.receipt(auth.message_id()).status == "reverted"

    def test_evidence_from_another_chain_satisfies_no_edge(self, chain):
        """An edge names its blockchain: the same contracts published on
        another (cheaper) chain, however well proven, are not its."""
        other = Blockchain(
            fast_chain("othernet"), [(ALICE.address, 100_000), (BOB.address, 100_000)]
        )
        scw_deploy, deploys, _ = self._full_flow(chain, assets_on=other)
        evidences = tuple(
            build_publication_evidence(other, d, anchor=other.block_at_height(0).header)
            for d in deploys.values()
        )
        anchors = {"othernet": other.block_at_height(0).header}
        assert all(validate(e, anchors, 1) == e.deploy for e in evidences)
        auth = call_contract(
            chain, scw_deploy.contract_id(), "authorize_redeem", (evidences,), BOB, 20.0
        )
        assert chain.receipt(auth.message_id()).status == "reverted"

    def test_refund_with_state_evidence(self, chain):
        scw_deploy, deploys, anchor = self._full_flow(chain)
        scw_id = scw_deploy.contract_id()
        auth = call_contract(chain, scw_id, "authorize_refund", (), BOB, 20.0)
        assert chain.receipt(auth.message_id()).status == "ok"
        grow(chain, 2, start=21.0)
        state_ev = build_state_evidence(chain, scw_id, auth, "RFauth", anchor=anchor)
        for edge, deploy in deploys.items():
            refund = call_contract(
                chain, deploy.contract_id(), "refund", (state_ev,), ALICE, 25.0
            )
            assert chain.receipt(refund.message_id()).status == "ok"
            assert chain.contract(deploy.contract_id()).state == "RF"

    def test_redeem_with_refund_evidence_rejected(self, chain):
        """Mutual exclusion at the asset contract: RFauth evidence cannot
        drive a redeem."""
        scw_deploy, deploys, anchor = self._full_flow(chain)
        scw_id = scw_deploy.contract_id()
        auth = call_contract(chain, scw_id, "authorize_refund", (), BOB, 20.0)
        grow(chain, 2, start=21.0)
        state_ev = build_state_evidence(chain, scw_id, auth, "RFauth", anchor=anchor)
        deploy = next(iter(deploys.values()))
        redeem = call_contract(
            chain, deploy.contract_id(), "redeem", (state_ev,), BOB, 25.0
        )
        assert chain.receipt(redeem.message_id()).status == "reverted"

    def test_insufficient_witness_depth_rejected(self, chain):
        scw_deploy, deploys, anchor = self._full_flow(chain)
        scw_id = scw_deploy.contract_id()
        auth = call_contract(chain, scw_id, "authorize_refund", (), BOB, 20.0)
        grow(chain, 2, start=21.0)
        state_ev = build_state_evidence(chain, scw_id, auth, "RFauth", anchor=anchor)
        # Truncate the header run so the authorizing call's inclusion
        # block is no longer covered: depth cannot be established.
        truncated = replace(state_ev, headers=state_ev.headers[: state_ev.height])
        deploy = next(iter(deploys.values()))
        refund = call_contract(
            chain, deploy.contract_id(), "refund", (truncated,), ALICE, 25.0
        )
        assert chain.receipt(refund.message_id()).status == "reverted"
