"""Tests for the atomic-swap template (Algorithm 1) and the HTLC."""

import pytest

from repro.chain.block import encode_time
from repro.chain.messages import CallMessage, DeployMessage, sign_message
from repro.crypto.hashing import hashlock
from repro.errors import ContractRequireError
from tests.conftest import ALICE, BOB, MINER
from tests.test_contracts_runtime import funding_for


def deploy_htlc(chain, value=500, timelock=100.0, secret=b"s3cret", sender=ALICE,
                recipient=BOB, timestamp=1.0):
    inputs, change = funding_for(chain, sender, value + 10)
    msg = sign_message(
        DeployMessage(
            sender=sender.public_key,
            contract_class="HTLC",
            args=(recipient.address.raw, hashlock(secret), encode_time(timelock)),
            value=value,
            fee=10,
            inputs=inputs,
            change=change,
        ),
        sender,
    )
    chain.add_block(chain.make_block([msg], MINER.address, timestamp))
    return msg


def call(chain, contract_id, function, args, sender, timestamp, fee=5):
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


class TestHTLCDeploy:
    def test_initial_state_published(self, chain):
        msg = deploy_htlc(chain)
        contract = chain.contract(msg.contract_id())
        assert contract.state == "P"
        assert contract.asset == 500
        assert contract.sender == ALICE.address
        assert contract.recipient == BOB.address

    def test_expired_timelock_rejected_at_deploy(self, chain):
        with pytest.raises(Exception):
            deploy_htlc(chain, timelock=0.5, timestamp=1.0)

    def test_bad_hashlock_length_rejected(self, chain):
        inputs, change = funding_for(chain, ALICE, 510)
        msg = sign_message(
            DeployMessage(
                sender=ALICE.public_key,
                contract_class="HTLC",
                args=(BOB.address.raw, b"short", encode_time(100.0)),
                value=500,
                fee=10,
                inputs=inputs,
                change=change,
            ),
            ALICE,
        )
        with pytest.raises(ContractRequireError):
            chain.state_at().clone().apply_message(msg, chain.params, 1, 1.0)


class TestHTLCRedeem:
    def test_redeem_with_secret(self, chain):
        deploy = deploy_htlc(chain, secret=b"opensesame")
        before = chain.balance_of(BOB.address)
        call(chain, deploy.contract_id(), "redeem", (b"opensesame",), BOB, 2.0)
        contract = chain.contract(deploy.contract_id())
        assert contract.state == "RD"
        assert contract.revealed_secret == b"opensesame"
        assert chain.balance_of(BOB.address) == before + 500 - 5

    def test_wrong_secret_reverts(self, chain):
        deploy = deploy_htlc(chain, secret=b"right")
        msg = call(chain, deploy.contract_id(), "redeem", (b"wrong",), BOB, 2.0)
        assert chain.receipt(msg.message_id()).status == "reverted"
        assert chain.contract(deploy.contract_id()).state == "P"

    def test_redeem_after_timelock_reverts(self, chain):
        deploy = deploy_htlc(chain, secret=b"s", timelock=5.0)
        msg = call(chain, deploy.contract_id(), "redeem", (b"s",), BOB, 6.0)
        assert chain.receipt(msg.message_id()).status == "reverted"

    def test_double_redeem_reverts(self, chain):
        deploy = deploy_htlc(chain, secret=b"s")
        call(chain, deploy.contract_id(), "redeem", (b"s",), BOB, 2.0)
        msg = call(chain, deploy.contract_id(), "redeem", (b"s",), BOB, 3.0)
        assert chain.receipt(msg.message_id()).status == "reverted"

    def test_anyone_can_trigger_but_funds_go_to_recipient(self, chain):
        """The caller does not matter; the contract pays its recipient."""
        deploy = deploy_htlc(chain, secret=b"s")
        bob_before = chain.balance_of(BOB.address)
        call(chain, deploy.contract_id(), "redeem", (b"s",), ALICE, 2.0)
        assert chain.balance_of(BOB.address) == bob_before + 500


class TestHTLCRefund:
    def test_refund_after_expiry(self, chain):
        deploy = deploy_htlc(chain, timelock=5.0)
        alice_before = chain.balance_of(ALICE.address)
        call(chain, deploy.contract_id(), "refund", (b"",), ALICE, 6.0)
        contract = chain.contract(deploy.contract_id())
        assert contract.state == "RF"
        assert chain.balance_of(ALICE.address) == alice_before + 500 - 5

    def test_refund_before_expiry_reverts(self, chain):
        deploy = deploy_htlc(chain, timelock=50.0)
        msg = call(chain, deploy.contract_id(), "refund", (b"",), ALICE, 2.0)
        assert chain.receipt(msg.message_id()).status == "reverted"
        assert chain.contract(deploy.contract_id()).state == "P"

    def test_refund_after_redeem_reverts(self, chain):
        deploy = deploy_htlc(chain, secret=b"s", timelock=5.0)
        call(chain, deploy.contract_id(), "redeem", (b"s",), BOB, 2.0)
        msg = call(chain, deploy.contract_id(), "refund", (b"",), ALICE, 6.0)
        assert chain.receipt(msg.message_id()).status == "reverted"
        assert chain.contract(deploy.contract_id()).state == "RD"

    def test_redeem_after_refund_reverts(self, chain):
        """Algorithm 1's state machine: RD and RF are terminal."""
        deploy = deploy_htlc(chain, secret=b"s", timelock=5.0)
        call(chain, deploy.contract_id(), "refund", (b"",), ALICE, 6.0)
        msg = call(chain, deploy.contract_id(), "redeem", (b"s",), BOB, 7.0)
        assert chain.receipt(msg.message_id()).status == "reverted"
        assert chain.contract(deploy.contract_id()).state == "RF"


class TestHTLCRaceWindow:
    def test_timelock_creates_the_papers_race(self, chain):
        """The core weakness: once t expires, refund wins even though the
        recipient's redeem was merely *delayed*, not wrong."""
        deploy = deploy_htlc(chain, secret=b"s", timelock=5.0)
        # Bob's redeem arrives late (crash / partition) at t=6.
        late_redeem = call(chain, deploy.contract_id(), "redeem", (b"s",), BOB, 6.0)
        assert chain.receipt(late_redeem.message_id()).status == "reverted"
        call(chain, deploy.contract_id(), "refund", (b"",), ALICE, 7.0)
        assert chain.contract(deploy.contract_id()).state == "RF"
