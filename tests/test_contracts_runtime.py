"""Tests for the smart-contract runtime: deploys, calls, reverts, fees."""

import pytest

from repro.chain.contracts import (
    DEFAULT_REGISTRY,
    ContractRegistry,
    SmartContract,
    register_contract,
    requires,
)
from repro.chain.messages import CallMessage, DeployMessage, sign_message
from repro.chain.transaction import TxInput, TxOutput
from repro.errors import ContractError, FeeError, UnknownContractError, ValidationError
from tests.conftest import ALICE, BOB, MINER

# This module is importable both as ``test_contracts_runtime`` (pytest
# collection) and as ``tests.test_contracts_runtime`` (helper imports from
# other test files), so the module body can execute twice.  Unregistering
# first keeps the class registration idempotent across the two copies.
DEFAULT_REGISTRY.unregister("DemoVault")


@register_contract
class Vault(SmartContract):
    """Test contract: lock value, release on demand, guarded ops."""

    CLASS_NAME = "DemoVault"

    def constructor(self, ctx, beneficiary_raw: bytes):
        from repro.crypto.keys import Address

        self.beneficiary = Address(beneficiary_raw)
        self.withdrawals = 0

    def withdraw(self, ctx, amount: int):
        requires(amount > 0, "amount must be positive")
        requires(amount <= self.balance, "insufficient vault balance")
        ctx.transfer(self.beneficiary, amount)
        self.withdrawals += 1

    def explode(self, ctx):
        requires(False, "always fails")

    def _hidden(self, ctx):  # pragma: no cover - must be unreachable
        raise AssertionError("private function was invoked")


def funding_for(chain, keypair, amount):
    """Pick outpoints covering ``amount``; return (inputs, change)."""
    state = chain.state_at()
    chosen, total = [], 0
    for op in state.utxos.outpoints_of(keypair.address):
        chosen.append(TxInput(op))
        total += state.utxos.get(op).value
        if total >= amount:
            break
    assert total >= amount, "test fixture underfunded"
    change = (TxOutput(keypair.address, total - amount),) if total > amount else ()
    return tuple(chosen), change


def deploy_vault(chain, value=1000, fee=10, sender=ALICE, beneficiary=BOB):
    inputs, change = funding_for(chain, sender, value + fee)
    msg = DeployMessage(
        sender=sender.public_key,
        contract_class="DemoVault",
        args=(beneficiary.address.raw,),
        value=value,
        fee=fee,
        inputs=inputs,
        change=change,
    )
    msg = sign_message(msg, sender)
    chain.add_block(chain.make_block([msg], MINER.address, 1.0))
    return msg


def call_vault(chain, contract_id, function, args, sender=BOB, fee=5, timestamp=2.0):
    inputs, change = funding_for(chain, sender, fee)
    msg = CallMessage(
        sender=sender.public_key,
        contract_id=contract_id,
        function=function,
        args=args,
        fee=fee,
        inputs=inputs,
        change=change,
        nonce=int(timestamp * 1000),
    )
    msg = sign_message(msg, sender)
    chain.add_block(chain.make_block([msg], MINER.address, timestamp))
    return msg


class TestDeployment:
    def test_deploy_locks_value(self, chain):
        msg = deploy_vault(chain, value=1000)
        contract = chain.contract(msg.contract_id())
        assert contract.balance == 1000
        assert contract.owner == ALICE.address

    def test_constructor_ran(self, chain):
        msg = deploy_vault(chain)
        assert chain.contract(msg.contract_id()).beneficiary == BOB.address

    def test_deploy_spends_funding(self, chain):
        before = chain.balance_of(ALICE.address)
        deploy_vault(chain, value=1000, fee=10)
        assert chain.balance_of(ALICE.address) == before - 1010

    def test_deploy_fee_to_miner(self, chain):
        deploy_vault(chain, fee=10)
        assert chain.balance_of(MINER.address) == 10

    def test_unsigned_deploy_rejected(self, chain):
        inputs, change = funding_for(chain, ALICE, 10)
        msg = DeployMessage(
            sender=ALICE.public_key,
            contract_class="DemoVault",
            args=(BOB.address.raw,),
            value=0,
            fee=10,
            inputs=inputs,
            change=change,
        )
        with pytest.raises(ValidationError):
            chain.state_at().clone().apply_message(msg, chain.params, 1, 1.0)

    def test_underfunded_deploy_rejected(self, chain):
        msg = DeployMessage(
            sender=ALICE.public_key,
            contract_class="DemoVault",
            args=(BOB.address.raw,),
            value=100,
            fee=10,
            inputs=(),
            change=(),
        )
        msg = sign_message(msg, ALICE)
        with pytest.raises(FeeError):
            chain.state_at().clone().apply_message(msg, chain.params, 1, 1.0)

    def test_unknown_class_rejected(self, chain):
        inputs, change = funding_for(chain, ALICE, 10)
        msg = sign_message(
            DeployMessage(
                sender=ALICE.public_key,
                contract_class="NoSuchClass",
                args=(),
                value=0,
                fee=10,
                inputs=inputs,
                change=change,
            ),
            ALICE,
        )
        with pytest.raises(ContractError):
            chain.state_at().clone().apply_message(msg, chain.params, 1, 1.0)


class TestCalls:
    def test_successful_call_transfers(self, chain):
        deploy = deploy_vault(chain, value=1000)
        before = chain.balance_of(BOB.address)
        call_vault(chain, deploy.contract_id(), "withdraw", (400,))
        assert chain.balance_of(BOB.address) == before + 400 - 5  # minus fee
        assert chain.contract(deploy.contract_id()).balance == 600

    def test_revert_preserves_state(self, chain):
        deploy = deploy_vault(chain, value=1000)
        call = call_vault(chain, deploy.contract_id(), "withdraw", (5000,))
        receipt = chain.receipt(call.message_id())
        assert receipt.status == "reverted"
        assert chain.contract(deploy.contract_id()).balance == 1000
        assert chain.contract(deploy.contract_id()).withdrawals == 0

    def test_revert_still_charges_fee(self, chain):
        deploy = deploy_vault(chain, value=1000, fee=10)
        call_vault(chain, deploy.contract_id(), "explode", (), fee=5)
        assert chain.balance_of(MINER.address) == 15

    def test_call_unknown_contract_rejected(self, chain):
        with pytest.raises(UnknownContractError):
            call_vault(chain, b"\x00" * 32, "withdraw", (1,))

    def test_private_function_not_callable(self, chain):
        deploy = deploy_vault(chain)
        with pytest.raises(ContractError):
            call_vault(chain, deploy.contract_id(), "_hidden", ())

    def test_reserved_name_not_callable(self, chain):
        deploy = deploy_vault(chain)
        with pytest.raises(ContractError):
            call_vault(chain, deploy.contract_id(), "constructor", ())

    def test_payable_call_increases_balance(self, chain):
        deploy = deploy_vault(chain, value=100)
        inputs, change = funding_for(chain, BOB, 55)
        msg = sign_message(
            CallMessage(
                sender=BOB.public_key,
                contract_id=deploy.contract_id(),
                function="withdraw",
                args=(0,),  # reverts (amount must be positive)…
                value=50,
                fee=5,
                inputs=inputs,
                change=change,
            ),
            BOB,
        )
        chain.add_block(chain.make_block([msg], MINER.address, 2.0))
        # …so the attached value is refunded to Bob, not kept.
        assert chain.contract(deploy.contract_id()).balance == 100

    def test_events_recorded_in_receipt(self, chain, scoped_registry):
        @register_contract
        class Emitter(SmartContract):
            CLASS_NAME = "DemoEmitter"

            def ping(self, ctx):
                ctx.emit("pinged", by=str(ctx.sender))

        inputs, change = funding_for(chain, ALICE, 10)
        deploy = sign_message(
            DeployMessage(
                sender=ALICE.public_key,
                contract_class="DemoEmitter",
                args=(),
                fee=10,
                inputs=inputs,
                change=change,
            ),
            ALICE,
        )
        chain.add_block(chain.make_block([deploy], MINER.address, 1.0))
        call = call_vault(chain, deploy.contract_id(), "ping", ())
        receipt = chain.receipt(call.message_id())
        assert receipt.events[0][0] == "pinged"


class TestRegistry:
    def test_duplicate_name_rejected(self):
        registry = ContractRegistry()

        class A(SmartContract):
            CLASS_NAME = "Dup"

        class B(SmartContract):
            CLASS_NAME = "Dup"

        registry.register(A)
        with pytest.raises(ContractError):
            registry.register(B)

    def test_reregistering_same_class_ok(self):
        registry = ContractRegistry()

        class A(SmartContract):
            CLASS_NAME = "Same"

        registry.register(A)
        registry.register(A)

    def test_missing_class_name_rejected(self):
        registry = ContractRegistry()

        class NoName(SmartContract):
            pass

        with pytest.raises(ContractError):
            registry.register(NoName)

    def test_resolve_unknown_raises(self):
        with pytest.raises(ContractError):
            ContractRegistry().resolve("ghost")


# ---------------------------------------------------------------------------
# Contract code is total: hostile messages revert or are dropped
# ---------------------------------------------------------------------------

#: ``authorize_redeem`` argument tuples any funded user can send to a
#: live ``SCw`` -> what the reverted receipt's error must mention.
HOSTILE_CALLS = {
    "evidence-is-an-int-pair": (((1, 2),), "contract verification failed"),
    "evidence-is-none": (((None,),), "contract verification failed"),
    "evidences-is-a-string": (("abc",), "contract verification failed"),
    "no-arguments": ((), "TypeError"),
    "one-argument-too-many": (((), 5), "TypeError"),
}

#: (target chain, contract class, constructor args) of deploys whose
#: constructor raises something other than a ``requires`` failure.
HOSTILE_DEPLOYS = {
    "witness-two-byte-key": ("witness", "AC3WN-Witness", ((b"xx",), None, b"", (), ())),
    "witness-no-arguments": ("witness", "AC3WN-Witness", ()),
    "permissionless-one-argument": ("a", "AC3-PermissionlessSC", (b"\x00" * 20,)),
    "centralized-all-none": ("a", "AC3-CentralizedSC", (None, None, None)),
}


class TestHostileMessages:
    """One message from any funded user must never halt a chain.

    Every row raised out of ``MinerNode._mine_once`` (and so out of
    ``Simulator.step``) before the runtime guard, which killed the
    miner's reschedule: the target chain stopped growing for good.
    """

    @staticmethod
    def _world(anchored=False):
        """A two-party world with a live, undecided ``SCw`` (storing
        chain ``a``'s genesis as its relay anchor if ``anchored``)."""
        from repro.core.ac3wn import EdgeSpec
        from repro.workloads.graphs import two_party_swap
        from repro.workloads.scenarios import build_scenario

        graph = two_party_swap(chain_a="a", chain_b="b", timestamp=1)
        env = build_scenario(graph=graph, seed=19)
        env.warm_up(2)
        alice = env.participant("alice")
        keypairs = {n: env.participant(n).keypair for n in graph.participant_names()}
        specs = tuple(
            EdgeSpec(e.chain_id, b"\x00" * 20, b"\x01" * 20, e.amount, 1)
            for e in graph.edges
        )
        scw = alice.deploy_contract(
            "witness",
            "AC3WN-Witness",
            args=(
                tuple(key.to_bytes() for _, key in graph.participants),
                graph.multisign(keypairs),
                graph.digest(),
                specs,
                (("a", env.chain("a").block_at_height(0).header),) if anchored else (),
            ),
        )
        witness = env.chain("witness")
        env.simulator.run_until_true(
            lambda: witness.has_contract(scw.contract_id()), timeout=10.0
        )
        assert witness.contract(scw.contract_id()).state == "P"
        return env, scw.contract_id()

    @staticmethod
    def _survives(env, scw_id, chain_id, message, kind):
        """The assertions every row shares."""
        from repro.core.ac3wn import run_ac3wn
        from repro.workloads.graphs import two_party_swap

        chain = env.chain(chain_id)
        before = chain.height
        env.simulator.run_until(env.simulator.now + 5.0)  # raised before the guard
        assert chain.height >= before + 3
        message_id = message.message_id()
        if kind == "call":
            assert chain.receipt(message_id).status == "reverted"
        else:
            assert chain.find_message(message_id) is None
            assert message_id not in env.mempools[chain_id]
        assert env.chain("witness").contract(scw_id).state == "P"
        honest = two_party_swap(chain_a="a", chain_b="b", timestamp=2)
        assert run_ac3wn(env, honest, "witness").decision == "commit"

    @pytest.mark.parametrize("row", sorted(HOSTILE_CALLS))
    def test_hostile_call_reverts(self, row):
        args, error = HOSTILE_CALLS[row]
        env, scw_id = self._world()
        call = env.participant("bob").call_contract(
            "witness", scw_id, "authorize_redeem", args
        )
        self._survives(env, scw_id, "witness", call, "call")
        receipt = env.chain("witness").receipt(call.message_id())
        assert error in receipt.error
        assert receipt.fee_paid == call.fee  # the caller still pays

    @pytest.mark.parametrize("row", sorted(HOSTILE_DEPLOYS))
    def test_hostile_deploy_is_dropped(self, row):
        chain_id, contract_class, args = HOSTILE_DEPLOYS[row]
        env, scw_id = self._world()
        deploy = env.participant("bob").deploy_contract(chain_id, contract_class, args)
        self._survives(env, scw_id, chain_id, deploy, "deploy")

    def test_negative_height_evidence(self):
        """Well-typed evidence with ``height=-1``, anchored where ``SCw``
        stored its anchor, must come out of ``validate`` as None and
        revert the call, not raise out of the witness chain's miner."""
        from dataclasses import replace

        from repro.core.evidence import build_publication_evidence

        env, scw_id = self._world(anchored=True)
        bob = env.participant("bob")
        vault = bob.deploy_contract("a", "DemoVault", (bob.address.raw,))
        env.simulator.run_until_true(
            lambda: env.chain("a").find_message(vault.message_id()) is not None,
            timeout=10.0,
        )
        evidence = build_publication_evidence(env.chain("a"), vault)
        call = bob.call_contract(
            "witness", scw_id, "authorize_redeem", ((replace(evidence, height=-1),),)
        )
        self._survives(env, scw_id, "witness", call, "call")
