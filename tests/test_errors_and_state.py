"""Tests for the error hierarchy and chain-state invariants."""

import dataclasses

import pytest

from repro import errors
from repro.chain.block import Block
from repro.chain.pow import mine_header
from repro.chain.state import ChainState
from repro.crypto.merkle import MerkleTree
from repro.chain.messages import TransferMessage
from tests.conftest import ALICE, BOB, MINER, make_coinbase
from tests.test_chain import transfer_message


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        leaf_classes = [
            errors.InvalidSignatureError,
            errors.InvalidKeyError,
            errors.InvalidProofError,
            errors.CommitmentError,
            errors.DoubleSpendError,
            errors.InsufficientFundsError,
            errors.UnknownBlockError,
            errors.InvalidBlockError,
            errors.ContractRequireError,
            errors.UnknownContractError,
            errors.FeeError,
            errors.SchedulingError,
            errors.GraphError,
            errors.EvidenceError,
            errors.WitnessError,
        ]
        for cls in leaf_classes:
            assert issubclass(cls, errors.ReproError), cls

    def test_contract_errors_are_validation_errors(self):
        """Miners must be able to drop un-executable messages by catching
        ValidationError; a revert is a ContractError too but is consumed
        inside the runtime."""
        assert issubclass(errors.ContractError, errors.ValidationError)
        assert issubclass(errors.UnknownContractError, errors.ValidationError)
        assert issubclass(errors.DoubleSpendError, errors.ValidationError)
        assert issubclass(errors.FeeError, errors.ValidationError)

    def test_chain_vs_sim_vs_protocol_branches_disjoint(self):
        assert not issubclass(errors.ChainError, errors.SimulationError)
        assert not issubclass(errors.ProtocolError, errors.ChainError)
        assert not issubclass(errors.CryptoError, errors.ChainError)


class TestChainStateClone:
    def test_clone_isolates_utxos(self, chain):
        state = chain.state_at()
        clone = state.clone()
        msg = transfer_message(chain, ALICE, BOB, 100)
        clone.apply_message(msg, chain.params, 1, 1.0)
        # The original state is untouched.
        assert state.balance_of(BOB.address) == 100_000
        assert clone.balance_of(BOB.address) == 100_100

    def test_clone_isolates_contracts(self, chain):
        # Clones share contract instances copy-on-write: applying a call
        # to the clone must leave the original state's contract untouched.
        from repro.chain.messages import CallMessage, sign_message
        from tests.test_contracts_runtime import deploy_vault, funding_for

        deploy = deploy_vault(chain, value=500)
        state = chain.state_at()
        clone = state.clone()
        inputs, change = funding_for(chain, BOB, 5)
        call = sign_message(
            CallMessage(
                sender=BOB.public_key,
                contract_id=deploy.contract_id(),
                function="withdraw",
                args=(100,),
                fee=5,
                inputs=inputs,
                change=change,
            ),
            BOB,
        )
        clone.apply_message(call, chain.params, 2, 2.0)
        assert clone.contract(deploy.contract_id()).balance == 400
        assert state.contract(deploy.contract_id()).balance == 500

    def test_counters(self, chain):
        from tests.test_contracts_runtime import call_vault, deploy_vault

        deploy = deploy_vault(chain, value=100)
        call_vault(chain, deploy.contract_id(), "withdraw", (10,))
        state = chain.state_at()
        assert state.deploy_count == 1
        assert state.call_count == 1
        assert state.transfer_count == 0  # genesis coins are no transfers

    def test_replay_rejected(self, chain):
        state = chain.state_at().clone()
        transfer = transfer_message(chain, ALICE, BOB, 5)
        state.apply_message(transfer, chain.params, 1, 1.0)
        with pytest.raises(errors.ValidationError, match="replay"):
            state.apply_message(transfer, chain.params, 1, 1.0)

    def test_a_coinbase_is_refused_in_a_mined_block(self, chain):
        coinbase = TransferMessage(make_coinbase(ALICE.address, 0))
        with pytest.raises(errors.ValidationError, match="coinbase"):
            ChainState().apply_message(coinbase, chain.params, 1, 1.0)
        header = chain.make_block([], MINER.address, 1.0).header
        root = MerkleTree([coinbase.message_id()]).root()
        header = mine_header(dataclasses.replace(header, merkle_root=root))
        with pytest.raises(errors.InvalidBlockError, match="coinbase"):
            chain.add_block(Block(header, (coinbase,)))
        assert chain.height == 0 and chain.find_message(coinbase.message_id()) is None

    def test_fee_mint_conserves_value(self, chain):
        """Total UTXO value is invariant across blocks with fees."""
        supply_before = chain.state_at().utxos.total_value()
        for i in range(3):
            msg = transfer_message(chain, ALICE, BOB, 10 + i, fee=5)
            chain.add_block(chain.make_block([msg], MINER.address, float(i + 1)))
        assert chain.state_at().utxos.total_value() == supply_before
        assert chain.balance_of(MINER.address) == 15

    def test_fees_by_block_reach_correct_miner(self, chain):
        from repro.crypto.keys import KeyPair

        other_miner = KeyPair.from_seed("other-miner").address
        msg = transfer_message(chain, ALICE, BOB, 10, fee=7)
        chain.add_block(chain.make_block([msg], other_miner, 1.0))
        assert chain.balance_of(other_miner) == 7
        assert chain.balance_of(MINER.address) == 0
