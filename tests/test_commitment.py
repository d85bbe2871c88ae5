"""Tests for Section 3's commitment schemes (the redemption/refund locks)
as each contract checks them: ``HTLCContract`` opens on the preimage of
its hashlock, AC3TW's ``CentralizedSC`` on Trent's signature over
``(ms(D), RD)`` or ``(ms(D), RF)``, and AC3WN's ``PermissionlessSC`` on
``(SCw, d)``: evidence that ``SCw`` is in ``RDauth`` / ``RFauth``, buried
``d`` deep in the witness chain it names."""

from types import SimpleNamespace

import pytest

from repro.chain.block import encode_time
from repro.core.ac3tw import CentralizedSC
from repro.core.ac3wn import PermissionlessSC
from repro.core.evidence import build_publication_evidence, build_state_evidence
from repro.core.htlc import HTLCContract
from repro.crypto.commitment import CommitmentPurpose, witness_statement_digest
from repro.crypto.hashing import hashlock
from repro.crypto.keys import KeyPair
from tests.test_evidence import authorize_refund, deploy_counter_like_witness, grow
from tests.test_htlc import deploy_htlc


class TestHashlockCommitment:
    def setup_method(self):
        self.contract = HTLCContract()
        self.contract.hashlock = hashlock(b"s")
        self.contract.timelock_ticks = encode_time(100.0)
        self.ctx = SimpleNamespace(block_time=1.0)

    def test_correct_secret_opens(self):
        assert self.contract.is_redeemable(self.ctx, b"s")

    def test_wrong_secret_fails(self):
        assert not self.contract.is_redeemable(self.ctx, b"t")

    def test_non_bytes_secret_fails(self):
        for secret in ("s", None, 12345):
            assert not self.contract.is_redeemable(self.ctx, secret)

    def test_from_secret_matches_manual_lock(self, chain):
        contract = chain.contract(deploy_htlc(chain, secret=b"s").contract_id())
        assert contract.hashlock == hashlock(b"s")
        assert contract.is_redeemable(self.ctx, b"s")

    def test_bytearray_secret_accepted(self):
        assert self.contract.is_redeemable(self.ctx, bytearray(b"s"))


class TestSignatureCommitment:
    def setup_method(self):
        self.trent = KeyPair.from_seed("trent")
        self.ms_id = b"\x11" * 32

    def _contract(self, ms_id=None, witness=None):
        contract = CentralizedSC()
        contract.ms_id = self.ms_id if ms_id is None else ms_id
        contract.witness_key_raw = (witness or self.trent).public_key.to_bytes()
        return contract

    def _sign(self, purpose, ms_id=None, witness=None):
        digest = witness_statement_digest(self.ms_id if ms_id is None else ms_id, purpose)
        return (witness or self.trent).sign(digest)

    def test_witness_signature_opens(self):
        contract = self._contract()
        assert contract.is_redeemable(None, self._sign(CommitmentPurpose.REDEEM))
        assert contract.is_refundable(None, self._sign(CommitmentPurpose.REFUND))

    def test_purposes_are_mutually_exclusive(self):
        contract = self._contract()
        redeem_sig = self._sign(CommitmentPurpose.REDEEM)
        refund_sig = self._sign(CommitmentPurpose.REFUND)
        assert not contract.is_refundable(None, redeem_sig)
        assert not contract.is_redeemable(None, refund_sig)

    def test_other_witness_signature_fails(self):
        mallory = KeyPair.from_seed("mallory")
        forged = self._sign(CommitmentPurpose.REDEEM, witness=mallory)
        assert not self._contract().is_redeemable(None, forged)
        assert self._contract(witness=mallory).is_redeemable(None, forged)

    def test_other_ms_id_fails(self):
        signature = self._sign(CommitmentPurpose.REDEEM, ms_id=b"\x22" * 32)
        assert not self._contract().is_redeemable(None, signature)

    def test_non_signature_secret_fails(self):
        contract = self._contract()
        for secret in (b"not-a-signature", None, 12345, self.ms_id):
            assert not contract.is_redeemable(None, secret)
            assert not contract.is_refundable(None, secret)

    def test_statement_digest_distinguishes_purposes(self):
        assert witness_statement_digest(
            self.ms_id, CommitmentPurpose.REDEEM
        ) != witness_statement_digest(self.ms_id, CommitmentPurpose.REFUND)


class TestContractStateCommitment:
    @pytest.fixture
    def refund(self, chain):
        """An ``SCw`` moved to ``RFauth`` on ``chain``, buried two deep,
        and the state evidence of it."""
        scw = deploy_counter_like_witness(chain)
        call = authorize_refund(chain, scw.contract_id())
        grow(chain, 1)
        evidence = build_state_evidence(chain, scw.contract_id(), call, "RFauth")
        return SimpleNamespace(chain=chain, scw=scw, evidence=evidence)

    @staticmethod
    def _contract(refund, witness_chain_id=None, witness_contract_id=None, min_depth=2):
        contract = PermissionlessSC()
        contract.witness_chain_id = witness_chain_id or refund.chain.params.chain_id
        contract.witness_contract_id = witness_contract_id or refund.scw.contract_id()
        contract.witness_min_depth = min_depth
        contract.witness_anchor = refund.chain.block_at_height(0).header
        return contract

    def test_structural_claims_match(self, refund):
        assert self._contract(refund).is_refundable(None, refund.evidence)

    def test_wrong_state_rejected(self, refund):
        assert not self._contract(refund).is_redeemable(None, refund.evidence)

    def test_wrong_contract_rejected(self, refund):
        contract = self._contract(refund, witness_contract_id=b"\x02" * 32)
        assert not contract.is_refundable(None, refund.evidence)

    def test_wrong_chain_rejected(self, refund):
        contract = self._contract(refund, witness_chain_id="other")
        assert not contract.is_refundable(None, refund.evidence)

    def test_shallow_evidence_rejected(self, refund):
        """The ``d`` of ``(SCw, d)``: the decision two deep opens a
        contract asking for two, not one asking for three."""
        contract = self._contract(refund, min_depth=3)
        assert not contract.is_refundable(None, refund.evidence)

    def test_secret_without_claims_rejected(self, refund):
        contract = self._contract(refund)
        publication = build_publication_evidence(refund.chain, refund.scw)
        for secret in (b"opaque", None, publication):
            assert not contract.is_refundable(None, secret)
            assert not contract.is_redeemable(None, secret)
