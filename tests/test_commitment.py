"""Tests for commitment schemes (Section 3's redemption/refund locks)."""

from repro.crypto.commitment import (
    CommitmentPurpose,
    ContractStateCommitment,
    HashlockCommitment,
    SignatureCommitment,
    witness_statement_digest,
)
from repro.crypto.hashing import hashlock
from repro.crypto.keys import KeyPair


class TestHashlockCommitment:
    def test_correct_secret_opens(self):
        commitment = HashlockCommitment.from_secret(b"s")
        assert commitment.verify(b"s")

    def test_wrong_secret_fails(self):
        commitment = HashlockCommitment.from_secret(b"s")
        assert not commitment.verify(b"t")

    def test_non_bytes_secret_fails(self):
        commitment = HashlockCommitment.from_secret(b"s")
        assert not commitment.verify("s")
        assert not commitment.verify(None)
        assert not commitment.verify(12345)

    def test_from_secret_matches_manual_lock(self):
        assert HashlockCommitment.from_secret(b"s").lock == hashlock(b"s")

    def test_bytearray_secret_accepted(self):
        commitment = HashlockCommitment.from_secret(b"s")
        assert commitment.verify(bytearray(b"s"))


class TestSignatureCommitment:
    def setup_method(self):
        self.trent = KeyPair.from_seed("trent")
        self.ms_id = b"\x11" * 32

    def _commitment(self, purpose):
        return SignatureCommitment(self.ms_id, self.trent.public_key, purpose)

    def test_witness_signature_opens(self):
        commitment = self._commitment(CommitmentPurpose.REDEEM)
        signature = commitment.sign_with(self.trent)
        assert commitment.verify(signature)

    def test_purposes_are_mutually_exclusive(self):
        redeem = self._commitment(CommitmentPurpose.REDEEM)
        refund = self._commitment(CommitmentPurpose.REFUND)
        redeem_sig = redeem.sign_with(self.trent)
        assert redeem.verify(redeem_sig)
        assert not refund.verify(redeem_sig)

    def test_other_witness_signature_fails(self):
        commitment = self._commitment(CommitmentPurpose.REDEEM)
        mallory = KeyPair.from_seed("mallory")
        forged = SignatureCommitment(
            self.ms_id, mallory.public_key, CommitmentPurpose.REDEEM
        ).sign_with(mallory)
        assert not commitment.verify(forged)

    def test_other_ms_id_fails(self):
        commitment = self._commitment(CommitmentPurpose.REDEEM)
        other = SignatureCommitment(
            b"\x22" * 32, self.trent.public_key, CommitmentPurpose.REDEEM
        )
        signature = other.sign_with(self.trent)
        assert not commitment.verify(signature)

    def test_non_signature_secret_fails(self):
        commitment = self._commitment(CommitmentPurpose.REDEEM)
        assert not commitment.verify(b"not-a-signature")

    def test_statement_digest_distinguishes_purposes(self):
        assert witness_statement_digest(
            self.ms_id, CommitmentPurpose.REDEEM
        ) != witness_statement_digest(self.ms_id, CommitmentPurpose.REFUND)


class _FakeEvidence:
    """Carries what the commitment reads off an evidence: plain
    ``chain_id`` / ``contract_id`` / ``state`` attributes."""

    def __init__(self, claims):
        vars(self).update(claims)


class TestContractStateCommitment:
    def _commitment(self):
        return ContractStateCommitment(
            witness_chain_id="witness",
            witness_contract_id=b"\x01" * 32,
            required_state="RDauth",
            min_depth=3,
        )

    def test_structural_claims_match(self):
        commitment = self._commitment()
        evidence = _FakeEvidence(
            {"chain_id": "witness", "contract_id": b"\x01" * 32, "state": "RDauth"}
        )
        assert commitment.verify(evidence)

    def test_wrong_state_rejected(self):
        commitment = self._commitment()
        evidence = _FakeEvidence(
            {"chain_id": "witness", "contract_id": b"\x01" * 32, "state": "RFauth"}
        )
        assert not commitment.verify(evidence)

    def test_wrong_contract_rejected(self):
        commitment = self._commitment()
        evidence = _FakeEvidence(
            {"chain_id": "witness", "contract_id": b"\x02" * 32, "state": "RDauth"}
        )
        assert not commitment.verify(evidence)

    def test_wrong_chain_rejected(self):
        commitment = self._commitment()
        evidence = _FakeEvidence(
            {"chain_id": "other", "contract_id": b"\x01" * 32, "state": "RDauth"}
        )
        assert not commitment.verify(evidence)

    def test_secret_without_claims_rejected(self):
        assert not self._commitment().verify(b"opaque")
