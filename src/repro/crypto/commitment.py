"""Commitment-scheme primitives (Section 3 of the paper).

An atomic cross-chain commitment protocol equips every smart contract with
two *mutually exclusive* commitment-scheme instances: a redemption scheme
and a refund scheme.  Revealing the secret of one instance must preclude
ever revealing the secret of the other.  The paper instantiates the
abstraction three ways, and so do we:

* :class:`HashlockCommitment` — ``h = H(s)`` hashlocks, used by the
  Nolan/Herlihy HTLC baselines.  (Mutual exclusion is *not* structural
  here; it is enforced only by timelocks, which is exactly the weakness
  the paper attacks.)
* :class:`SignatureCommitment` — Trent's signature over ``(ms(D), RD)`` or
  ``(ms(D), RF)`` in AC3TW (Algorithm 2); Trent's key/value store makes
  the two signatures mutually exclusive.
* :class:`ContractStateCommitment` — the witness contract's ``RDauth`` /
  ``RFauth`` states in AC3WN (Algorithm 4); the witness network's
  longest-chain rule makes the states mutually exclusive.  The "secret"
  here is *evidence* about the witness chain, validated by the pluggable
  validators of Section 4.3 (see :mod:`repro.core.evidence`).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from .ecdsa import EcdsaSignature
from .hashing import tagged_hash, verify_hashlock
from .keys import KeyPair, PublicKey


class CommitmentPurpose(enum.Enum):
    """Which action a commitment-scheme instance authorizes."""

    REDEEM = "RD"
    REFUND = "RF"


class CommitmentScheme(ABC):
    """A lock whose opening requires a purpose-specific secret."""

    @abstractmethod
    def verify(self, secret: Any) -> bool:
        """Return True iff ``secret`` opens this commitment."""


@dataclass(frozen=True)
class HashlockCommitment(CommitmentScheme):
    """A hashlock ``h = H(s)``; the secret is the preimage ``s``."""

    lock: bytes

    def to_wire(self):
        return {"type": "hashlock", "lock": self.lock}

    def verify(self, secret: Any) -> bool:
        if not isinstance(secret, (bytes, bytearray)):
            return False
        return verify_hashlock(self.lock, bytes(secret))

    @classmethod
    def from_secret(cls, secret: bytes) -> "HashlockCommitment":
        from .hashing import hashlock

        return cls(hashlock(secret))


def witness_statement_digest(ms_id: bytes, purpose: CommitmentPurpose) -> bytes:
    """Digest of the statement ``(ms(D), RD)`` or ``(ms(D), RF)``.

    This is what Trent signs in AC3TW: his signature over this digest is
    the commitment-scheme secret.
    """
    return tagged_hash("repro/witness-statement", ms_id + purpose.value.encode())


@dataclass(frozen=True)
class SignatureCommitment(CommitmentScheme):
    """AC3TW commitment: the pair ``(ms(D), PK_T)`` (Algorithm 2).

    The secret is Trent's signature ``T(ms(D), RD)`` or ``T(ms(D), RF)``.
    ``verify`` implements the paper's ``SigVerify`` helper.
    """

    ms_id: bytes
    witness_key: PublicKey
    purpose: CommitmentPurpose

    def to_wire(self):
        return {
            "type": "signature",
            "ms_id": self.ms_id,
            "witness_key": self.witness_key.to_bytes(),
            "purpose": self.purpose.value,
        }

    def statement_digest(self) -> bytes:
        return witness_statement_digest(self.ms_id, self.purpose)

    def verify(self, secret: Any) -> bool:
        if not isinstance(secret, EcdsaSignature):
            return False
        return self.witness_key.verify(self.statement_digest(), secret)

    def sign_with(self, witness_keypair: KeyPair) -> EcdsaSignature:
        """Produce the commitment secret (used only by Trent himself)."""
        return witness_keypair.sign(self.statement_digest())


@dataclass(frozen=True)
class ContractStateCommitment(CommitmentScheme):
    """AC3WN commitment: ``(SCw, d)`` — a witness contract plus min depth.

    The "secret" is :class:`~repro.core.evidence.StateEvidence` showing the
    witness contract reached the required state in a block buried at depth
    ``>= min_depth`` on the witness chain.  Validation is delegated to a
    validator object (Section 4.3) at verification time, so this class
    only records *what* must be proven; the asset-chain contract supplies
    the validator when it evaluates IsRedeemable / IsRefundable.
    """

    witness_chain_id: str
    witness_contract_id: bytes
    required_state: str
    min_depth: int

    def to_wire(self):
        return {
            "type": "contract-state",
            "chain_id": self.witness_chain_id,
            "contract_id": self.witness_contract_id,
            "state": self.required_state,
            "min_depth": self.min_depth,
        }

    def verify(self, secret: Any) -> bool:
        """Structural check only; full validation needs a chain validator.

        The asset-chain contract hands the submitted evidence to
        :meth:`repro.core.evidence.EvidenceValidator.validate`; ``verify``
        here checks that the evidence at least *names* the right chain,
        contract and state, so unit code can reason about the commitment
        in isolation.
        """
        return (
            getattr(secret, "chain_id", None) == self.witness_chain_id
            and getattr(secret, "contract_id", None) == self.witness_contract_id
            and getattr(secret, "state", None) == self.required_state
        )
