"""Commitment-scheme purposes (Section 3 of the paper).

An atomic cross-chain commitment protocol equips every smart contract with
two *mutually exclusive* commitment-scheme instances: a redemption scheme
and a refund scheme.  Revealing the secret of one instance must preclude
ever revealing the secret of the other.  Each contract checks its own
lock: the HTLC baselines a hashlock (:mod:`repro.core.htlc`), AC3TW
Trent's signature over :func:`witness_statement_digest`
(:mod:`repro.core.ac3tw`), AC3WN evidence of the witness contract's
state (:mod:`repro.core.ac3wn`).
"""

from __future__ import annotations

import enum

from .hashing import tagged_hash


class CommitmentPurpose(enum.Enum):
    """Which action a commitment-scheme instance authorizes."""

    REDEEM = "RD"
    REFUND = "RF"


def witness_statement_digest(ms_id: bytes, purpose: CommitmentPurpose) -> bytes:
    """Digest of the statement ``(ms(D), RD)`` or ``(ms(D), RF)``.

    This is what Trent signs in AC3TW: his signature over this digest is
    the commitment-scheme secret.
    """
    return tagged_hash("repro/witness-statement", ms_id + purpose.value.encode())
