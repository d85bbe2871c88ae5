"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
The hierarchy mirrors the package layout: crypto, chain, simulation, and
protocol errors each have their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Crypto
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidSignatureError(CryptoError):
    """A signature failed verification or is structurally malformed."""


class InvalidKeyError(CryptoError):
    """A private or public key is out of range or not on the curve."""


class InvalidProofError(CryptoError):
    """A Merkle inclusion proof is malformed or does not verify."""


class CommitmentError(CryptoError):
    """A commitment scheme was opened with an invalid secret."""


# ---------------------------------------------------------------------------
# Chain
# ---------------------------------------------------------------------------


class ChainError(ReproError):
    """Base class for blockchain failures."""


class ValidationError(ChainError):
    """A transaction, message, or block failed validation."""


class DoubleSpendError(ValidationError):
    """A transaction tried to spend an already-spent or unknown output."""


class InsufficientFundsError(ValidationError):
    """A party attempted to spend more value than it owns."""


class UnknownBlockError(ChainError):
    """A referenced block hash is not present in the block tree."""


class InvalidBlockError(ChainError):
    """A block failed structural, PoW, or payload validation."""


class ContractError(ValidationError):
    """Base class for smart-contract runtime failures.

    Derives from :class:`ValidationError` so that miners drop messages
    that cannot execute at all (unknown contract/class, bad function);
    note that a *revert* (:class:`ContractRequireError`) never escapes
    the runtime — reverted calls are included with a failure receipt.
    """


class ContractRequireError(ContractError):
    """A contract ``requires`` clause evaluated to false (call reverted)."""


class UnknownContractError(ContractError):
    """A call referenced a contract id that is not deployed."""


class FeeError(ValidationError):
    """A message did not carry enough fee to be accepted by miners."""


class FeeTooLowError(FeeError):
    """A fee-market mempool refused a message for paying too little.

    Raised when a message's fee rate falls below the min-relay floor,
    cannot displace cheaper pending messages from a full mempool, or
    fails the replace-by-fee bump requirement.
    """


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulator failures."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped simulator."""


class TraceError(SimulationError):
    """A flight-recorder trace is malformed (bad schema, unknown keys)."""


class MetricsError(TraceError):
    """A metrics registry was misused (type clash, bad buckets) or a
    serialized snapshot is malformed."""


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for cross-chain commitment protocol failures."""


class GraphError(ProtocolError):
    """An AC2T graph is structurally invalid for the requested protocol."""


class SpecError(ProtocolError):
    """An :class:`~repro.experiment.ExperimentSpec` is invalid.

    Raised for unknown keys or malformed values during deserialization,
    unknown preset/registry names, bad dotted-path overrides, and
    semantic validation failures (negative counts, rates outside their
    domain, unregistered protocols or traffic generators)."""


class EvidenceError(ProtocolError):
    """Cross-chain evidence failed validation (Section 4.3)."""


class AtomicityViolation(ProtocolError):
    """An audit found both redeemed and refunded contracts in one AC2T.

    This is the failure mode the paper's AC3WN protocol is designed to
    make impossible; the HTLC baselines can raise it under crash failures.
    """


class WitnessError(ProtocolError):
    """The witness (Trent or the witness network) rejected a request."""


# ---------------------------------------------------------------------------
# Service mode
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """A long-running :class:`~repro.service.SwapService` session was
    misused (submission after close, result of an unfinished swap,
    capacity exhausted) or a checkpoint/request-log file is malformed
    or inconsistent with the session that tries to restore from it."""


# ---------------------------------------------------------------------------
# Campaign datastore
# ---------------------------------------------------------------------------


class StoreError(ReproError):
    """A campaign datastore operation failed (bad schema version,
    unknown campaign/point, unreadable database, ingest of a file whose
    shape the importer does not recognize)."""


class QueryError(StoreError):
    """A ``repro query`` predicate expression is malformed (syntax
    error, unknown operator, or an ill-typed comparison)."""
