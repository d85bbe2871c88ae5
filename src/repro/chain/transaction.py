"""UTXO transactions: transfers that merge and split assets.

Section 2.3 of the paper: "A transaction takes one or more input assets
owned by one identity and results in one or more output assets where each
output asset is owned by one identity. Therefore, transactions are used
to merge or split assets."  Figure 2's ``TX1`` (merge) and ``TX2``
(split) are directly expressible here, and the miners enforce — in the
storage layer — that end-users transact only on assets they own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.ecdsa import EcdsaSignature
from ..crypto.keys import Address, PublicKey
from ..errors import ValidationError
from .wire import _encode_into, canonical_encode, hash_encoded, wire_hash

TXID_DOMAIN = "repro/txid"


@dataclass(frozen=True, slots=True)
class OutPoint:
    """A reference to the ``index``-th output of transaction ``txid``."""

    txid: bytes
    index: int

    def to_wire(self):
        return {"txid": self.txid, "index": self.index}

    def __repr__(self) -> str:
        return f"OutPoint({self.txid.hex()[:8]}…, {self.index})"


@dataclass(frozen=True, slots=True)
class TxOutput:
    """An asset: ``value`` units owned by ``owner``."""

    owner: Address
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValidationError("output value must be non-negative")

    def to_wire(self):
        return {"owner": self.owner.raw, "value": self.value}


@dataclass(frozen=True)
class TxInput:
    """Spends an existing output; carries the owner's authorization.

    ``pubkey`` must hash to the spent output's owner address and
    ``signature`` must be the owner's signature over the transaction's
    signing digest — this is the digital-signature transfer of ownership
    described in Section 2.3.
    """

    outpoint: OutPoint
    pubkey: PublicKey | None = None
    signature: EcdsaSignature | None = None

    def to_wire(self):
        return {
            "outpoint": self.outpoint,
            "pubkey": self.pubkey.to_bytes() if self.pubkey else b"",
        }


@dataclass(frozen=True, slots=True)
class Transaction:
    """A transfer of asset ownership (merge/split capable).

    A transaction with no inputs is a *coinbase*.  No block or mempool
    accepts one: coins are minted only at genesis, straight into the state
    (their ids hashed from :func:`coinbase_encoding`).
    """

    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    nonce: int = 0  # distinguishes otherwise-identical coinbases

    kind: str = field(default="transfer", init=False)
    #: the txid once derived — 32 bytes; the encoding itself is never kept.
    _txid: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def to_wire(self):
        return {
            "kind": self.kind,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "nonce": self.nonce,
        }

    # -- identity ------------------------------------------------------------

    def signing_digest(self) -> bytes:
        """Digest the owner signs: inputs' outpoints plus all outputs.

        Signatures are excluded (they cannot sign themselves); pubkeys are
        included so a signature cannot be replayed under another key.
        """
        payload = {
            "outpoints": [inp.outpoint for inp in self.inputs],
            "pubkeys": [inp.pubkey.to_bytes() if inp.pubkey else b"" for inp in self.inputs],
            "outputs": list(self.outputs),
            "nonce": self.nonce,
        }
        return wire_hash(payload, domain="repro/tx-signing")

    def txid(self) -> bytes:
        """The transaction id (hash of the canonical encoding)."""
        txid = self._txid
        if txid is None:
            txid = hash_encoded(canonical_encode(self.to_wire()), TXID_DOMAIN)
            object.__setattr__(self, "_txid", txid)
        return txid

    # -- properties -----------------------------------------------------------

    @property
    def is_coinbase(self) -> bool:
        return not self.inputs

    def total_output(self) -> int:
        return sum(out.value for out in self.outputs)


#: A coinbase's canonical encoding around its three leaves (nonce, owner
#: bytes, value), as the encoder writes it: a ``None`` in each place.
_COINBASE_WIRE = canonical_encode(
    {"inputs": [], "kind": "transfer", "nonce": None, "outputs": [{"owner": None, "value": None}]}
).split(canonical_encode(None))[:3]


def coinbase_tail(output: TxOutput) -> bytes:
    """The bytes after the nonce of any coinbase minting ``output``."""
    out = bytearray(_COINBASE_WIRE[1])
    _encode_into(output.owner.raw, out)
    out += _COINBASE_WIRE[2]
    _encode_into(output.value, out)
    return bytes(out)


def coinbase_encoding(output: TxOutput, nonce: int, tail: bytes | None = None) -> bytes:
    """The canonical encoding of the coinbase minting ``output`` under
    ``nonce`` (no inputs, one output), filled into :data:`_COINBASE_WIRE`
    without building the transaction; ``tail`` is
    :func:`coinbase_tail` of ``output`` when the caller has it."""
    out = bytearray(_COINBASE_WIRE[0])
    _encode_into(nonce, out)
    out += coinbase_tail(output) if tail is None else tail
    return bytes(out)


def sign_transaction(unsigned: Transaction, keypairs) -> Transaction:
    """Attach per-input pubkeys and signatures.

    ``keypairs`` is one :class:`~repro.crypto.keys.KeyPair` per input (or
    a single keypair reused for all inputs).  The returned transaction is
    fully signed and ready for submission.
    """
    from ..crypto.keys import KeyPair

    if isinstance(keypairs, KeyPair):
        keypairs = [keypairs] * len(unsigned.inputs)
    if len(keypairs) != len(unsigned.inputs):
        raise ValidationError("need one keypair per transaction input")
    # First pass: bind pubkeys (they are part of the signing digest).
    with_keys = Transaction(
        inputs=tuple(
            TxInput(inp.outpoint, kp.public_key, None)
            for inp, kp in zip(unsigned.inputs, keypairs)
        ),
        outputs=unsigned.outputs,
        nonce=unsigned.nonce,
    )
    digest = with_keys.signing_digest()
    signed_inputs = tuple(
        TxInput(inp.outpoint, kp.public_key, kp.sign(digest))
        for inp, kp in zip(unsigned.inputs, keypairs)
    )
    return Transaction(inputs=signed_inputs, outputs=unsigned.outputs, nonce=unsigned.nonce)
