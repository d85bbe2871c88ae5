"""Chain messages: the payloads miners include in blocks.

End-users interact with the storage layer via message passing
(Section 2.1).  Three message kinds exist, mirroring the paper's model:

* :class:`TransferMessage` — a plain asset transfer (Section 2.3).
* :class:`DeployMessage` — publishes a smart contract; carries the
  contract code reference plus the implicit parameters ``msg.sender``
  and ``msg.value`` that lock assets in the contract (Section 2.3).
* :class:`CallMessage` — invokes a smart-contract function; end-users
  pay miners a function-invocation fee for every call.

Every message funds itself UTXO-style: ``inputs`` spend the sender's
assets, ``change`` returns the excess, and the difference covers the
locked value (deploys) plus the miner fee.

Messages are immutable, so every digest derived from the wire encoding
(message id, signing digest, contract id) is computed once and cached on
the instance.  All three digests share one cached canonical encoding —
they differ only in hash domain — and :func:`sign_message` hands it to
the signed copy, because the signature is not part of it.  The cache
slots are ``init=False``, so ``dataclasses.replace`` (used by tests to
build tampered copies) and any re-construction (a fee bump) start with
them empty and the copy re-derives fresh digests.  A transfer encodes its
transaction once for both the message id and the txid
(:func:`transfer_ids`) and keeps only the two digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..crypto.ecdsa import EcdsaSignature
from ..crypto.keys import KeyPair, PublicKey
from ..errors import ValidationError
from .transaction import TXID_DOMAIN, Transaction, TxInput, TxOutput
from .wire import canonical_encode, hash_encoded

_MESSAGE_DOMAIN = "repro/message"

#: ``canonical_encode({"kind": "transfer", "tx": tx})`` up to the transaction
#: (a ``None`` in its place is the one trailing byte cut off here).
_TRANSFER_PREFIX = canonical_encode({"kind": "transfer", "tx": None})[:-1]


def _cache_slot():
    return field(default=None, init=False, repr=False, compare=False)


class ChainMessage:
    """Common interface of all block payloads."""

    __slots__ = ()

    kind: str = "abstract"


@dataclass(frozen=True, slots=True)
class TransferMessage(ChainMessage):
    """Wraps a plain UTXO transaction."""

    tx: Transaction
    kind: str = field(default="transfer", init=False)
    _mid: bytes | None = _cache_slot()

    def to_wire(self):
        return {"kind": self.kind, "tx": self.tx}

    def message_id(self) -> bytes:
        mid = self._mid
        if mid is None:
            txid, mid = transfer_ids(canonical_encode(self.tx.to_wire()))
            object.__setattr__(self.tx, "_txid", txid)
            object.__setattr__(self, "_mid", mid)
        return mid


def transfer_ids(tx_bytes: bytes) -> tuple[bytes, bytes]:
    """The txid and the message id of the transfer of the transaction
    whose canonical encoding is ``tx_bytes``."""
    txid = hash_encoded(tx_bytes, TXID_DOMAIN)
    return txid, hash_encoded(_TRANSFER_PREFIX + tx_bytes, _MESSAGE_DOMAIN)


def _funding_wire(inputs: tuple[TxInput, ...], change: tuple[TxOutput, ...]):
    return {
        "outpoints": [inp.outpoint for inp in inputs],
        "pubkeys": [inp.pubkey.to_bytes() if inp.pubkey else b"" for inp in inputs],
        "change": list(change),
    }


@dataclass(frozen=True, slots=True)
class DeployMessage(ChainMessage):
    """Publishes a smart contract.

    Attributes:
        sender: the deploying end-user (``msg.sender``).
        contract_class: registered class name of the contract code.
        args: constructor arguments (wire-encodable values).
        value: assets to lock in the contract (``msg.value``).
        fee: deployment fee paid to the miner (``fd`` in Section 6.2).
        inputs/change: UTXO funding; inputs must cover value+fee+change.
        nonce: distinguishes otherwise identical deployments.
        signature: sender's signature over the signing digest.
    """

    sender: PublicKey
    contract_class: str
    args: tuple
    value: int = 0
    fee: int = 0
    inputs: tuple[TxInput, ...] = ()
    change: tuple[TxOutput, ...] = ()
    nonce: int = 0
    signature: EcdsaSignature | None = None
    kind: str = field(default="deploy", init=False)
    _enc: bytes | None = _cache_slot()
    _mid: bytes | None = _cache_slot()
    _sig_digest: bytes | None = _cache_slot()
    _cid: bytes | None = _cache_slot()

    def to_wire(self):
        return {
            "kind": self.kind,
            "sender": self.sender.to_bytes(),
            "contract_class": self.contract_class,
            "args": list(self.args),
            "value": self.value,
            "fee": self.fee,
            "funding": _funding_wire(self.inputs, self.change),
            "nonce": self.nonce,
        }

    def wire_bytes(self) -> bytes:
        enc = self._enc
        if enc is None:
            enc = canonical_encode(self.to_wire())
            object.__setattr__(self, "_enc", enc)
        return enc

    def message_id(self) -> bytes:
        mid = self._mid
        if mid is None:
            mid = hash_encoded(self.wire_bytes(), _MESSAGE_DOMAIN)
            object.__setattr__(self, "_mid", mid)
        return mid

    def signing_digest(self) -> bytes:
        digest = self._sig_digest
        if digest is None:
            digest = hash_encoded(self.wire_bytes(), "repro/deploy-signing")
            object.__setattr__(self, "_sig_digest", digest)
        return digest

    def contract_id(self) -> bytes:
        """The id the deployed contract instance will live under."""
        cid = self._cid
        if cid is None:
            cid = hash_encoded(self.wire_bytes(), "repro/contract-id")
            object.__setattr__(self, "_cid", cid)
        return cid


@dataclass(frozen=True, slots=True)
class CallMessage(ChainMessage):
    """Invokes a function on a deployed contract."""

    sender: PublicKey
    contract_id: bytes
    function: str
    args: tuple
    value: int = 0
    fee: int = 0
    inputs: tuple[TxInput, ...] = ()
    change: tuple[TxOutput, ...] = ()
    nonce: int = 0
    signature: EcdsaSignature | None = None
    kind: str = field(default="call", init=False)
    _enc: bytes | None = _cache_slot()
    _mid: bytes | None = _cache_slot()
    _sig_digest: bytes | None = _cache_slot()

    def to_wire(self):
        return {
            "kind": self.kind,
            "sender": self.sender.to_bytes(),
            "contract_id": self.contract_id,
            "function": self.function,
            "args": list(self.args),
            "value": self.value,
            "fee": self.fee,
            "funding": _funding_wire(self.inputs, self.change),
            "nonce": self.nonce,
        }

    def wire_bytes(self) -> bytes:
        enc = self._enc
        if enc is None:
            enc = canonical_encode(self.to_wire())
            object.__setattr__(self, "_enc", enc)
        return enc

    def message_id(self) -> bytes:
        mid = self._mid
        if mid is None:
            mid = hash_encoded(self.wire_bytes(), _MESSAGE_DOMAIN)
            object.__setattr__(self, "_mid", mid)
        return mid

    def signing_digest(self) -> bytes:
        digest = self._sig_digest
        if digest is None:
            digest = hash_encoded(self.wire_bytes(), "repro/call-signing")
            object.__setattr__(self, "_sig_digest", digest)
        return digest


def sign_message(message: DeployMessage | CallMessage, keypair: KeyPair):
    """Return a copy of ``message`` signed by ``keypair``.

    The keypair must match the message's ``sender`` and must own every
    funding input (single-signer messages keep the model simple; the
    multi-party agreement the protocols need lives in ``ms(D)``, not in
    individual chain messages).
    """
    if keypair.public_key.to_bytes() != message.sender.to_bytes():
        raise ValidationError("signing keypair does not match message sender")
    signed = replace(message, signature=keypair.sign(message.signing_digest()))
    # The signature is not part of ``to_wire()``: same canonical bytes.
    object.__setattr__(signed, "_enc", message._enc)
    return signed
