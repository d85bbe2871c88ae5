"""The unspent-transaction-output set.

Miners validate that "an asset cannot be spent twice" (Section 2.3); the
UTXO set is the data structure that enforces it.  Spending an outpoint
removes it; a second spend of the same outpoint raises
:class:`~repro.errors.DoubleSpendError`.
"""

from __future__ import annotations

from typing import Collection

from ..crypto.keys import Address
from ..errors import DoubleSpendError, ValidationError
from .cowmap import CowMap
from .transaction import OutPoint, Transaction, TxOutput

Coins = dict[OutPoint, TxOutput]


def _txid_byte(outpoint: OutPoint) -> int:
    # An OutPoint does not validate its txid; an empty one is merely unknown.
    txid = outpoint.txid
    return txid[0] if txid else 0


def _owner_byte(owner: Address) -> int:
    return owner.raw[0]


def _clone_owners(bucket: dict[Address, Coins]) -> dict[Address, Coins]:
    """An owner bucket's values are written in place, so copy them too."""
    return {owner: coins.copy() for owner, coins in bucket.items()}


class UTXOSet:
    """Mapping of unspent outpoints to their outputs.

    Held twice, both copy-on-write (:mod:`repro.chain.cowmap`): by
    outpoint, and by owner so a wallet query reads one owner's coins
    instead of scanning the chain's.  :meth:`add` and :meth:`spend` are
    the only writers and keep the two in step.
    """

    __slots__ = ("_entries", "_by_owner")

    def __init__(self) -> None:
        self._entries: CowMap[OutPoint, TxOutput] = CowMap(_txid_byte)
        self._by_owner: CowMap[Address, Coins] = CowMap(_owner_byte, _clone_owners)

    def copy(self) -> "UTXOSet":
        """An independent set sharing every bucket until one side writes it."""
        twin: UTXOSet = object.__new__(UTXOSet)
        twin._entries = self._entries.copy()
        twin._by_owner = self._by_owner.copy()
        return twin

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, outpoint: OutPoint) -> bool:
        return outpoint in self._entries

    def get(self, outpoint: OutPoint) -> TxOutput:
        """Return the unspent output at ``outpoint`` or raise."""
        try:
            return self._entries[outpoint]
        except KeyError:
            raise DoubleSpendError(f"outpoint {outpoint!r} is unknown or already spent")

    def balance_of(self, owner: Address) -> int:
        """Total unspent value owned by ``owner``."""
        return sum(out.value for out in self._by_owner.get(owner, {}).values())

    def outpoints_of(self, owner: Address) -> list[OutPoint]:
        """All outpoints currently owned by ``owner`` (deterministic order)."""
        return sorted(self._by_owner.get(owner, ()), key=lambda op: (op.txid, op.index))

    def select(
        self, owner: Address, amount: int, exclude: Collection[OutPoint] = ()
    ) -> tuple[list[OutPoint], int]:
        """Greedy coin selection: ``owner``'s outpoints, in
        :meth:`outpoints_of` order and skipping ``exclude``, until their
        value covers ``amount``.  Returns them with their total value,
        which is below ``amount`` when the owner cannot cover it."""
        selected: list[OutPoint] = []
        total = 0
        for outpoint in self.outpoints_of(owner):
            if outpoint in exclude:
                continue
            if total >= amount:
                break
            selected.append(outpoint)
            total += self.get(outpoint).value
        return selected, total

    def total_value(self) -> int:
        """Sum of all unspent values (the circulating supply)."""
        return sum(out.value for out in self._entries.values())

    # -- mutation ------------------------------------------------------------

    def add(self, outpoint: OutPoint, output: TxOutput) -> None:
        entries = self._entries.edit(outpoint)
        if outpoint in entries:
            raise ValidationError(f"outpoint {outpoint!r} already exists")
        entries[outpoint] = output
        owner = output.owner
        self._by_owner.edit(owner).setdefault(owner, {})[outpoint] = output

    def spend(self, outpoint: OutPoint) -> TxOutput:
        """Remove and return the output at ``outpoint``."""
        output = self.get(outpoint)
        del self._entries[outpoint]
        owner = output.owner
        owners = self._by_owner.edit(owner)
        coins = owners[owner]
        del coins[outpoint]
        if not coins:
            del owners[owner]
        return output

    def apply_transaction(self, tx: Transaction, min_fee: int = 0) -> int:
        """Validate and apply ``tx``; returns the fee it pays.

        Validation: ``tx`` is no coinbase (only genesis mints), every
        input spends an existing output whose owner matches the input's
        pubkey, every signature verifies, inputs cover outputs plus
        ``min_fee``, and no outpoint is spent twice (including twice
        within this transaction).
        """
        if tx.is_coinbase:
            raise ValidationError("coinbase transactions only allowed at genesis")

        seen: set[OutPoint] = set()
        digest = tx.signing_digest()
        total_in = 0
        for inp in tx.inputs:
            if inp.outpoint in seen:
                raise DoubleSpendError(f"outpoint {inp.outpoint!r} spent twice in one tx")
            seen.add(inp.outpoint)
            spent = self.get(inp.outpoint)
            if inp.pubkey is None or inp.signature is None:
                raise ValidationError("input lacks a pubkey or signature")
            if inp.pubkey.address() != spent.owner:
                raise ValidationError(
                    f"input pubkey does not own the spent output "
                    f"({inp.pubkey.address()} != {spent.owner})"
                )
            if not inp.pubkey.verify(digest, inp.signature):
                raise ValidationError("input signature failed verification")
            total_in += spent.value

        total_out = tx.total_output()
        if total_in < total_out + min_fee:
            raise ValidationError(
                f"inputs ({total_in}) do not cover outputs ({total_out}) "
                f"plus fee ({min_fee})"
            )

        for inp in tx.inputs:
            self.spend(inp.outpoint)
        txid = tx.txid()
        for index, out in enumerate(tx.outputs):
            self.add(OutPoint(txid, index), out)
        return total_in - total_out
