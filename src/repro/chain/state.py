"""Chain state: UTXO set + deployed contracts + receipts.

The state at a block is a pure function of the genesis coins and the
messages mined after genesis up to that block, which is what makes fork
handling correct: after a reorg the chain simply exposes the state of
the new winning branch (computed by replay / incremental application
along that branch).

Message application rules:

* Transfers follow the UTXO rules of :mod:`repro.chain.utxo`.
* Deploys instantiate the referenced contract class, lock ``msg.value``
  in it, and run the constructor.  A failing constructor makes the whole
  message invalid (miners never include it).
* Calls execute a public function.  A failing ``requires`` clause
  *reverts* the contract mutation but still charges the fee, mirroring
  Ethereum's gas-on-revert semantics.
* Contract code is total (:func:`_run_contract_code`): whatever else it
  raises on a hostile message is a revert (call) or an invalid message
  (constructor) — never an exception out of the miner.
* Fees are collected from each message's funding inputs and minted to
  the block's miner at the end of the block, so total value is conserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.keys import Address
from ..errors import (
    ContractError,
    ContractRequireError,
    FeeError,
    UnknownContractError,
    ValidationError,
)
from .block import Block
from .contracts import (
    DEFAULT_REGISTRY,
    ExecutionContext,
    OK_RECEIPT,
    Receipt,
    SmartContract,
)
from .cowmap import CowMap, leading_byte
from .messages import CallMessage, ChainMessage, DeployMessage, TransferMessage
from .params import ChainParams
from .transaction import OutPoint, TxOutput
from .utxo import UTXOSet
from .wire import wire_hash


def _run_contract_code(function, ctx: ExecutionContext, args: tuple, failure) -> None:
    """Invoke contract code with attacker-chosen ``args``.

    Anyone can send any well-encoded arguments, so code written for the
    honest shapes may raise anything (``TypeError`` on arity,
    ``AttributeError`` on a non-evidence, a crypto error on a bad key).
    The runtime's own :class:`ValidationError` family passes through;
    every other exception becomes ``failure`` naming its type, so one
    message can never take down the miner that executes it.
    """
    try:
        function(ctx, *args)
    except ValidationError:
        raise
    except Exception as exc:
        raise failure(f"contract code raised {type(exc).__name__}: {exc}") from exc


@dataclass
class ChainState:
    """Mutable ledger state at one block."""

    utxos: UTXOSet = field(default_factory=UTXOSet)
    contracts: dict[bytes, SmartContract] = field(default_factory=dict)
    receipts: CowMap[bytes, Receipt] = field(default_factory=lambda: CowMap(leading_byte))
    fees_collected: int = 0
    deploy_count: int = 0
    call_count: int = 0
    transfer_count: int = 0

    def clone(self) -> "ChainState":
        """Copy-on-write copy.  The UTXO set and the receipts share every
        bucket with the copy until one side writes it
        (:mod:`repro.chain.cowmap`), so neither costs anything per entry
        here.  Contract *instances* are shared too — the call runtime
        mutates a working copy and installs it into the owning state only
        on success (see :meth:`_apply_call`), so a shared instance is
        never written through — which leaves one flat dict copy,
        O(#contracts)."""
        return ChainState(
            utxos=self.utxos.copy(),
            contracts=dict(self.contracts),
            receipts=self.receipts.copy(),
            fees_collected=self.fees_collected,
            deploy_count=self.deploy_count,
            call_count=self.call_count,
            transfer_count=self.transfer_count,
        )

    # -- queries ---------------------------------------------------------

    def contract(self, contract_id: bytes) -> SmartContract:
        if contract_id not in self.contracts:
            raise UnknownContractError(f"contract {contract_id.hex()[:12]}… not deployed")
        return self.contracts[contract_id]

    def has_contract(self, contract_id: bytes) -> bool:
        return contract_id in self.contracts

    def balance_of(self, owner: Address) -> int:
        return self.utxos.balance_of(owner)

    # -- funding helpers ---------------------------------------------------

    def _consume_funding(
        self,
        message: DeployMessage | CallMessage,
        min_fee: int,
    ) -> int:
        """Spend funding inputs, emit change, return the fee paid.

        Funding inputs must be owned by the message sender; the single
        message-level signature authorizes all of them.
        """
        sender_address = message.sender.address()
        total_in = 0
        seen: set[OutPoint] = set()
        for inp in message.inputs:
            if inp.outpoint in seen:
                raise ValidationError("funding outpoint used twice in one message")
            seen.add(inp.outpoint)
            spent = self.utxos.get(inp.outpoint)
            if spent.owner != sender_address:
                raise ValidationError("funding input not owned by message sender")
            total_in += spent.value
        change_total = sum(out.value for out in message.change)
        required = message.value + change_total + min_fee
        if total_in < required:
            raise FeeError(
                f"funding {total_in} below required {required} "
                f"(value={message.value}, change={change_total}, min_fee={min_fee})"
            )
        for inp in message.inputs:
            self.utxos.spend(inp.outpoint)
        message_id = message.message_id()
        for index, out in enumerate(message.change):
            self.utxos.add(OutPoint(message_id, index), out)
        return total_in - message.value - change_total

    def _mint(self, recipient: Address, amount: int, tag: dict) -> None:
        """Create a fresh UTXO out of thin air (contract payout / fees)."""
        txid = wire_hash(tag, domain="repro/mint")
        self.utxos.add(OutPoint(txid, 0), TxOutput(recipient, amount))

    def _apply_contract_transfers(
        self,
        contract: SmartContract,
        ctx: ExecutionContext,
        message_id: bytes,
    ) -> None:
        total = sum(amount for _, amount in ctx._transfers)
        if total > contract.balance:
            raise ContractRequireError(
                f"contract tried to transfer {total} with balance {contract.balance}"
            )
        contract.balance -= total
        for seq, (recipient, amount) in enumerate(ctx._transfers):
            if amount > 0:
                self._mint(
                    recipient,
                    amount,
                    {"msg": message_id, "seq": seq, "contract": contract.contract_id},
                )

    # -- message application -------------------------------------------------

    def apply_message(
        self,
        message: ChainMessage,
        params: ChainParams,
        block_height: int,
        block_time: float,
    ) -> Receipt:
        """Validate and apply one message; returns its receipt.

        Raises :class:`~repro.errors.ValidationError` (or a subclass) for
        structurally invalid messages — miners must not include those.
        Contract-call reverts do *not* raise; they yield a "reverted"
        receipt, because a failed redeem/refund attempt is a legitimate
        on-chain event the protocols reason about.
        """
        message_id = message.message_id()
        if message_id in self.receipts:
            raise ValidationError("message already applied (replay)")

        if isinstance(message, TransferMessage):
            receipt = self._apply_transfer(message, params)
        elif isinstance(message, DeployMessage):
            receipt = self._apply_deploy(message, params, block_height, block_time, message_id)
        elif isinstance(message, CallMessage):
            receipt = self._apply_call(message, params, block_height, block_time, message_id)
        else:
            raise ValidationError(f"unknown message kind {message.kind!r}")

        self.receipts[message_id] = receipt
        self.fees_collected += receipt.fee_paid
        return receipt

    def _apply_transfer(self, message: TransferMessage, params: ChainParams) -> Receipt:
        fee = self.utxos.apply_transaction(message.tx, min_fee=params.fees.transfer)
        self.transfer_count += 1
        return Receipt(status="ok", fee_paid=fee) if fee else OK_RECEIPT

    def _verify_message_signature(self, message: DeployMessage | CallMessage) -> None:
        if message.signature is None:
            raise ValidationError("message is unsigned")
        if not message.sender.verify(message.signing_digest(), message.signature):
            raise ValidationError("message signature failed verification")

    def _apply_deploy(
        self,
        message: DeployMessage,
        params: ChainParams,
        block_height: int,
        block_time: float,
        message_id: bytes,
    ) -> Receipt:
        self._verify_message_signature(message)
        cls = DEFAULT_REGISTRY.resolve(message.contract_class)
        contract_id = message.contract_id()
        if contract_id in self.contracts:
            raise ValidationError("contract id already deployed")
        fee = self._consume_funding(message, params.fees.deploy)

        contract = cls()
        contract.contract_id = contract_id
        contract.balance = message.value
        contract.owner = message.sender.address()
        ctx = ExecutionContext(
            chain_id=params.chain_id,
            block_height=block_height,
            block_time=block_time,
            sender=message.sender.address(),
            sender_pubkey=message.sender,
            value=message.value,
            message_id=message_id,
        )
        # A failing constructor invalidates the whole message: the
        # funding spend above is rolled back by the caller discarding
        # this state (block-level all-or-nothing application).
        _run_contract_code(contract.constructor, ctx, message.args, ContractError)
        self._apply_contract_transfers(contract, ctx, message_id)
        self.contracts[contract_id] = contract
        self.deploy_count += 1
        return Receipt(
            status="ok",
            events=tuple(ctx._events),
            fee_paid=fee,
            contract_id=contract_id,
        )

    def _apply_call(
        self,
        message: CallMessage,
        params: ChainParams,
        block_height: int,
        block_time: float,
        message_id: bytes,
    ) -> Receipt:
        self._verify_message_signature(message)
        # Never mutate the stored instance: other states may share it
        # (copy-on-write clone).  Run the call against a working copy and
        # install the copy only if the invocation succeeds.
        contract = self.contract(message.contract_id)._execution_copy()
        fee = self._consume_funding(message, params.fees.call)
        contract.balance += message.value
        ctx = ExecutionContext(
            chain_id=params.chain_id,
            block_height=block_height,
            block_time=block_time,
            sender=message.sender.address(),
            sender_pubkey=message.sender,
            value=message.value,
            message_id=message_id,
        )
        function = contract.public_function(message.function)
        try:
            _run_contract_code(function, ctx, message.args, ContractRequireError)
            self._apply_contract_transfers(contract, ctx, message_id)
        except ContractRequireError as exc:
            # Revert by dropping the working copy; fee stays with the
            # miner and the attached value returns to the sender.
            if message.value > 0:
                self._mint(
                    message.sender.address(),
                    message.value,
                    {"msg": message_id, "revert_refund": True},
                )
            self.call_count += 1
            return Receipt(
                status="reverted",
                error=str(exc),
                fee_paid=fee,
                contract_id=message.contract_id,
            )
        self.contracts[message.contract_id] = contract
        self.call_count += 1
        return Receipt(
            status="ok",
            events=tuple(ctx._events),
            fee_paid=fee,
            contract_id=message.contract_id,
        )

    # -- block application ------------------------------------------------------

    def apply_block(
        self,
        block: Block,
        params: ChainParams,
    ) -> list[Receipt]:
        """Apply every message in ``block``; mint fees to the miner.

        Returns the per-message receipts in block order.  Raises on any
        invalid message — the caller treats the whole block as invalid in
        that case (this state must then be discarded).  Genesis is not a
        mined block and never comes through here: its coins enter the
        state by :meth:`UTXOSet.add <repro.chain.utxo.UTXOSet.add>` alone
        (:func:`~repro.chain.chain.build_genesis`).
        """
        if len(block.messages) > params.max_messages_per_block:
            raise ValidationError(
                f"block has {len(block.messages)} messages, "
                f"cap is {params.max_messages_per_block}"
            )
        fees_before = self.fees_collected
        receipts: list[Receipt] = []
        for message in block.messages:
            receipts.append(
                self.apply_message(
                    message,
                    params,
                    block_height=block.header.height,
                    block_time=block.header.timestamp,
                )
            )
        block_fees = self.fees_collected - fees_before
        if block_fees > 0:
            self._mint(
                block.header.miner,
                block_fees,
                {
                    "fees_of": {
                        "prev": block.header.prev_hash,
                        "root": block.header.merkle_root,
                        "height": block.header.height,
                    }
                },
            )
        return receipts
