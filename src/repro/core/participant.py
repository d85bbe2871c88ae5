"""Protocol participants: end-users with wallets on several chains.

A participant owns a key pair (its identity across all chains), tracks
which chains it can reach, and knows how to build correctly-funded
deploy/call/transfer messages out of its UTXOs.  Crash failures (the
paper's Section 1 motivation) apply at this level: a crashed participant
submits nothing until it recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.chain import Blockchain
from ..chain.mempool import Mempool
from ..chain.messages import CallMessage, DeployMessage, TransferMessage, sign_message
from ..chain.transaction import Transaction, TxInput, TxOutput, sign_transaction
from ..crypto.keys import Address, KeyPair
from ..errors import InsufficientFundsError, ProtocolError, ValidationError
from ..sim.node import Node
from ..sim.simulator import Simulator


@dataclass
class ChainHandle:
    """A participant's access point to one chain: full node + mempool."""

    chain: Blockchain
    mempool: Mempool


class Participant(Node):
    """An end-user actor: identity, wallets, and message construction."""

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        keypair: KeyPair | None = None,
    ) -> None:
        super().__init__(simulator, name)
        self.keypair = keypair or KeyPair.from_seed(f"participant/{name}")
        self._chains: dict[str, ChainHandle] = {}
        self._nonce = 0
        self.submitted: list[tuple[str, bytes]] = []  # (chain_id, message_id)
        # Outpoints spent by messages we submitted but that are not yet
        # mined; excluded from coin selection to avoid self-conflicts.
        self._pending_spends: dict[str, set] = {}

    # -- identity ----------------------------------------------------------

    @property
    def address(self) -> Address:
        return self.keypair.address

    @property
    def public_key(self):
        return self.keypair.public_key

    # -- chain access ----------------------------------------------------------

    def join_chain(self, handle: ChainHandle) -> None:
        self._chains[handle.chain.params.chain_id] = handle

    def handle_for(self, chain_id: str) -> ChainHandle:
        if chain_id not in self._chains:
            raise ProtocolError(f"{self.name} has no access to chain {chain_id!r}")
        return self._chains[chain_id]

    def chain(self, chain_id: str) -> Blockchain:
        return self.handle_for(chain_id).chain

    def balance_on(self, chain_id: str) -> int:
        return self.chain(chain_id).balance_of(self.address)

    def next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce

    # -- funding -----------------------------------------------------------------

    def _select_funding(
        self, chain_id: str, amount: int
    ) -> tuple[tuple[TxInput, ...], tuple[TxOutput, ...]]:
        """Greedy coin selection covering ``amount``; change back to self.

        Outpoints already spent by our not-yet-mined messages are
        excluded, so rapid successive submissions never double-spend
        against ourselves.
        """
        state = self.chain(chain_id).state_at()
        pending = self._pending_spends.setdefault(chain_id, set())
        # Prune pending entries that have since been mined (spent).
        pending.intersection_update(
            op for op in pending if op in state.utxos
        )
        selected, total = state.utxos.select(self.address, amount, pending)
        if total < amount:
            raise InsufficientFundsError(
                f"{self.name} has {total} spendable on {chain_id}, needs "
                f"{amount} ({len(pending)} outpoints locked by pending messages)"
            )
        pending.update(selected)
        change: tuple[TxOutput, ...] = ()
        if total > amount:
            change = (TxOutput(self.address, total - amount),)
        return tuple(TxInput(outpoint) for outpoint in selected), change

    def release_spends(self, chain_id: str, outpoints) -> None:
        """Unlock outpoints held for a message that will never be mined.

        Called by protocol drivers when one of our messages is evicted
        from a fee-market mempool and abandoned (priced out) — without
        this, the funding would stay locked against coin selection
        forever.
        """
        self._pending_spends.setdefault(chain_id, set()).difference_update(outpoints)

    def _submit(self, chain_id: str, mempool: Mempool, message) -> None:
        """Submit to the mempool, unlocking the funding on rejection.

        A fee-market mempool may refuse a freshly built message (fee too
        low, pool full); its inputs must not stay locked in that case or
        the wallet would leak spendable coins."""
        try:
            mempool.submit(message)
        except ValidationError:
            inputs = message.tx.inputs if isinstance(message, TransferMessage) else message.inputs
            self.release_spends(chain_id, [inp.outpoint for inp in inputs])
            raise

    # -- message construction + submission -----------------------------------------

    def deploy_contract(
        self,
        chain_id: str,
        contract_class: str,
        args: tuple,
        value: int = 0,
        fee: int | None = None,
    ) -> DeployMessage:
        """Build, sign, and submit a contract deployment; returns the message.

        Raises if the participant is crashed — a crashed site cannot
        publish contracts, which is precisely the failure the paper's
        protocols must survive.
        """
        if self.crashed:
            raise ProtocolError(f"{self.name} is crashed and cannot deploy")
        handle = self.handle_for(chain_id)
        fee = handle.chain.params.fees.deploy if fee is None else fee
        inputs, change = self._select_funding(chain_id, value + fee)
        message = DeployMessage(
            sender=self.public_key,
            contract_class=contract_class,
            args=args,
            value=value,
            fee=fee,
            inputs=inputs,
            change=change,
            nonce=self.next_nonce(),
        )
        message = sign_message(message, self.keypair)
        self._submit(chain_id, handle.mempool, message)
        self.submitted.append((chain_id, message.message_id()))
        return message

    def call_contract(
        self,
        chain_id: str,
        contract_id: bytes,
        function: str,
        args: tuple,
        value: int = 0,
        fee: int | None = None,
    ) -> CallMessage:
        """Build, sign, and submit a contract function call."""
        if self.crashed:
            raise ProtocolError(f"{self.name} is crashed and cannot call")
        handle = self.handle_for(chain_id)
        fee = handle.chain.params.fees.call if fee is None else fee
        inputs, change = self._select_funding(chain_id, value + fee)
        message = CallMessage(
            sender=self.public_key,
            contract_id=contract_id,
            function=function,
            args=args,
            value=value,
            fee=fee,
            inputs=inputs,
            change=change,
            nonce=self.next_nonce(),
        )
        message = sign_message(message, self.keypair)
        self._submit(chain_id, handle.mempool, message)
        self.submitted.append((chain_id, message.message_id()))
        return message

    def transfer(
        self,
        chain_id: str,
        recipient: Address,
        amount: int,
        fee: int | None = None,
    ) -> TransferMessage:
        """Submit a plain UTXO transfer to ``recipient``."""
        if self.crashed:
            raise ProtocolError(f"{self.name} is crashed and cannot transfer")
        handle = self.handle_for(chain_id)
        fee = handle.chain.params.fees.transfer if fee is None else fee
        inputs, change = self._select_funding(chain_id, amount + fee)
        outputs = (TxOutput(recipient, amount),) + change
        unsigned = Transaction(
            inputs=inputs, outputs=outputs, nonce=self.next_nonce()
        )
        tx = sign_transaction(unsigned, self.keypair)
        message = TransferMessage(tx)
        self._submit(chain_id, handle.mempool, message)
        self.submitted.append((chain_id, message.message_id()))
        return message
