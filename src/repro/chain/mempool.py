"""The mempool: messages waiting to be mined.

End-users multicast messages to miners (Section 2.1); the mempool is the
miner-side buffer.  Admission runs a light validation against the current
head state so obviously-invalid messages are rejected at submission time,
which gives protocol drivers immediate feedback.

Without a fee policy the pool is a plain queue: submission order, no
limits.  With one (a :class:`~repro.economy.FeePolicy`, duck-typed here so
``chain/`` stays below ``economy/``) block space is a priced, finite
resource:

* **fee-rate ordering** — miners take the highest fee rate first, within
  ``policy.block_weight_budget`` weight units per block;
* **capacity + eviction** — the pool holds at most
  ``policy.capacity_weight`` weight units; when full, the cheapest
  pending messages are evicted to admit a better-paying one (and a
  message cheaper than everything pending is rejected outright);
* **min-relay floor** — messages below ``policy.min_relay_fee_rate``
  never enter;
* **replace-by-fee** — a message spending the same funding outpoints as
  a pending one displaces it iff it improves the fee rate by
  ``policy.rbf_bump`` and pays strictly more absolute fee.

Everything is deterministic: ties in fee rate are broken by submission
sequence (first-seen wins), so a seeded simulation replays bit-for-bit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..errors import FeeTooLowError, ValidationError
from .chain import Blockchain
from .messages import CallMessage, ChainMessage, DeployMessage, TransferMessage
from .transaction import OutPoint


@dataclass
class MempoolEntry:
    """Bookkeeping for one pending message (all zero without a policy)."""

    message: ChainMessage
    fee: int
    weight: int
    seq: int
    spends: tuple[OutPoint, ...]

    @property
    def fee_rate(self) -> float:
        return self.fee / self.weight


class Mempool:
    """Pool of pending messages for one chain (see module docstring)."""

    def __init__(self, chain: Blockchain, policy=None) -> None:
        self.chain = chain
        #: The chain's :class:`~repro.economy.FeePolicy`; None = no fee market.
        self.policy = policy
        #: Pending entries by message id, in submission order.
        self._pending: "OrderedDict[bytes, MempoolEntry]" = OrderedDict()
        self._spends: dict[OutPoint, bytes] = {}
        self._weight = 0
        self._seq = 0
        #: Total rejected submissions, with a per-cause breakdown.
        self.rejected = 0
        self.rejected_duplicate = 0
        self.rejected_invalid = 0
        self.rejected_fee = 0
        #: Pending messages that lost their place (always 0 without a policy).
        self.evicted = 0
        self.replaced = 0
        self._eviction_listeners: list = []
        #: Optional flight recorder (set by :func:`repro.obs.instrument`);
        #: emit sites guard on ``is not None``.
        self.collector = None

    # -- eviction notifications --------------------------------------------
    #
    # Fired whenever a pending message loses its place (capacity eviction
    # or replace-by-fee), so event-driven protocol drivers can rebroadcast.

    def add_eviction_listener(self, listener) -> None:
        """Call ``listener(message_id)`` when a pending message is evicted."""
        self._eviction_listeners.append(listener)

    def remove_eviction_listener(self, listener) -> None:
        """Remove an eviction listener (no-op if absent)."""
        if listener in self._eviction_listeners:
            self._eviction_listeners.remove(listener)

    def _notify_eviction(self, message_id: bytes) -> None:
        for listener in list(self._eviction_listeners):
            listener(message_id)

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, message_id: bytes) -> bool:
        return message_id in self._pending

    # -- admission -----------------------------------------------------------

    def submit(self, message: ChainMessage) -> bytes:
        """Admit ``message``; returns its id.  Raises on obvious invalidity.

        Admission checks are necessarily optimistic: final validation
        happens when a miner applies the message to a concrete state.
        Under a policy, economic rejections (min-relay fee rate,
        replace-by-fee on conflicting spends, capacity) raise
        :class:`~repro.errors.FeeTooLowError` and count in
        ``rejected_fee`` (and the ``rejected`` total).
        """
        message_id = message.message_id()
        # find_message is O(1) via the chain's main-chain height index,
        # so the inclusion check costs the same as the pending check.
        if message_id in self._pending:
            self.rejected += 1
            self.rejected_duplicate += 1
            raise ValidationError("message already pending")
        if self.chain.find_message(message_id) is not None:
            self.rejected += 1
            self.rejected_duplicate += 1
            raise ValidationError("message already included in the chain")
        try:
            self._light_validate(message)
        except ValidationError:
            self.rejected += 1
            self.rejected_invalid += 1
            raise
        entry = self._entry_for(message)
        if self.policy is not None:
            self._make_room(entry)
        self._insert(message_id, entry)
        if self.collector is not None:
            priced = {}
            if self.policy is not None:
                priced = {"fee": entry.fee, "weight": entry.weight}
            self.collector.emit(
                "mempool",
                "submit",
                chain_id=self.chain.params.chain_id,
                msg=message.kind,
                pending=len(self._pending),
                **priced,
            )
        return message_id

    def _light_validate(self, message: ChainMessage) -> None:
        if isinstance(message, TransferMessage):
            if message.tx.is_coinbase:
                raise ValidationError("coinbase transactions cannot be submitted")
            return
        if isinstance(message, (DeployMessage, CallMessage)):
            if message.signature is None:
                raise ValidationError("message is unsigned")
            if isinstance(message, CallMessage):
                # The contract may be deployed by an earlier pending
                # message, so only reject calls on ids that cannot exist.
                if len(message.contract_id) != 32:
                    raise ValidationError("malformed contract id")
            return
        raise ValidationError(f"unknown message kind {message.kind!r}")

    def _entry_for(self, message: ChainMessage) -> MempoolEntry:
        if self.policy is None:
            return MempoolEntry(message, 0, 0, self._seq, ())
        if isinstance(message, TransferMessage):
            inputs = message.tx.inputs
            # Transfer fee = inputs − outputs, read off the head state.
            # Inputs spent by still-pending messages are invisible there;
            # fall back to the chain's flat transfer fee for those.
            utxos = self.chain.state_at().utxos
            if all(inp.outpoint in utxos for inp in inputs):
                total_in = sum(utxos.get(inp.outpoint).value for inp in inputs)
                total_out = sum(out.value for out in message.tx.outputs)
                fee = max(total_in - total_out, 0)
            else:
                fee = self.chain.params.fees.transfer
        else:
            inputs = message.inputs
            fee = message.fee
        return MempoolEntry(
            message,
            fee,
            self.policy.weight_of(message),
            self._seq,
            tuple(inp.outpoint for inp in inputs),
        )

    def _make_room(self, entry: MempoolEntry) -> None:
        """Apply the policy's admission rules to ``entry``: raise
        :class:`~repro.errors.FeeTooLowError`, or remove what it displaces."""
        policy = self.policy
        if entry.fee_rate < policy.min_relay_fee_rate:
            self._reject_fee(
                f"fee rate {entry.fee_rate:.3f} below min relay "
                f"{policy.min_relay_fee_rate}"
            )
        conflicts = sorted(
            {self._spends[op] for op in entry.spends if op in self._spends}
        )
        if conflicts:
            best_rate = max(self._pending[mid].fee_rate for mid in conflicts)
            best_fee = max(self._pending[mid].fee for mid in conflicts)
            if entry.fee_rate < best_rate * policy.rbf_bump or entry.fee <= best_fee:
                self._reject_fee(
                    f"replacement fee rate {entry.fee_rate:.3f} does not improve "
                    f"{best_rate:.3f} by the required x{policy.rbf_bump}"
                )
        victims = self._capacity_victims(entry, set(conflicts))
        chain_id = self.chain.params.chain_id
        collector = self.collector
        for mid in victims:
            self._remove(mid)
            self.evicted += 1
            if collector is not None:
                # ``pending`` rides along so depth-watching sinks (the
                # saturation alert rule's hysteresis) see the pool drain
                # without waiting for the next submit.
                collector.emit(
                    "mempool",
                    "evict",
                    chain_id=chain_id,
                    evicted=mid.hex()[:16],
                    pending=len(self._pending),
                )
            self._notify_eviction(mid)
        for mid in conflicts:
            self._remove(mid)
            self.replaced += 1
            if collector is not None:
                collector.emit(
                    "mempool",
                    "rbf",
                    chain_id=chain_id,
                    replaced=mid.hex()[:16],
                    new_fee=entry.fee,
                )
            self._notify_eviction(mid)

    def _capacity_victims(self, entry: MempoolEntry, exempt: set[bytes]) -> list[bytes]:
        """Ids to evict so ``entry`` fits ``capacity_weight`` (or reject it)."""
        cap = self.policy.capacity_weight
        if cap is None:
            return []
        # Weight after the conflicting entries (about to be replaced) go.
        projected = self._weight - sum(self._pending[mid].weight for mid in exempt)
        if projected + entry.weight <= cap:
            return []
        # Evict cheapest-first (newest evicted first on rate ties) until
        # the newcomer fits — unless the newcomer is itself the cheapest.
        candidates = sorted(
            ((mid, e) for mid, e in self._pending.items() if mid not in exempt),
            key=lambda item: (item[1].fee_rate, -item[1].seq),
        )
        victims: list[bytes] = []
        for mid, victim in candidates:
            if projected + entry.weight <= cap:
                break
            if victim.fee_rate >= entry.fee_rate:
                self._reject_fee(
                    f"mempool full and fee rate {entry.fee_rate:.3f} does not "
                    f"beat the cheapest pending ({victim.fee_rate:.3f})"
                )
            victims.append(mid)
            projected -= victim.weight
        if projected + entry.weight > cap:
            self._reject_fee("message heavier than the whole mempool capacity")
        return victims

    def _reject_fee(self, reason: str) -> None:
        self.rejected += 1
        self.rejected_fee += 1
        if self.collector is not None:
            self.collector.emit(
                "mempool",
                "reject",
                chain_id=self.chain.params.chain_id,
                reason=reason,
            )
        raise FeeTooLowError(reason)

    def _insert(self, message_id: bytes, entry: MempoolEntry) -> None:
        self._seq += 1
        self._pending[message_id] = entry
        self._weight += entry.weight
        for op in entry.spends:
            self._spends[op] = message_id

    def _remove(self, message_id: bytes) -> None:
        entry = self._pending.pop(message_id)
        self._weight -= entry.weight
        for op in entry.spends:
            if self._spends.get(op) == message_id:
                del self._spends[op]

    # -- block building ------------------------------------------------------

    def take_block(self, limit: int, exclude=None) -> list[ChainMessage]:
        """Remove and return up to ``limit`` messages for one block.

        Without a policy: submission order.  With one: best fee rate
        first (then submission order), including each message that still
        fits the remaining ``policy.block_weight_budget`` (greedy
        knapsack); skipped messages stay pending for later blocks.
        ``exclude`` (a censoring miner's predicate) skips matching
        messages *in place*: they stay pending without consuming any of
        the template's ``limit`` or block space.
        """
        candidates = self._pending.items()
        budget = None
        if self.policy is not None:
            candidates = sorted(
                candidates, key=lambda item: (-item[1].fee_rate, item[1].seq)
            )
            budget = self.policy.block_weight_budget
        selected: list[bytes] = []
        used = 0
        for message_id, entry in candidates:
            if len(selected) >= limit:
                break
            if exclude is not None and exclude(entry.message):
                continue
            if budget is not None and used + entry.weight > budget:
                continue
            used += entry.weight
            selected.append(message_id)
        batch = [self._pending[message_id].message for message_id in selected]
        for message_id in selected:
            self._remove(message_id)
        return batch

    def requeue(self, messages: list[ChainMessage]) -> None:
        """Put messages back after a failed block build: at the front of
        the submission order, in their original order (under a policy
        the fee rate decides their place, as for any pending message)."""
        for message in messages:
            message_id = message.message_id()
            if message_id not in self._pending:
                self._insert(message_id, self._entry_for(message))
        for message in reversed(messages):
            self._pending.move_to_end(message.message_id(), last=False)
