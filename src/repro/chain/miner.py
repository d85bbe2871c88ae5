"""Miner actors: turn mempool messages into blocks on the simulator clock.

A :class:`MinerNode` drives one chain: every block interval it takes a
batch of pending messages, assembles a block on the current head, mines
the proof of work, and connects it.  Messages that fail validation at
block-build time are dropped individually so one bad message cannot stall
a chain.

:class:`AttackMiner` mines a *private branch* from a chosen fork point —
the 51%-attack tool used by the Section 6.3 experiments.
"""

from __future__ import annotations

from typing import Callable

from ..crypto.keys import Address, KeyPair
from ..errors import InvalidBlockError, ValidationError
from .block import TIME_SCALE, Block, encode_time
from .chain import Blockchain
from .mempool import Mempool
from .messages import ChainMessage
from ..sim.node import Node
from ..sim.simulator import Simulator


class MinerNode(Node):
    """The canonical miner of one chain.

    With ``params.deterministic_intervals`` blocks arrive exactly every
    ``block_interval`` seconds; otherwise intervals are exponential with
    that mean (Poisson mining, like real PoW networks).
    """

    def __init__(
        self,
        simulator: Simulator,
        chain: Blockchain,
        mempool: Mempool,
        name: str | None = None,
        address: Address | None = None,
    ) -> None:
        super().__init__(simulator, name or f"miner/{chain.params.chain_id}")
        self.chain = chain
        self.mempool = mempool
        self.address = address or KeyPair.from_seed(self.name).address
        self.blocks_mined = 0
        self.messages_dropped = 0
        self.fees_earned = 0
        #: Optional censorship predicate (adversarial mining): messages
        #: for which it returns True are skipped by this miner's block
        #: templates *in place* — they stay pending forever without
        #: consuming template capacity or block space.
        self.censor: Callable[[ChainMessage], bool] | None = None
        self.messages_censored = 0
        self._running = False
        self._rng = simulator.stream(f"miner/{chain.params.chain_id}")
        self.on_block: list[Callable[[Block], None]] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin the mining loop."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _interval(self) -> float:
        params = self.chain.params
        if params.deterministic_intervals:
            return params.block_interval
        return self._rng.expovariate(1.0 / params.block_interval)

    def _schedule_next(self) -> None:
        if not self._running:
            return
        self.after(self._interval(), self._mine_once, label=f"{self.name} block")

    # -- block production ----------------------------------------------------------

    def _mine_once(self) -> None:
        if self._running and not self.crashed:
            self.mine_block()
        self._schedule_next()

    def mine_block(self) -> Block | None:
        """Assemble, mine, and connect one block immediately.

        Returns the block, or None if every candidate message was invalid
        and the block would have been empty... empty blocks are still
        mined (chains advance even when idle, which is what lets
        confirmation depth accumulate).
        """
        limit = self.chain.params.max_messages_per_block
        exclude = None
        if self.censor is not None:

            def exclude(message: ChainMessage) -> bool:
                if self.censor(message):
                    self.messages_censored += 1
                    return True
                return False

        batch = self.mempool.take_block(limit, exclude)
        parent_hash = self.chain.head_hash
        # The template pass runs at the quantized time the header will
        # carry, so its receipts double as the block's commitment and
        # make_block skips a second trial application of the whole batch.
        block_time = (
            max(encode_time(self.simulator.now), self.chain.head.header.time_ticks)
            / TIME_SCALE
        )
        valid, statuses = self._filter_valid(batch, block_time)
        block = self.chain.make_block(
            valid, self.address, self.simulator.now, statuses=statuses
        )
        try:
            self.chain.add_block(block)
        except InvalidBlockError:
            # Should not happen after filtering; drop the batch and move on.
            self.messages_dropped += len(valid)
            return None
        self.blocks_mined += 1
        # Fee revenue: the state's fee counter advanced by this block.
        self.fees_earned += (
            self.chain.state_at(block.block_id()).fees_collected
            - self.chain.state_at(parent_hash).fees_collected
        )
        for callback in self.on_block:
            callback(block)
        return block

    def _filter_valid(
        self, batch: list[ChainMessage], block_time: float
    ) -> tuple[list[ChainMessage], list[tuple[bytes, str]] | None]:
        """Greedily keep messages that apply cleanly on the head state.

        Returns the valid messages plus their ``(message_id, status)``
        receipts, reusable as the block's receipts commitment.  When a
        message is dropped the trial state is no longer a clean run of
        the surviving messages, so the receipts are returned as ``None``
        and ``make_block`` re-derives them on a fresh clone.
        """
        state = self.chain.state_at().clone()
        params = self.chain.params
        head = self.chain.head
        valid: list[ChainMessage] = []
        statuses: list[tuple[bytes, str]] | None = []
        for message in batch:
            try:
                receipt = state.apply_message(
                    message,
                    params,
                    block_height=head.header.height + 1,
                    block_time=block_time,
                )
            except ValidationError:
                self.messages_dropped += 1
                statuses = None
            else:
                valid.append(message)
                if statuses is not None:
                    statuses.append((message.message_id(), receipt.status))
        return valid, statuses


class AttackMiner:
    """Mines a private branch — the fork tool for 51%-attack experiments.

    The attacker picks a fork point, mines blocks that (optionally) carry
    its own messages, and *withholds* them; :meth:`release` connects the
    whole private branch at once.  If the private branch carries more
    cumulative work than the public one, the release reorgs the chain —
    exactly the attack Section 6.3's depth rule defends against.
    """

    def __init__(self, chain: Blockchain, address: Address | None = None) -> None:
        self.chain = chain
        self.address = address or KeyPair.from_seed("attacker").address
        self.private_blocks: list[Block] = []
        self._tip: bytes | None = None
        self._tip_header = None
        self._tip_state = None

    def fork_from(self, block_hash: bytes) -> None:
        """Start the private branch at ``block_hash``."""
        block = self.chain.block(block_hash)  # raises if unknown
        self.private_blocks.clear()
        self._tip = block_hash
        self._tip_header = block.header
        self._tip_state = self.chain.state_at(block_hash)

    def extend(self, messages: list[ChainMessage], timestamp: float) -> Block:
        """Mine one private block on the private tip (not yet connected).

        The attacker maintains its own view of the branch state, so the
        withheld blocks never touch the public chain until released.
        """
        if self._tip is None:
            raise ValidationError("call fork_from() before extend()")
        block = self.chain.make_block(
            messages,
            self.address,
            timestamp,
            parent_hash=self._tip,
            parent_header=self._tip_header,
            parent_state=self._tip_state,
        )
        # Advance the private state past this block.
        state = self._tip_state.clone()
        state.apply_block(block, self.chain.params)
        self._tip_state = state
        self.private_blocks.append(block)
        self._tip = block.block_id()
        self._tip_header = block.header
        return block

    def release(self) -> bool:
        """Connect the private branch; returns True if it became the head."""
        became_head = False
        for block in self.private_blocks:
            if not self.chain.has_block(block.block_id()):
                became_head = self.chain.add_block(block)
        self.private_blocks.clear()
        return became_head

    @property
    def private_length(self) -> int:
        return len(self.private_blocks)
