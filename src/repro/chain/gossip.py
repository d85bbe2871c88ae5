"""Multi-miner chains with block gossip and natural forks.

The default scenario runs one miner per chain — sufficient for protocol
experiments because the protocols only observe the canonical chain.
This module adds the fuller permissionless picture of Section 2.1: an
open set of miners, each holding *its own replica* of the chain, racing
Poisson clocks and gossiping mined blocks.  Two miners who mine near-
simultaneously create a real fork; replicas converge via the heaviest-
chain rule as gossip spreads ("miners accept the first received mined
block after verifying it").

Used by the fork/atomicity experiments to produce *organic* forks (as
opposed to the adversarial, withheld branches of
:class:`~repro.chain.miner.AttackMiner`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.keys import Address, KeyPair
from ..errors import InvalidBlockError
from ..sim.network import Network
from ..sim.node import Node
from ..sim.simulator import Simulator
from .block import Block
from .chain import Blockchain
from .mempool import Mempool
from .messages import ChainMessage
from .params import ChainParams


@dataclass
class GossipStats:
    """Counters describing one replica's gossip activity."""

    blocks_mined: int = 0
    blocks_accepted: int = 0
    blocks_rejected: int = 0
    reorgs: int = 0


class ReplicaMiner(Node):
    """One mining node: full replica + Poisson miner + gossip.

    Each replica validates received blocks independently against its own
    copy (the paper's "miners accept the first received mined block
    after verifying it"); blocks arriving before their parent are parked
    in a small orphan buffer and retried on every later arrival.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        params: ChainParams,
        genesis_allocations: list[tuple[Address, int]],
        name: str,
        hash_share: float = 1.0,
    ) -> None:
        super().__init__(simulator, name, network)
        self.chain = Blockchain(params, genesis_allocations)
        self.mempool = Mempool(self.chain)
        self.address = KeyPair.from_seed(name).address
        self.hash_share = hash_share
        self.stats = GossipStats()
        self.peers: list[str] = []
        self._running = False
        self._rng = simulator.stream(f"replica/{name}")
        self._orphans: dict[bytes, Block] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _interval(self) -> float:
        """Exponential inter-block time scaled by this miner's share.

        With shares summing to 1 across replicas, the *network* block
        rate matches ``params.block_interval`` in expectation.
        """
        mean = self.chain.params.block_interval / max(self.hash_share, 1e-9)
        return self._rng.expovariate(1.0 / mean)

    def _schedule_next(self) -> None:
        if self._running:
            self.after(self._interval(), self._mine_once, label=f"{self.name} mine")

    # -- mining ---------------------------------------------------------------

    def _mine_once(self) -> None:
        if not self._running or self.crashed:
            self._schedule_next()
            return
        batch = self.mempool.take_block(self.chain.params.max_messages_per_block)
        valid = self._filter_valid(batch)
        block = self.chain.make_block(valid, self.address, self.simulator.now)
        try:
            self.chain.add_block(block)
        except InvalidBlockError:
            self.mempool.requeue(valid)
        else:
            self.stats.blocks_mined += 1
            for peer in self.peers:
                self.send(peer, ("block", block))
        self._schedule_next()

    def _filter_valid(self, batch: list[ChainMessage]) -> list[ChainMessage]:
        state = self.chain.state_at().clone()
        head = self.chain.head
        valid: list[ChainMessage] = []
        for message in batch:
            try:
                state.apply_message(
                    message,
                    self.chain.params,
                    block_height=head.header.height + 1,
                    block_time=self.simulator.now,
                    registry=self.chain.registry,
                    validators=self.chain.validators,
                )
            except Exception:
                continue
            valid.append(message)
        return valid

    # -- gossip ---------------------------------------------------------------

    def submit(self, message: ChainMessage) -> None:
        """Inject a message at this replica and gossip it to peers."""
        self.mempool.submit(message)
        for peer in self.peers:
            self.send(peer, ("message", message))

    def handle(self, sender: str, payload) -> None:
        kind, body = payload
        if kind == "block":
            self._accept_block(body, forward_from=sender)
        elif kind == "message":
            try:
                self.mempool.submit(body)
            except Exception:
                pass  # duplicate or already included

    def _accept_block(self, block: Block, forward_from: str | None = None) -> None:
        block_hash = block.block_id()
        if self.chain.has_block(block_hash):
            return
        if not self.chain.has_block(block.header.prev_hash):
            self._orphans[block.header.prev_hash] = block
            self.stats.blocks_rejected += 1
            return
        old_head = self.chain.head_hash
        try:
            self.chain.add_block(block)
        except InvalidBlockError:
            self.stats.blocks_rejected += 1
            return
        self.stats.blocks_accepted += 1
        new_head = self.chain.head_hash
        if new_head != old_head and new_head != block_hash:
            # Head changed to something other than a simple extension of
            # our previous view: impossible here, kept for completeness.
            self.stats.reorgs += 1
        elif new_head == block_hash and block.header.prev_hash != old_head:
            self.stats.reorgs += 1
        # Forward to peers (simple flooding; duplicates are ignored).
        for peer in self.peers:
            if peer != forward_from:
                self.send(peer, ("block", block))
        # Retry any orphan waiting on this block.
        child = self._orphans.pop(block_hash, None)
        if child is not None:
            self._accept_block(child)


class ReplicatedChain:
    """A chain run by ``n`` gossiping replicas.

    Provides convergence queries used by the organic-fork experiments:
    how often replicas disagree, and whether they agree at depth d.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        params: ChainParams,
        genesis_allocations: list[tuple[Address, int]],
        num_replicas: int = 3,
        shares: list[float] | None = None,
    ) -> None:
        if num_replicas < 1:
            raise ValueError("need at least one replica")
        shares = shares or [1.0 / num_replicas] * num_replicas
        if len(shares) != num_replicas:
            raise ValueError("one hash share per replica required")
        self.replicas: list[ReplicaMiner] = []
        for i, share in enumerate(shares):
            replica = ReplicaMiner(
                simulator,
                network,
                params,
                genesis_allocations,
                name=f"replica/{params.chain_id}/{i}",
                hash_share=share,
            )
            self.replicas.append(replica)
        names = [r.name for r in self.replicas]
        for replica in self.replicas:
            replica.peers = [n for n in names if n != replica.name]

    def start(self) -> None:
        for replica in self.replicas:
            replica.start()

    def submit(self, message: ChainMessage) -> None:
        """Submit via the first replica (gossip spreads it)."""
        self.replicas[0].submit(message)

    # -- convergence queries ---------------------------------------------------

    def heads(self) -> set[bytes]:
        return {replica.chain.head_hash for replica in self.replicas}

    def tips_agree(self) -> bool:
        return len(self.heads()) == 1

    def agree_at_depth(self, depth: int) -> bool:
        """Do all replicas share the chain prefix buried ``depth`` deep?

        Tips may race (and replicas may momentarily sit at different
        heights while gossip propagates), but the prefix ending ``depth``
        blocks below the *lowest* replica's head must be common — this is
        the operational meaning of "wait for depth d" (Section 4.2).
        """
        common_height = min(r.chain.height for r in self.replicas) - depth + 1
        if common_height < 0:
            return False
        prefix_blocks = {
            replica.chain.block_at_height(common_height).block_id()
            for replica in self.replicas
        }
        return len(prefix_blocks) == 1

    def total_forks_observed(self) -> int:
        return sum(replica.stats.reorgs for replica in self.replicas)
